"""Translation symmetry of codes built by `sic`.

An RS code is linear, so its columns are the translates of column 0 by a
group of codewords.  `translates` checks this on the input itself, so a
wrong or perturbed matrix costs time, never a wrong verdict; the checkers
in `sic.verify` use it.
"""

from __future__ import annotations

from math import log

import numpy as np

from .codes import BinaryCode, QaryCode
from .fields import is_prime_power

_CHUNK_ENTRIES = 2**20  # matrix entries per float32 chunk of the block product


def _digit_sum(a: np.ndarray, b: np.ndarray, c: int | np.ndarray, p: int, q: int) -> np.ndarray:
    """a + c*b in the additive group of GF(q), q = p^m, whose base-p digits
    add mod p whatever the field's modulus; c is an int or an integer array,
    broadcast with a and b; in a's dtype."""
    if p == 2:
        return a ^ b * np.asarray(c % 2, dtype=b.dtype)
    x, y = a.astype(np.int32), b.astype(np.int32)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape, np.shape(c)), dtype=np.int32)
    e = 1
    while e < q:
        out += (x // e + c * (y // e)) % p * e
        e *= p
    return out.astype(a.dtype)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one void scalar, which sorts and compares."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def translates(code) -> np.ndarray | None:
    """The n x t q-ary symbols of `code` when its columns are a coset of an
    additive group, column 0 plus each member of D, the columns minus
    column 0; else None.

    A QaryCode gives its symbols.  A BinaryCode with a stated weight w
    gives them when its N = w*q rows are one-hot blocks: canonical ones,
    the layout of `binary_expand` (rows i*q .. i*q+q-1 hold exactly one 1
    per column, in row i*q + symbol), or blocks in any row order, which
    `_recovered` finds and labels.  Anything else, plain arrays included,
    gives None.  q must be a prime power p^m and t a power of p.

    The check grows the group spanned by columns of D, each generator a
    column of D outside the span so far, and accepts when the span is the
    set of D's t distinct columns.  Then translating every column by a
    member d of D permutes the columns and, in the binary expansion, only
    the rows inside each block (v -> v + d_i).  So each translation is an
    automorphism of the matrix, and the group of them is transitive on the
    columns: every property that depends on column sets up to a row
    permutation holds for all sets iff it holds for those with column 0.
    Plain arrays give None before any numpy work.  Time O(n*t*log t),
    memory O(n*t) beyond a q-ary or canonical binary input; rows in
    another order add O(N*t*w) time and O(N*w) memory (`_recovered`).
    """
    if isinstance(code, QaryCode):
        q, (n, t) = code.q, code.symbols.shape
    elif isinstance(code, BinaryCode) and code.weight and code.N % code.weight == 0:
        q, n, t = code.N // code.weight, code.weight, code.t
    else:
        return None
    pm = is_prime_power(q)
    if pm is None or n == 0 or t < 1 or pm[0] ** round(log(t, pm[0])) != t:
        return None
    p = pm[0]
    if isinstance(code, QaryCode):
        symbols = code.symbols
        if symbols.dtype.kind not in "iu" or symbols.min() < 0 or symbols.max() >= q:
            return None
        symbols = symbols.astype(np.min_scalar_type(q - 1), copy=False)
        return symbols if _is_coset(symbols, p, q) else None
    bits = code.bits
    if bits.dtype.kind not in "biu" or bits.min() < 0 or bits.max() > 1:
        return None
    symbols = _one_hot(bits, np.arange(code.N), q)
    if symbols is not None and _is_coset(symbols, p, q):
        return symbols
    symbols = _recovered(bits, n, q, p)
    return symbols if symbols is not None and _is_coset(symbols, p, q) else None


def _is_coset(symbols: np.ndarray, p: int, q: int) -> bool:
    """Whether the columns minus column 0 are t distinct members of a group
    that they span, grown one generator at a time."""
    t = symbols.shape[1]
    diffs = _digit_sum(symbols, symbols[:, :1], -1, p, q).T  # D, one member per row
    keys = _row_keys(diffs)
    order = np.argsort(keys)
    members = keys[order]
    if (members[1:] == members[:-1]).any():  # two equal columns
        return False
    span, seen = np.zeros_like(diffs[:1]), np.zeros(t, dtype=bool)
    while True:
        span_keys = _row_keys(span)
        found = np.minimum(np.searchsorted(members, span_keys), t - 1)
        if (members[found] != span_keys).any():  # a member of the span outside D
            return False
        seen[found] = True
        if len(span) == t:
            return True
        generator = diffs[order[np.argmin(seen)]]
        multiples = np.arange(p, dtype=np.int32)[:, None, None]  # every c at once
        span = _digit_sum(span, generator, multiples, p, q).reshape(-1, span.shape[1])


def _one_hot(bits: np.ndarray, rows: np.ndarray, q: int) -> np.ndarray | None:
    """Symbol (i, c) is v when column c's 1 in block i is the row
    rows[i*q + v]; None unless each block of q rows holds exactly one 1 in
    every column."""
    n, t = len(rows) // q, bits.shape[1]
    values = np.arange(q, dtype=np.min_scalar_type(q - 1))
    symbols = np.empty((n, t), dtype=values.dtype)
    for i in range(n):
        block = bits[rows[i * q:(i + 1) * q]]
        block = block.view(np.uint8) if block.dtype == bool else block
        if (block.sum(axis=0, dtype=np.min_scalar_type(q)) != 1).any():
            return None
        symbols[i] = np.einsum("vt,v->t", block, values)  # the row of the block's one 1
    return symbols


def _recovered(bits: np.ndarray, n: int, q: int, p: int) -> np.ndarray | None:
    """Symbols of a 0/1 matrix whose rows are the one-hot blocks of an MDS
    code of dimension k >= 2 and length n >= k, in any row order, labelled
    so that the columns of a linear code are a coset; None where that
    structure is not found.

    Blocks: column 0 has one row in each block.  Two rows of one block are
    disjoint, and rows of two blocks meet, as k >= 2 symbols fix no
    codeword; so each row meets every row of column 0 but its own
    block's, found by one N x n product, in float32 chunks (a sum of
    nonnegative terms is 0 only where every term is).
    Labels: column 0 is 0 in every block.  On the q^2 columns that agree
    with column 0 on blocks 2..k-1, block k is a Latin square L over
    blocks 0 and 1, L(x, y) = a*x + b*y for a linear code.  Then
    L(x1, y) with b*y = a*x2 is a*(x1 + x2), which gives the addition of
    block 0's rows; block 0 is labelled by base-p digits over generators
    taken one at a time.  On a line of q columns that agree with column 0
    on k - 1 blocks other than 0 and j, blocks 0 and j are in bijection,
    x -> c*x, which carries the labels to block j.  Every block's labels
    are checked to be a bijection, so the symbols describe the matrix;
    whether they are a coset is left to the caller's check, so a wrong
    guess declines.  At n = k the code is the whole space, a coset under
    any labelling of each block, so the blocks' own labels are returned.
    Memory O(N*n + n*t) beyond the matrix.
    """
    N, t = bits.shape
    k = round(log(t, q))
    first = np.flatnonzero(bits[:, 0])
    if k < 2 or q ** k != t or n < k or len(first) != n:
        return None
    column_0_rows = bits[first].T.astype(np.float32)
    apart = np.empty((N, n), dtype=bool)
    step = max(1, _CHUNK_ENTRIES // t)
    for a in range(0, N, step):
        apart[a:a + step] = bits[a:a + step].astype(np.float32) @ column_0_rows == 0
    apart[first, np.arange(n)] = True  # a row of column 0 is in its own block
    # _one_hot checks the blocks: q rows each, one 1 in every column
    raw = _one_hot(bits, np.argsort(apart.argmax(axis=1), kind="stable"), q)
    if raw is None or n == k:
        return raw
    agree = raw == raw[:, :1]
    plane = np.flatnonzero(agree[2:k].all(axis=0))
    square = np.zeros((q, q), dtype=np.int64)
    square[raw[0, plane], raw[1, plane]] = raw[k, plane]
    zero = raw[0, 0]
    times_a, times_b = square[:, raw[1, 0]], square[zero]  # x -> a*x, y -> b*y
    add = np.argsort(times_a)[square[:, np.argsort(times_b)[times_a]]]  # rows x1 + x2
    span = np.array([zero])
    while len(span) < q:  # grow by the first row outside the span
        outside = np.ones(q, dtype=bool)
        outside[span] = False
        generator, multiples = np.argmax(outside), [zero]
        for _ in range(p - 1):
            multiples.append(add[multiples[-1], generator])
        span = add[span, np.array(multiples)[:, None]].ravel()
    labels = np.full((n, q), -1, dtype=np.int64)
    labels[0, span] = np.arange(q)  # a row's label: its position's base-p digits
    for j in range(1, n):
        fixed = [i for i in range(1, k + 1) if i != j][:k - 1]
        line = np.flatnonzero(agree[fixed].all(axis=0))
        labels[j, raw[j, line]] = labels[0, raw[0, line]]
    if (np.sort(labels, axis=1) != np.arange(q)).any():
        return None
    return labels[np.arange(n)[:, None], raw].astype(raw.dtype)
