"""Translation symmetry of codes built by `sic`.

An RS code is linear, so its columns are the translates of column 0 by a
group of codewords.  `translates` checks this on the input itself, so a
wrong or perturbed matrix costs time, never a wrong verdict; the checkers
in `sic.verify` use it.  The detector lives in a module of its own:
inside `sic.verify` it raised the screen benchmark's peak RSS by 0.25 MiB
when `sic` is compiled from source at import (Python 3.11).
"""

from __future__ import annotations

from math import log

import numpy as np

from .codes import BinaryCode, QaryCode
from .fields import is_prime_power


def _digit_sum(a: np.ndarray, b: np.ndarray, c: int, p: int, q: int) -> np.ndarray:
    """a + c*b in the additive group of GF(q), q = p^m, whose base-p digits
    add mod p whatever the field's modulus; in a's dtype."""
    if p == 2:
        return a ^ b if c % 2 else a
    x, y = a.astype(np.int32), b.astype(np.int32)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int32)
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
    gives them when its N = w*q rows are canonical one-hot blocks, the
    layout of `binary_expand` (rows i*q .. i*q+q-1 hold exactly one 1 per
    column, in row i*q + symbol); anything else, plain arrays included,
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
    memory O(n*t) beyond a binary input.
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
    else:
        blocks = code.bits.reshape(n, q, t)
        if (blocks.dtype.kind not in "biu" or blocks.min() < 0 or blocks.max() > 1
                or (blocks.sum(axis=1, dtype=np.min_scalar_type(q)) != 1).any()):
            return None
        values = np.arange(q, dtype=np.min_scalar_type(q - 1))
        symbols = np.einsum("ivt,v->it", blocks.view(np.uint8) if blocks.dtype == bool else blocks,
                            values)  # the row of each block's one 1
    symbols = symbols.astype(np.min_scalar_type(q - 1), copy=False)
    diffs = _digit_sum(symbols, symbols[:, :1], -1, p, q).T  # D, one member per row
    keys = _row_keys(diffs)
    order = np.argsort(keys)
    members = keys[order]
    if (members[1:] == members[:-1]).any():  # two equal columns
        return None
    span, seen = np.zeros_like(diffs[:1]), np.zeros(t, dtype=bool)
    while True:
        span_keys = _row_keys(span)
        found = np.minimum(np.searchsorted(members, span_keys), t - 1)
        if (members[found] != span_keys).any():  # a member of the span outside D
            return None
        seen[found] = True
        if len(span) == t:
            return symbols
        generator = diffs[order[np.argmin(seen)]]
        span = np.concatenate([_digit_sum(span, generator, c, p, q) for c in range(p)])
