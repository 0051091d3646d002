"""Rows of flags as bit-packed uint64 words.

`pack` turns an (n, m) bool array into n rows of W = word_count(m) =
max(1, ceil(m/64)) uint64 words, the padding bits zero, so that rows compare, and share set
bits, exactly when their flags do.  `overlap` tests every pair of rows
from two such arrays for a shared set bit, one word at a time;
`first_repeat` finds the first row equal to an earlier one with one
stable sort.

Every exhaustive checker asks of a set of columns which rows it hits at
least i times.  `pack_columns` packs the columns of a 0/1 matrix as `pack`
packs rows, plus an all-zero column that index -1 selects, and
`at_least` answers for a batch of index rows padded with -1 by OR and
AND of their column words alone.  `pack` turns AND and OR of flags into
AND and OR of words, and NOT into NOT once the padding bits are masked
back to zero, so every flag a checker reads is an AND, OR or XOR of
these planes, the same words as `pack` of the flags.  `interleave` lays
b such planes out as `pack` lays out b flags per row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def word_count(m: int) -> int:
    """Words W of a packed row of m flags."""
    return max(1, -(-m // 64))


def pack(flags: np.ndarray) -> np.ndarray:
    """(n, m) bool flags as (n, W) uint64 words."""
    n, m = flags.shape
    padded = np.zeros((n, 64 * word_count(m)), dtype=bool)
    padded[:, :m] = flags
    return np.packbits(padded).view(np.uint64).reshape(n, word_count(m))  # one flat pass


_BITS = pack(np.eye(64, dtype=bool))[:, 0]  # flag i of a row of 64 as its word


def pack_columns(bits: np.ndarray) -> np.ndarray:
    """(t + 1, W) words of the (N, t) 0/1 matrix `bits`: row j is column j
    packed, W = word_count(N), and row t, which index -1 selects, is zero.
    The columns are copied once into a zeroed buffer of t + 1 padded rows,
    uint8 for uint8 entries and bool for any other dtype (a cast that keeps
    a float or wide integer matrix out of `np.packbits` and the buffer at
    one byte an entry), which one flat pass packs into the words."""
    N, t = bits.shape
    dtype = np.uint8 if bits.dtype == np.uint8 else bool
    padded = np.zeros((t + 1, 64 * word_count(N)), dtype=dtype)
    padded[:t, :N] = bits.T
    return np.packbits(padded).view(np.uint64).reshape(t + 1, word_count(N))


@lru_cache(maxsize=4)
def identity(t: int) -> np.ndarray:
    """`pack_columns` of the t x t identity, so that `at_least(identity(t),
    batch, 1, t)[1]` marks each set's columns.  Row j sets bit j of word
    j // 64 from a table of the 64 bits in `pack`'s order, so it takes its
    (t + 1) * W words alone, not the t x t flags.  Cached, so read-only."""
    cols = np.zeros((t + 1, word_count(t)), dtype=np.uint64)
    j = np.arange(t)
    cols[j, j // 64] = _BITS[j % 64]
    cols.setflags(write=False)
    return cols


@lru_cache(maxsize=16)
def _ones(m: int) -> np.ndarray:
    ones = pack(np.ones((1, m), dtype=bool))[0]
    ones.setflags(write=False)
    return ones


def at_least(cols: np.ndarray, batch: np.ndarray, k: int, n: int) -> np.ndarray:
    """(k + 1, len(batch), W) words: plane i is pack(hits >= i), where hits
    counts, for each of the n rows, the columns of a row of `batch` (index
    rows into `pack_columns`' result, padded with -1) that it hits.  Plane 0
    marks every row, so plane i ^ plane j (i < j) marks the rows with i to
    j - 1 hits, and the padding bits stay zero in all of them.

    One gather puts each slot's column words together, and each slot then
    moves a row up one plane where it hits it: from the top plane down, so
    that a slot counts once."""
    slots = np.take(cols, batch.T, axis=0)  # (width, batch, W); faster than cols[batch.T] for W > 1
    planes = np.zeros((k + 1,) + slots.shape[1:], dtype=np.uint64)
    planes[0] = _ones(n)
    for c, column in enumerate(slots):
        for i in range(min(c + 1, k), 1, -1):
            planes[i] |= planes[i - 1] & column
        planes[1] |= column
    return planes


def interleave(planes: np.ndarray, n: int) -> np.ndarray:
    """(m, word_count(n * b)) words of the first n flags of each of b (m, W)
    planes: pack of the (m, n * b) flags whose flag r * b + c is flag r of
    plane c, the layout of b flags per row."""
    b, m, _ = planes.shape
    flags = np.stack([np.unpackbits(p.view(np.uint8), axis=1, count=n) for p in planes], axis=2)
    return pack(flags.reshape(m, n * b))


def overlap(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """(len(a), b_t.shape[1]) bool: does row a[i] share a set bit with
    column b_t[:, j] (the words of b, transposed)?"""
    out = (a[:, :1] & b_t[:1]) != 0
    for w in range(1, a.shape[1]):
        out |= (a[:, w:w + 1] & b_t[w:w + 1]) != 0
    return out


def first_repeat(keys: np.ndarray) -> tuple[int, int] | None:
    """(p, n): the first row n equal to an earlier row, and the first such
    row p; None if all rows differ."""
    order = np.lexsort(keys.T)  # stable: equal rows adjacent, in row order
    ranked = keys[order]
    same = (ranked[1:] == ranked[:-1]).all(axis=1)
    if not same.any():
        return None
    n = int(order[1:][same].min())
    return int(np.argmax((keys[:n] == keys[n]).all(axis=1))), n
