"""Rows of flags as bit-packed uint64 words.

`pack` turns an (n, m) bool array into n rows of W = word_count(m) =
max(1, ceil(m/64)) uint64 words, the padding bits zero, so that rows compare, and share set
bits, exactly when their flags do.  `overlap` tests every pair of rows
from two such arrays for a shared set bit, one word at a time;
`first_repeat` finds the first row equal to an earlier one with one
stable sort.
"""

from __future__ import annotations

import numpy as np


def word_count(m: int) -> int:
    """Words W of a packed row of m flags."""
    return max(1, -(-m // 64))


def pack(flags: np.ndarray) -> np.ndarray:
    """(n, m) bool flags as (n, W) uint64 words."""
    n, m = flags.shape
    padded = np.zeros((n, 64 * word_count(m)), dtype=bool)
    padded[:, :m] = flags
    return np.packbits(padded).view(np.uint64).reshape(n, -1)  # one flat pass


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
