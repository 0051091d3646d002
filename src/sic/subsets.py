"""Subsets of range(n) in lexicographic order, as tuples or numpy batches.

The order puts a subset before its extensions, (0,) < (0,1) < (0,1,2) <
(0,2) < (1,), which is Python's tuple order.  `lex_batches` yields index
rows padded with -1 to the widest size, which keeps that order; a caller
with other items maps the rows through an array of them.

The rows are built with numpy copies, not Python tuples.  The subsets that
share a prefix of all but their last two members are one contiguous run of
a table of the 1- and 2-element tails, so each such prefix costs one copy
of that run.  The last few tables built are kept, read-only, so that two
families of one size share one.  A table holds at most PAIR_TABLE_ENTRIES
entries; above that (about 1000 items) the tails have one element, which
is as fast there.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import merge
from itertools import combinations
from math import comb

import numpy as np

PAIR_TABLE_ENTRIES = 1_000_000


def lex_tuples(n: int, lo: int, hi: int):
    """The subsets of range(n) with sizes in [lo, hi] as tuples, in
    lexicographic order."""
    if lo == hi:  # one size needs no merge
        return combinations(range(n), lo)
    return merge(*(combinations(range(n), k) for k in range(lo, hi + 1)))


@lru_cache(maxsize=256)
def lex_count(n: int, lo: int, hi: int) -> int:
    """The number of subsets of range(n) with sizes in [lo, hi].  Cached: a
    pair scan asks for its families' sizes several times per call."""
    return sum(comb(n, k) for k in range(lo, hi + 1))


@lru_cache(maxsize=4)
def _pair_tails(n: int, singles: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The tails (i, j), i < j < n, in lexicographic order, with (i, -1)
    before the pairs of each i if `singles`; and the row where the tails of
    each first index i (and n, the end) start.  The table is cached, so it
    is read-only."""
    skip = int(not singles)
    counts = np.arange(n - skip, -skip, -1)  # tails with first index i
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    tails = np.empty((starts[-1], 2), dtype=np.intp)
    tails[:, 0] = np.repeat(np.arange(n), counts)
    tails[:, 1] = np.arange(starts[-1]) + np.repeat(np.arange(skip, n + skip) - starts[:-1], counts)
    if singles:
        tails[starts[:-1], 1] = -1
    tails.setflags(write=False)
    return tails, tuple(starts.tolist())


def _pieces(n: int, lo: int, hi: int):
    """(prefix, tails) pairs: writing the prefix over each row of the tails
    array, in turn, gives the padded subsets of `lex_batches`; tails None
    stands for the prefix alone.

    The prefixes have sizes up to top = hi - 2.  Each one of size at least
    lo is a row of its own, and each of size top is followed by the run of
    the 1- and 2-element tail table that starts at its first index after
    its last.  Where that table would hold more than PAIR_TABLE_ENTRIES
    entries, the tails have one element and top is hi - 1.  Where lo > top,
    a prefix needs lo - top items after its last, so the prefixes are drawn
    from range(n - (lo - top)).
    """
    width = min(hi, 2 if n * (n + 1) <= PAIR_TABLE_ENTRIES else 1)  # of a tail
    top = hi - width  # the prefix size that a run of tails follows
    if width == 2:
        tails, starts = _pair_tails(n, singles=lo < hi)
    else:
        tails, starts = np.arange(n)[:, None], range(n + 1)
    for prefix in lex_tuples(n - max(0, lo - top), min(lo, top), top):
        if len(prefix) >= lo:
            yield prefix, None
        if len(prefix) == top and width:
            yield prefix, tails[starts[prefix[-1] + 1 if prefix else 0]:]


def lex_batches(n: int, lo: int, hi: int, size: int, first: int | None = None):
    """Subsets of range(n) with sizes in [lo, hi] in lexicographic order,
    as (size, hi) intp arrays of rows padded with -1; the last one may be
    shorter.  With `first`, the batches grow from `first` rows, doubling,
    to `size`.  Every array is a fresh one.
    """
    left = lex_count(n, lo, hi)
    rows = size if first is None else min(first, size)
    batch = None
    for prefix, tails in _pieces(n, lo, hi):
        j, a, end = len(prefix), 0, 1 if tails is None else len(tails)
        while a < end:
            if batch is None:
                batch, k = np.full((min(rows, left), hi), -1, dtype=np.intp), 0
            take = min(len(batch) - k, end - a)
            batch[k:k + take, :j] = prefix
            if tails is not None:
                batch[k:k + take, j:] = tails[a:a + take]
            k += take
            a += take
            if k == len(batch):
                left -= k
                yield batch
                batch, rows = None, min(2 * rows, size)
