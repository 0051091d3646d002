"""Subsets in lexicographic order, in numpy batches.

Subsets of sorted items are ordered lexicographically, a subset before its
extensions: (0,) < (0,1) < (0,1,2) < (0,2) < (1,).  `lex_batches` yields
them as rows of integer arrays, padding subsets shorter than the widest
with -1, which keeps that order.

The rows are built with numpy copies, not Python tuples.  The subsets that
share a prefix of all but their last two members are one contiguous run of
a table of the 1- and 2-element tails, so each such prefix costs one copy
of that run.  The table is built once per call and holds at most
PAIR_TABLE_ENTRIES entries; above that (about 1000 items) the tails have
one element, which is as fast there.
"""

from __future__ import annotations

from math import comb

import numpy as np

PAIR_TABLE_ENTRIES = 1_000_000


def _pair_tails(lookup: np.ndarray, singles: bool) -> tuple[np.ndarray, list[int]]:
    """The tails (i, j), i < j, of the n = len(lookup) - 1 items in
    lexicographic order, with (i, -1) before the pairs of each i if
    `singles`, mapped through `lookup`; and the row where the tails of each
    first index i (and n, the end) start."""
    n = len(lookup) - 1
    skip = int(not singles)
    counts = np.arange(n - skip, -skip, -1)  # tails with first index i
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    tails = np.empty((starts[-1], 2), dtype=np.intp)
    tails[:, 0] = np.repeat(lookup[:-1], counts)
    second = np.arange(starts[-1]) + np.repeat(np.arange(skip, n + skip) - starts[:-1], counts)
    if singles:
        second[starts[:-1]] = n  # lookup[n] is -1
    tails[:, 1] = lookup[second]
    return tails, starts.tolist()


def _pieces(items: list, lo: int, hi: int):
    """(prefix, tails) pairs: writing the prefix list over each row of the
    tails array, in turn, gives the padded subsets of `lex_batches`; tails
    None stands for the prefix alone.

    The prefixes of size at most hi - 2 are walked in lexicographic order.
    Each one of size at least lo is a row of its own, and each of size
    hi - 2 is followed by the run of the 1- and 2-element tail table that
    starts at its first item after its last.  Where that table would hold
    more than PAIR_TABLE_ENTRIES entries, the tails have one element and
    the prefixes go up to size hi - 1.
    """
    n = len(items)
    width = min(hi, 2 if n * (n + 1) <= PAIR_TABLE_ENTRIES else 1)  # of a tail
    top = hi - width  # the prefix size that a run of tails follows
    lookup = np.array(items + [-1], dtype=np.intp)
    if width == 2:
        tails, starts = _pair_tails(lookup, singles=lo < hi)
    else:
        tails, starts = lookup[:-1, None], range(n + 1)
    prefix: list[int] = []  # indices into items
    values: list[int] = []  # the items at those indices
    while True:
        if len(prefix) >= lo:
            yield values, None
        first = prefix[-1] + 1 if prefix else 0
        if len(prefix) < top and first < n:
            prefix.append(first)
            values.append(items[first])
            continue
        if len(prefix) == top and width:
            yield values, tails[starts[first]:]
        while prefix and prefix[-1] == n - 1:
            prefix.pop()
            values.pop()
        if not prefix:
            return
        prefix[-1] += 1
        values[-1] = items[prefix[-1]]


def lex_batches(items, lo: int, hi: int, size: int):
    """Subsets of the sorted `items` with sizes in [lo, hi] in lexicographic
    order, as (size, hi) intp arrays of rows padded with -1; the last one
    may be shorter.  Every array is a fresh one.
    """
    items = list(items)
    left = sum(comb(len(items), k) for k in range(lo, hi + 1))
    batch = None
    for values, tails in _pieces(items, lo, hi):
        j, a, end = len(values), 0, 1 if tails is None else len(tails)
        while a < end:
            if batch is None:
                batch, k = np.full((min(size, left), hi), -1, dtype=np.intp), 0
            take = min(len(batch) - k, end - a)
            batch[k:k + take, :j] = values
            if tails is not None:
                batch[k:k + take, j:] = tails[a:a + take]
            k += take
            a += take
            if k == len(batch):
                left -= k
                yield batch
                batch = None
