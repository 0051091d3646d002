"""Minimum multicover: the d-code property decided per column.

(S, j) fails the (s, l) d-code property iff every row of supp(j) has at
least l ones in S.  More columns in S only add hits, and s < t leaves
columns to add, so some S fails with j iff c_j <= s, where c_j is the
fewest columns other than j that give every row of supp(j) l hits: a
minimum multicover of w_j rows, the exact form of the counting behind the
certificate s * max_dot <= l * w - 1.  `sic.verify.check_d_code` asks
`exceeds` where `cheaper` finds that cheaper than its scan, and scans
only for the witness of a failure.  The decision lives in a module of its
own, as `sic.symmetry` does: inside `sic.verify` it raised the screen
benchmark's peak RSS by 0.25 MiB when `sic` is compiled from source at
import (Python 3.11).
"""

from __future__ import annotations

import numpy as np

# row scans the d-code scan runs in the time one column of its DP takes beyond
# its gathers: about 95 us per column of example 1 as a plain array, whose
# full scan runs 3.3*10^10 row scans/s (2-vCPU VM)
_COLUMN_COST = 3_000_000


def cheaper(bits: np.ndarray, l: int, scans: int, columns: int, entries: int) -> bool:
    """Decide the first `columns` columns by multicover rather than scan
    `scans` row scans?  Yes when the state table of each column j,
    (l+1)^w_j entries for its weight w_j, holds at most `entries` (the
    scan's batch bound), and the DP's cost is below `scans`: at most t - 1
    gathers of each table (a trace is taken at most as often as columns
    have it) plus _COLUMN_COST per column.  The fixed costs alone decide
    small inputs before the weights are read."""
    if columns * _COLUMN_COST >= scans:
        return False
    weights = bits[:, :columns].sum(axis=0)
    # capped, the power stays small and still exceeds `entries` where it would
    if (l + 1) ** min(int(weights.max(initial=0)), entries.bit_length()) > entries:
        return False
    states = int(np.power(l + 1, weights, dtype=np.int64).sum())
    return (bits.shape[1] - 1) * states + columns * _COLUMN_COST < scans


def exceeds(bits: np.ndarray, s: int, l: int, columns: int) -> bool:
    """Does each of the first `columns` columns j need more than s other
    columns to give every row of its support l hits (c_j > s)?

    A row of supp(j) that fewer than l other columns meet makes c_j
    infinite; an empty support makes it 0."""
    weak = bits[bits.sum(axis=1, dtype=np.int64) <= l, :columns].any(axis=0)
    return not any(_covered(bits[bits[:, j] != 0], j, l, s)
                   for j in np.flatnonzero(~weak).tolist())


def _covered(support: np.ndarray, j: int, l: int, s: int) -> bool:
    """c_j <= s: do at most s columns other than j give every row of
    `support`, the rows of supp(j), l hits?

    A bounded knapsack over hit-count vectors capped at l, one base-(l+1)
    digit per row: cost[y] is the fewest columns taken so far whose hits
    reach at least y.  The columns' traces on the support are deduplicated,
    and a trace that m columns have is taken up to min(m, l) times; taking
    it once more sends y to the state (y - trace)^+ one column cheaper.
    The support has at most 21 rows (`cheaper`), so a trace fits in
    an int64 key."""
    w = len(support)
    keys = (1 << np.arange(w, dtype=np.int64)) @ support  # each column's trace as w bits
    keys[j] = 0  # column j is no candidate, and the empty trace adds nothing
    traces, counts = np.unique(keys, return_counts=True)
    cost = np.full((l + 1) ** w, s + 1, dtype=np.int32)
    cost[0] = 0
    digits = np.arange(l + 1)
    less = np.maximum(digits - 1, 0)
    for key, m in zip(traces.tolist(), counts.tolist()):
        if key == 0:
            continue
        lowered = np.zeros(1, dtype=np.intp)  # the state (y - trace)^+ of each state y
        for row in reversed(range(w)):
            lowered = (lowered[:, None] * (l + 1) + (less if key >> row & 1 else digits)).ravel()
        taken = cost
        for _ in range(min(m, l)):
            taken = taken[lowered] + 1
            np.minimum(cost, taken, out=cost)
        if cost[-1] <= s:
            break
    return bool(cost[-1] <= s)  # an empty support has cost 0
