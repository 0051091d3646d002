"""Minimum multicover: the d-code property decided per column, and the
cover-free (z, 1) and m-code (s, 1) properties with it.

(S, j) fails the (s, l) d-code property iff every row of supp(j) has at
least l ones in S.  More columns in S only add hits, and s < t leaves
columns to add, so some S fails with j iff c_j <= s, where c_j is the
fewest columns other than j that give every row of supp(j) l hits: a
minimum multicover of w_j rows, the exact form of the counting behind the
certificate s * max_dot <= l * w - 1.  Two pair properties are the same
number at l = 1:

* cover-free (z, 1) holds iff every c_j > z: a Z that leaves {j} no
  private row is a cover of supp(j) by z columns other than j;
* m-code (s, 1) holds iff every c_j > 2s - 1: a failing (U, Z, j) makes
  (U - {j}) | Z a cover of at most 2s - 1 columns, and a cover of c
  columns, c <= 2s - 1, splits back into min(c, s - 1) columns for
  U - {j} and the rest, at most |U|, for Z.

`sic.verify` asks `exceeds` wherever `cheaper` finds that cheaper than
its scan, and scans only for the witness of a failure.  A weak column,
one with a row of its support that fewer than l other columns meet, is
settled by the one row sum of `weak` (c_j is infinite), so only the other
columns, the open ones, are priced and run.
"""

from __future__ import annotations

import numpy as np

# row scans the d-code scan runs in the time one open column of the DP takes
# beyond its gathers: about 95 us per column of example 1 as a plain array,
# whose full scan runs 3.3*10^10 row scans/s (2-vCPU VM)
COLUMN_COST = 3_000_000


def weak(bits: np.ndarray, l: int, columns: int) -> np.ndarray:
    """Which of the first `columns` columns have a row of their support
    that fewer than l other columns meet, which no set of columns other
    than j gives l hits (c_j infinite): one row sum."""
    light = bits.sum(axis=1, dtype=np.int64) <= l
    if not light.any():  # as on most random inputs: skip the gather
        return np.zeros(columns, dtype=bool)
    return bits[light, :columns].any(axis=0)


def cheaper(bits: np.ndarray, l: int, scans: int, weak_columns: np.ndarray,
            entries: int) -> bool:
    """Decide the columns that `weak_columns` leaves open by multicover rather
    than scan `scans` row scans?  Yes when the state table of each open
    column j, (l+1)^w_j entries for its weight w_j, holds at most
    `entries` (the scan's batch bound), and the DP's cost is below
    `scans`: at most t - 1 gathers of each table (a trace is taken at most
    as often as columns have it) plus COLUMN_COST per open column.  Weak
    columns cost nothing, and the fixed costs alone decide before the
    weights are read."""
    if (weak_columns.size - np.count_nonzero(weak_columns)) * COLUMN_COST >= scans:
        return False
    open_columns = np.flatnonzero(~weak_columns)
    weights = bits[:, open_columns].sum(axis=0)
    # capped, the power stays small and still exceeds `entries` where it would
    if (l + 1) ** min(int(weights.max(initial=0)), entries.bit_length()) > entries:
        return False
    states = int(np.power(l + 1, weights, dtype=np.int64).sum())
    return (bits.shape[1] - 1) * states + len(open_columns) * COLUMN_COST < scans


def exceeds(bits: np.ndarray, s: int, l: int, weak_columns: np.ndarray) -> bool:
    """Does each of the first len(weak_columns) columns j need more than s
    other columns to give every row of its support l hits (c_j > s)?

    A weak column (`weak`) has c_j infinite, and only the open ones run
    the DP; an empty support makes c_j 0."""
    return not any(_covered(bits[bits[:, j] != 0], j, l, s)
                   for j in np.flatnonzero(~weak_columns).tolist())


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
