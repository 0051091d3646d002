"""Minimum multicover: the d-code property decided per column, and the
cover-free (z, 1), m-code (s, 1), threshold (1, s) and threshold-bar
(1, s) properties with it, and the 0/1 design in one direction.

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
  U - {j} and the rest, at most |U|, for Z;
* threshold (1, s) and threshold-bar (1, s) hold iff every c_j > s: a row
  fires on a set iff it meets one of its columns, so (P, P') fails iff
  the supports of P lie inside those of P', and a column j of P outside
  P' is covered by at most s others; conversely a cover C of supp(j),
  |C| <= s, fails with P = {j} | C - {x} against P' = C (threshold) and
  with P = {j} against P' = C (threshold-bar), and an empty column with
  P = {j} against any other singleton;
* the design with a 0/1 map (l = 1) holds where every c_j > s, as two
  candidates differ in a column j whose support the other one leaves
  partly unmet (s-disjunct codes are s-separable; Kautz and Singleton,
  IEEE Trans. Inf. Theory 1964).  The converse is false, so a design
  with some c_j <= s is left to its scan.

`proves` is the one decision: every checker of `sic.verify` that can
decide by c_j calls it once, before it enumerates anything, and scans
only where it returns False, for the witness of a failure.  It runs
`exceeds` wherever `cheaper` finds that cheaper than the checker's scan.
A weak column, one with a row of its support that fewer than l other
columns meet, is settled by the one row sum of `weak` (c_j is infinite),
so only the other columns, the open ones, are priced and run.  Every
price is here, in row scans of the d-code scan: `COLUMN_COST` and
`STATE_COST` for the DP, and `DESIGN_SCAN_COST` for a row scan of the
design's key scan.
"""

from __future__ import annotations

import numpy as np

from .symmetry import translates

# row scans the d-code scan runs in the time one open column of the DP takes
# beyond its gathers: about 95 us per column of example 1 as a plain array,
# whose full scan ran 3.3*10^10 row scans/s when this was set (2-vCPU
# AMD EPYC VM).  Re-measured on a 2-vCPU Intel Xeon VM (best of 7), that
# scan runs 1.2-1.3*10^10 row scans/s at (3, 2) and the DP takes 144-158 us
# a column, gathers included: about 1.9*10^6 row scans.  The value is kept,
# so that no check changes path
COLUMN_COST = 3_000_000
# row scans the d-code scan runs in the time the DP updates one state of a
# column's table: 1.1-6.4 ns per update, 35-210 row scans at the scan's
# 3.3*10^10/s, on column 0 of example 3 at (10, 3) and (6, 2) and of random
# 300-column matrices of weight 7-14 at l = 1-3 (best of 5, 2-vCPU AMD EPYC
# VM); at the 2.0-2.1*10^10/s measured on the Intel Xeon VM the same times
# are 22-134 row scans
STATE_COST = 100
# row scans of the d-code scan in the time of one row scan of check_design's
# key scan.  Set at 70 from 4.0*10^8 key-scan row scans/s on the 64 x 64
# permuted identity at s = 3 against 3.1-3.3*10^10 for the d-code scan on
# the 80 x 80 one at (3, 1) (best of 7, 2-vCPU AMD EPYC VM); re-measured on
# a 2-vCPU Intel Xeon VM (best of 7), 4.8*10^8 against 2.0-2.1*10^10, a
# ratio of 42-44.  Kept at 70, so that no check changes path; design's own
# gate is COLUMN_COST // 70
DESIGN_SCAN_COST = 70


def proves(X, bits: np.ndarray, s: int, l: int, charge: int, entries: int,
           columns: int | None = None) -> bool:
    """Does every c_j exceed s, found where that is cheaper than a scan of
    `charge` row scans of the d-code scan?  False leaves the decision to
    the scan.  Up to COLUMN_COST row scans the scan runs before any bit is
    read.  `entries` bounds each open column's table (`cheaper`).
    `columns` is 1 where `translates` accepts X and t otherwise; left out,
    it is found after that gate."""
    if charge <= COLUMN_COST:
        return False
    if columns is None:
        columns = bits.shape[1] if translates(X) is None else 1
    weak_columns = weak(bits, l, columns)
    return cheaper(bits, l, charge, weak_columns, entries) and exceeds(bits, s, l, weak_columns)


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
    as often as columns have it), STATE_COST per entry, plus COLUMN_COST
    per open column.  Weak columns cost nothing, and the fixed costs alone
    decide before the weights are read."""
    if (weak_columns.size - np.count_nonzero(weak_columns)) * COLUMN_COST >= scans:
        return False
    open_columns = np.flatnonzero(~weak_columns)
    weights = bits[:, open_columns].sum(axis=0)
    # capped, the power stays small and still exceeds `entries` where it would
    if (l + 1) ** min(int(weights.max(initial=0)), entries.bit_length()) > entries:
        return False
    states = int(np.power(l + 1, weights, dtype=np.int64).sum())
    return (bits.shape[1] - 1) * states * STATE_COST + len(open_columns) * COLUMN_COST < scans


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
