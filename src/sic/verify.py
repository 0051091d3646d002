"""Exhaustive and certificate checkers for combinatorial code properties.

Every exhaustive checker enumerates candidate tuples in a fixed order and
reports the first counterexample it meets, so results (including
witnesses) are identical across runs:

* subsets are ordered lexicographically by their sorted column indices,
  e.g. (0,) < (0,1) < (0,1,2) < (0,2) < (1,);
* pairs of subsets are ordered by the outer subset first, then the inner;
* within a tuple, the distinguished element is scanned in ascending order.

All checkers share one enumeration, `sic.subsets.lex_batches`, which
yields the subsets in this order as rows of integer arrays built with
numpy copies, padding shorter subsets with -1 (a prefix still sorts
before its extensions).  Index -1 selects an all-zero column appended to
the matrix, so padding never counts as a hit.  Each checker tests a whole
batch with numpy and reports the first failing row.  A batch holds at
most about 4*10^6 row entries (rows times subset width times batch size;
for `check_d_code`, batch size times the larger of rows times width and
the column count).

Checkers refuse inputs whose enumeration would exceed a row-scan budget
(tuple count times matrix length, default 10^9) by raising BudgetExceeded
instead of running unbounded.  Column indices in reports are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .codes import BinaryCode, QaryCode
from .errors import (
    BudgetExceeded,
    NotConstantWeight,
    ParameterOutOfRange,
    TooFewColumns,
)
from .subsets import lex_batches

DEFAULT_BUDGET = 1_000_000_000
_MAX_BATCH = 16384          # subsets per batch
_BATCH_ENTRIES = 4_000_000  # row entries per batch: rows * width * subsets
_BLOCK_ENTRIES = _BATCH_ENTRIES // 2  # coincidence block columns * t (counter and scratch)


@dataclass(frozen=True)
class OutcomeFunction:
    """Saturating outcome map: intersection size n yields values[min(n, l)].

    values has l+1 entries and every non-saturated label must differ from
    the saturated one, values[n] != values[l] for n < l.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ParameterOutOfRange("outcome function needs a threshold l >= 1")
        last = self.values[-1]
        if any(v == last for v in self.values[:-1]):
            raise ParameterOutOfRange("non-saturated outcome equals the saturated one")

    @property
    def l(self) -> int:
        return len(self.values) - 1

    @property
    def is_threshold(self) -> bool:
        """All non-saturated labels coincide, i.e. only 'reached l' is visible."""
        return all(v == self.values[0] for v in self.values[:-1])

    @classmethod
    def threshold(cls, u: int) -> "OutcomeFunction":
        """Binary map: 0 below u hits, 1 at u or more."""
        if u < 1:
            raise ParameterOutOfRange("threshold must be >= 1")
        return cls(values=(0,) * u + (1,))

    @classmethod
    def saturating(cls, l: int) -> "OutcomeFunction":
        """Counts hits exactly up to l."""
        if l < 1:
            raise ParameterOutOfRange("saturation level must be >= 1")
        return cls(values=tuple(range(l + 1)))

    @classmethod
    def quantizer(cls, breaks: tuple[int, ...]) -> "OutcomeFunction":
        """Adder followed by a quantizer with range ends 0 < b_1 < ... < b_k."""
        if not breaks or any(b <= a for a, b in zip((0,) + tuple(breaks), breaks)):
            raise ParameterOutOfRange("breaks must be strictly increasing positive ints")
        values = [0]
        for n in range(1, breaks[-1] + 1):
            values.append(next(i + 1 for i, b in enumerate(breaks) if n <= b))
        return cls(values=tuple(values))

    def __call__(self, n: int) -> int:
        return self.values[min(n, self.l)]


@dataclass(frozen=True)
class VerificationReport:
    satisfied: bool
    witness: dict | None
    tuples_checked: int


def _bits(X) -> np.ndarray:
    if isinstance(X, BinaryCode):
        return X.bits
    arr = np.asarray(X, dtype=np.uint8)
    if arr.ndim != 2:
        raise ParameterOutOfRange("binary code must be a 2-D matrix")
    return arr


def _batch_size(entries: int) -> int:
    """Subsets per batch when each costs `entries` row entries."""
    return max(1, min(_MAX_BATCH, _BATCH_ENTRIES // max(1, entries)))


def _columns(bits: np.ndarray) -> np.ndarray:
    """Columns of `bits` as rows, plus the all-zero row selected by -1."""
    cols = np.zeros((bits.shape[1] + 1, bits.shape[0]), dtype=np.uint8)
    cols[:-1] = bits.T
    return cols


def _hits(cols: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """(subsets, rows) count of each subset's columns that each row hits."""
    return cols[batch].sum(axis=1, dtype=np.int32)


def _subset(row) -> tuple:
    return tuple(int(c) for c in row if c >= 0)


def _check_budget(scans: int, budget: int | None) -> int:
    limit = DEFAULT_BUDGET if budget is None else budget
    if scans > limit:
        raise BudgetExceeded(f"{scans} row scans exceed budget {limit}")
    return limit


def cover_free_scans(t: int, z: int, u: int, N: int) -> int:
    return comb(t, u) * comb(t - u, z) * N


def check_cover_free(X, z: int, u: int, budget: int | None = None) -> VerificationReport:
    """Does every u-subset keep a private row against every disjoint z-subset?

    Satisfied iff for all disjoint (U, Z), |U| = u, |Z| = z, some row is 1
    on all of U and 0 on all of Z.
    """
    bits = _bits(X)
    N, t = bits.shape
    if z < 1 or u < 1 or z + u > t:
        raise ParameterOutOfRange(f"need z, u >= 1 and z + u <= t, got {(z, u, t)}")
    _check_budget(cover_free_scans(t, z, u, N), budget)
    cols = _columns(bits)
    checked = 0
    for U in combinations(range(t), u):
        rows = cols[:, cols[list(U)].all(axis=0)]  # the rows that are 1 on all of U
        rest = [c for c in range(t) if c not in U]
        for batch in lex_batches(rest, z, z, _batch_size(rows.shape[1] * z)):
            blocked = rows[batch].any(axis=1).all(axis=1)
            if blocked.any():
                r = int(np.argmax(blocked))
                return VerificationReport(False, {"U": U, "Z": _subset(batch[r])}, checked + r + 1)
            checked += len(batch)
    return VerificationReport(True, None, checked)


def d_code_scans(t: int, s: int, N: int) -> int:
    return comb(t, s) * (t - s) * N


def check_d_code(X, s: int, l: int, budget: int | None = None) -> VerificationReport:
    """List-union cover check: satisfied iff for every s-subset S and every
    column j outside S some row has a 1 at j and at most l-1 ones inside S.
    """
    bits = _bits(X)
    N, t = bits.shape
    if not 1 <= l < s < t:
        raise ParameterOutOfRange(f"need 1 <= l < s < t, got {(l, s, t)}")
    _check_budget(d_code_scans(t, s, N), budget)
    cols = _columns(bits)
    float_bits = bits.astype(np.float32)
    offset = 0
    # a batch's coverage counts are (batch, t), its gather (batch, s, N)
    for batch in lex_batches(range(t), s, s, _batch_size(max(N * s, t))):
        qualifying = (_hits(cols, batch) <= l - 1).astype(np.float32)  # rows usable per S
        covered = qualifying @ float_bits                       # (batch, t) counts
        np.put_along_axis(covered, batch, 1.0, axis=1)          # members of S exempt
        bad = covered < 0.5
        if bad.any():
            r = int(np.flatnonzero(bad.any(axis=1))[0])
            j = int(np.flatnonzero(bad[r])[0])
            within = j + 1 - int((batch[r] < j).sum())
            checked = (offset + r) * (t - s) + within
            return VerificationReport(False, {"S": _subset(batch[r]), "j": j}, checked)
        offset += len(batch)
    return VerificationReport(True, None, comb(t, s) * (t - s))


def check_d_certificate(X, s: int, l: int) -> bool:
    """Sufficient condition from constant weight w and max dot product:
    certified iff s * max_dot <= l * w - 1.  False means "not certified".
    """
    bits = _bits(X)
    if not 1 <= l < s:
        raise ParameterOutOfRange(f"need 1 <= l < s, got {(l, s)}")
    weights = bits.sum(axis=0)
    w = int(weights[0]) if weights.size else 0
    if not (weights == w).all():
        bad = int(np.flatnonzero(weights != w)[0])
        raise NotConstantWeight(f"column {bad} has weight {int(weights[bad])}, expected {w}")
    lam = coincidence(BinaryCode(bits=bits, weight=w))
    return s * lam <= l * w - 1


def m_code_scans(t: int, s: int, u: int, N: int) -> int:
    total = 0
    for a in range(u, s + 1):
        inner = sum(comb(t - a, b) for b in range(0, a + 1))
        total += comb(t, a) * inner * a
    return total * N


def check_m_code(X, s: int, u: int, budget: int | None = None) -> VerificationReport:
    """Exact-hit check: for every disjoint (U, Z) with u <= |U| <= s and
    |Z| <= |U|, and every j in U, some row has a 1 at j, exactly u ones in
    U, and zeros on Z.
    """
    bits = _bits(X)
    N, t = bits.shape
    if not (1 <= u < s and 2 * s < t):
        raise ParameterOutOfRange(f"need 1 <= u < s < t/2, got {(u, s, t)}")
    _check_budget(m_code_scans(t, s, u, N), budget)
    cols = _columns(bits)
    checked = 0
    outer = lex_batches(range(t), u, s, _batch_size(s))
    for U in (_subset(row) for block in outer for row in block.tolist()):
        rows = cols[:, cols[list(U)].sum(axis=0) == u]  # the rows with exactly u hits in U
        at_j = rows[list(U)].T.astype(bool)              # (rows, |U|): row is 1 at j
        rest = [c for c in range(t) if c not in U]
        for batch in lex_batches(rest, 0, len(U), _batch_size(rows.shape[1] * len(U))):
            avoid = ~rows[batch].any(axis=1)                              # (batch, rows): 0 on Z
            bad = np.flatnonzero(~(avoid[:, :, None] & at_j).any(axis=1))  # over (Z, j) pairs
            if bad.size:
                r, pos = divmod(int(bad[0]), len(U))
                witness = {"U": U, "Z": _subset(batch[r]), "j": U[pos]}
                return VerificationReport(False, witness, checked + int(bad[0]) + 1)
            checked += batch.size
    return VerificationReport(True, None, checked)


def design_domain_sizes(F: OutcomeFunction, s: int, mode: str) -> tuple[int, int]:
    if mode == "exactly":
        return s, s
    if mode == "at-most":
        return (F.l if F.is_threshold else 0), s
    raise ParameterOutOfRange(f"mode must be 'at-most' or 'exactly', got {mode!r}")


def design_scans(t: int, F: OutcomeFunction, s: int, mode: str, N: int) -> int:
    lo, hi = design_domain_sizes(F, s, mode)
    return sum(comb(t, i) for i in range(lo, hi + 1)) * N


def check_design(X, F: OutcomeFunction, s: int, mode: str = "at-most",
                 budget: int | None = None) -> VerificationReport:
    """Are the outcome vectors of all candidate subsets pairwise distinct?

    Candidates are subsets of size <= s ('at-most') or == s ('exactly');
    for a threshold outcome map the at-most domain drops sets smaller than
    the threshold.  The witness is the first pair of candidates, in
    lexicographic enumeration order, sharing an outcome vector.
    """
    bits = _bits(X)
    N, t = bits.shape
    if not 1 <= F.l <= s < t:
        raise ParameterOutOfRange(f"need 1 <= l <= s < t, got l={F.l}, s={s}, t={t}")
    _check_budget(design_scans(t, F, s, mode, N), budget)
    lo, hi = design_domain_sizes(F, s, mode)
    # outcome vectors are equal iff their vectors of label indices are
    labels = np.unique(F.values, return_inverse=True)[1].astype(np.min_scalar_type(F.l))
    cols = _columns(bits)
    seen: dict[bytes, int] = {}  # outcome key -> enumeration index of its first subset
    size = _batch_size(N * hi)
    for batch in lex_batches(range(t), lo, hi, size):
        outcomes = labels[np.minimum(_hits(cols, batch), F.l)]
        for r, key in enumerate(map(bytes, outcomes)):
            n = len(seen)
            prev = seen.setdefault(key, n)
            if prev != n:
                for block in lex_batches(range(t), lo, hi, size):  # to subset number prev
                    if prev < len(block):
                        break
                    prev -= len(block)
                return VerificationReport(False, {"P": _subset(block[prev]),
                                                  "Pprime": _subset(batch[r])}, n + 1)
    return VerificationReport(True, None, len(seen))


def _check_threshold_pairs(X, u: int, s: int, bar: bool, budget: int | None) -> VerificationReport:
    bits = _bits(X)
    N, t = bits.shape
    if not (1 <= u < s and 2 * s < t):
        raise ParameterOutOfRange(f"need 1 <= u < s < t/2, got {(u, s, t)}")
    n_sets = sum(comb(t, i) for i in range(u, s + 1))
    _check_budget(n_sets * (n_sets - 1) * N, budget)
    cols = _columns(bits)
    batches = list(lex_batches(range(t), u, s, _batch_size(N * s)))
    sets = np.concatenate(batches)
    # bit-packed rows: fire[i] marks the rows with >= u hits in set i
    fire = np.concatenate([np.packbits(_hits(cols, b) >= u, axis=1) for b in batches])
    silent = ~fire
    if bar:
        member = np.zeros((n_sets, t + 1), dtype=bool)
        np.put_along_axis(member, sets, True, axis=1)
        member = np.packbits(member[:, :t], axis=1)
        outside = ~member
    else:
        sizes = (sets >= 0).sum(axis=1)
    checked = 0
    for i in range(n_sets):
        if bar:
            applies = (member[i] & outside).any(axis=1)  # P is not a subset of P'
        else:
            applies = sizes <= sizes[i]
        applies[i] = False
        bad = applies & ~(fire[i] & silent).any(axis=1)  # no row fires on P but not on P'
        if bad.any():
            j = int(np.argmax(bad))
            witness = {"P": _subset(sets[i]), "Pprime": _subset(sets[j])}
            return VerificationReport(False, witness, checked + int(applies[:j + 1].sum()))
        checked += int(applies.sum())
    return VerificationReport(True, None, checked)


def check_threshold_design(X, u: int, s: int, budget: int | None = None) -> VerificationReport:
    """For every ordered pair P != P' of candidate sets with sizes in
    [u, s] and |P| >= |P'|, some row fires on P (>= u hits) but not on P'.
    Equal-size pairs are checked in both orientations.
    """
    return _check_threshold_pairs(X, u, s, bar=False, budget=budget)


def check_threshold_bar_design(X, u: int, s: int, budget: int | None = None) -> VerificationReport:
    """Variant quantified over every ordered pair with P not a subset of P'
    (sizes in [u, s]), again requiring a row firing on P but not on P'.
    """
    return _check_threshold_pairs(X, u, s, bar=True, budget=budget)


def coincidence(code) -> int:
    """Maximum pairwise column statistic: dot product for binary codes,
    agreement-position count for q-ary codes.

    Each unordered pair of columns is counted once: a block of columns
    [a, a+B) is compared with the columns [a, t), and the pairs on or below
    the block's diagonal are dropped.  A q-ary code counts agreements row by
    row into one reused counter of the smallest unsigned type that holds n
    (uint8 below n = 256, else uint16).  A binary code takes each block's
    Gram matrix as one float32 BLAS product, from a float32 copy of the
    matrix.  The product is exact because every partial sum is an integer
    at most N * (max |entry|)^2; where that bound exceeds 2^24 the copy is
    float64.  B = 2*10^6 // t columns (at least 1), so a block's counter
    plus its boolean scratch hold at most 4*10^6 entries, and a Gram block
    2*10^6.
    """
    qary = isinstance(code, QaryCode)
    cols = code.symbols if qary else _bits(code)
    n, t = cols.shape
    if t < 2:
        raise TooFewColumns("coincidence needs at least two columns")
    block = max(1, min(t, _BLOCK_ENTRIES // t))
    if qary:
        counts = np.empty(block * t, dtype=np.min_scalar_type(n))
        same = np.empty(block * t, dtype=bool)
    else:
        peak = max(int(cols.max(initial=0)), -int(cols.min(initial=0)))
        cols = cols.astype(np.float32 if n * peak ** 2 <= 2 ** 24 else np.float64)
    lower = np.tri(block, dtype=bool)  # a block's self-pairs and repeats
    best = 0
    for a in range(0, t - 1, block):
        b, w = min(block, t - a), t - a
        if qary:
            pair_stat = counts[:b * w].reshape(b, w)
            pair_stat.fill(0)
            eq = same[:b * w].reshape(b, w)
            for row in cols:
                np.equal(row[a:a + b, None], row[None, a:], out=eq)
                pair_stat += eq.view(np.uint8)  # an integer add, not a cast from bool
        else:
            pair_stat = cols[:, a:a + b].T @ cols[:, a:]
        pair_stat[:, :b][lower[:b, :b]] = 0
        best = max(best, int(pair_stat.max()))
    return best
