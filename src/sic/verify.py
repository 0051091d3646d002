"""Exhaustive and certificate checkers for combinatorial code properties.

Every exhaustive checker enumerates candidate tuples in a fixed order and
reports the first counterexample it meets, so results (including
witnesses) are identical across runs:

* subsets are ordered lexicographically by their sorted column indices,
  e.g. (0,) < (0,1) < (0,1,2) < (0,2) < (1,);
* pairs of subsets are ordered by the outer subset first, then the inner;
* within a tuple, the distinguished element is scanned in ascending order.

All checkers share one enumeration, `sic.subsets.lex_batches`, which
yields the subsets of range(n) in this order as rows of index arrays built
with numpy copies, padding shorter subsets with -1 (a prefix still sorts
before its extensions).  Index -1 selects an all-zero column appended to
the matrix, so padding never counts as a hit.  Each checker tests a whole
batch with numpy and reports the first failing row.  A batch holds at
most about 4*10^6 row entries (rows times subset width times batch size;
for `check_d_code`, batch size times the larger of rows times width and
the column count).

`check_cover_free`, `check_m_code` and the threshold checkers run one
pair scan over rows packed into uint64 words (`sic.words`).  It compares
a block of outer sets with every inner set at once; for each set it has
its index row, its columns and its flagged rows as words, and m-code has
one outer row per slot j of U.  A block holds
PAIR_WORDS // (inner sets * W) outer rows, W = max(word_count(t),
word_count(N)), in whole sets (at least one).  The inner family (Z, or the threshold checkers' one
family, used in both roles) is stored; the outer blocks (U) are
enumerated as the scan reaches them, and the first block reads the inner
family batch by batch as it fills, so a first set that fails returns
before the rest is built.  Inner sets run over all columns in lex order;
a pair that does not apply (Z meets U, say) is not counted in
tuples_checked, which leaves the documented order.
`check_design` keeps one packed outcome key per candidate, b bits per row
(b = 1 for a threshold map), and finds the first repeated key by sorting
the keys so far after 1, 2, 4, ... batches.

Checkers take a 0/1 matrix, a BinaryCode or a 2-D array, and raise
ParameterOutOfRange on any other entry.  Before enumerating, each passes
its cost to one check, `_check_cost`, which raises BudgetExceeded when
the row scans exceed a budget (default 10^9), then when the bytes stored
exceed one cap, STORE_BYTES.  A row scan is one matrix row read for one
tuple: a pair scan costs outer rows * inner sets * N, every pair it
compares, whether or not the pair applies, and stores its inner family's
index rows and words; `check_d_code` costs its tuple count * N and
stores nothing; `check_design` costs its tuple count * N and stores its
keys plus their sort index, domain * (8W + 8) bytes.  Column indices in
reports are 0-based.

Symmetry.  `sic.symmetry.translates` finds the columns of a code built
by `sic`, its rows in any order, to be the translates of column 0 by an additive group, which
makes every column look alike.  Where it does, `coincidence` compares
column 0 with every other column, and `check_d_code` scans only the
s-subsets that contain column 0, the first comb(t-1, s-1) of the lex
order, with the same witness and tuples_checked, and a budget that counts
the scans that run.  Anything else, plain arrays included, takes the full
scan.

Multicover.  Let c_j be the fewest columns other than j that give every
row of supp(j) l hits (`sic.multicover`).  The (s, l) d-code property
holds iff every c_j > s; at l = 1, cover-free (z, 1) holds iff every
c_j > z, and m-code (s, 1) iff every c_j > 2s - 1, as a failing (U, Z, j)
is a cover (U - {j}) | Z of at most 2s - 1 columns and every such cover
splits back into a U and a Z.  These three checks first decide their
property by one small DP per column (column 0 alone on translates)
wherever that is cheaper than their scan: not up to
multicover.COLUMN_COST row scans, which leaves small inputs to the scan
before any bit is read; then COLUMN_COST and the table gathers for each
open column, while a weak column, one with a row of its support that
fewer than l other columns meet, costs nothing, as one row sum settles
it.  The DP returns the scan's satisfied report, byte for byte, and
leaves a failure to the scan, which finds the witness.  The budget and
the store cap compare the scan's charge before either runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from . import multicover
from .codes import BinaryCode, QaryCode
from .errors import (
    BudgetExceeded,
    NotConstantWeight,
    ParameterOutOfRange,
    TooFewColumns,
)
from .subsets import lex_batches, lex_count
from .symmetry import translates
from .words import first_repeat, overlap, pack, word_count

DEFAULT_BUDGET = 1_000_000_000
_MAX_BATCH = 16384          # subsets per batch
_BATCH_ENTRIES = 4_000_000  # row entries per batch: rows * width * subsets
_BLOCK_ENTRIES = _BATCH_ENTRIES // 2  # coincidence block columns * t (counter and scratch)
PAIR_WORDS = 8192           # words per block of the pair scans
STORE_BYTES = 2**30         # check_design's key store, or a pair scan's stored family


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


def _bits(X, binary: bool = True) -> np.ndarray:
    """The matrix of a BinaryCode as stored, or of a 2-D array as uint8.
    With `binary`, any entry outside {0, 1} raises ParameterOutOfRange; the
    entries are read before the cast, which would turn -1 into 255."""
    arr = X.bits if isinstance(X, BinaryCode) else np.asarray(X)
    if arr.ndim != 2:
        raise ParameterOutOfRange("binary code must be a 2-D matrix")
    if binary and not (arr.max(initial=0) <= 1 if arr.dtype.kind in "bu"
                       else ((arr == 0) | (arr == 1)).all()):
        raise ParameterOutOfRange("binary code entries must be 0 or 1")
    return arr if isinstance(X, BinaryCode) else arr.astype(np.uint8, copy=False)


def _batch_size(entries: int) -> int:
    """Subsets per batch when each costs `entries` row entries."""
    return max(1, min(_MAX_BATCH, _BATCH_ENTRIES // max(1, entries)))


def _columns(bits: np.ndarray) -> np.ndarray:
    """Columns of `bits` as rows, plus the all-zero row selected by -1."""
    cols = np.zeros((bits.shape[1] + 1, bits.shape[0]), dtype=np.uint8)
    cols[:-1] = bits.T
    return cols


def _hits(cols: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """(subsets, rows) count of each subset's columns that each row hits.
    The gather puts the short subset axis first, so the sum adds whole
    (subsets, rows) slices; summing over it in the middle is about twice
    as slow."""
    return cols[batch.T].sum(axis=0, dtype=np.int32)


def _subset(row) -> tuple:
    return tuple(int(c) for c in row if c >= 0)


def _check_cost(scans: int, budget: int | None, store: int = 0, what: str = "") -> None:
    """The one resource check of the exhaustive checkers: BudgetExceeded when
    a check's row scans exceed the budget (None: DEFAULT_BUDGET), then when
    the bytes it stores, named `what`, exceed STORE_BYTES."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if scans > limit:
        raise BudgetExceeded(f"{scans} row scans exceed budget {limit}")
    if store > STORE_BYTES:
        raise BudgetExceeded(f"{what} of {store} bytes exceeds {STORE_BYTES}")


def _check_pairs(outer: int, t: int, N: int, lo: int, hi: int, budget: int | None,
                 group: int = 1) -> tuple[int, int]:
    """Outer sets per block of a pair scan of `outer` outer sets, `group`
    rows each, against the stored family of the subsets of range(t) with
    sizes in [lo, hi]: PAIR_WORDS // (inner sets * W * group), at least
    one, W = max(word_count(t), word_count(N)); and the scan's charge.  The
    scan compares every outer row with every inner set, outer rows * inner
    sets * N row scans, and stores the family's index rows and words
    (`_check_cost`)."""
    inner = lex_count(t, lo, hi)
    scans = outer * group * inner * N
    _check_cost(scans, budget, inner * 8 * (hi + word_count(t) + word_count(N)), "pair family")
    return max(1, PAIR_WORDS // (inner * max(word_count(t), word_count(N)) * group)), scans


def _multicover_exceeds(X, bits: np.ndarray, s: int, l: int, scans: int,
                        columns: int | None = None) -> bool:
    """Does `sic.multicover` find every c_j > s, where that is cheaper than
    the scan's `scans` row scans?  False leaves the decision to the scan.
    Up to multicover.COLUMN_COST row scans the scan runs before any bit is
    read.  `columns` is 1 where `translates` accepts X and t otherwise; the
    pair checkers leave it to this check, which asks `translates` after
    that gate."""
    if scans <= multicover.COLUMN_COST:
        return False
    if columns is None:
        columns = bits.shape[1] if translates(X) is None else 1
    weak = multicover.weak(bits, l, columns)
    return (multicover.cheaper(bits, l, scans, weak, _BATCH_ENTRIES)
            and multicover.exceeds(bits, s, l, weak))


class _Sets(NamedTuple):
    """Sets of a family, from set number `start` on: their index rows, and
    their columns and `group` rows of row flags per set as packed words,
    one row of words each (one column in a stored family, for `overlap`)."""
    start: int
    sets: np.ndarray
    member: np.ndarray
    flags: np.ndarray


def _family(cols: np.ndarray, t: int, lo: int, hi: int, flags, size: int, group: int = 1):
    """The subsets of range(t) with sizes in [lo, hi] in lex order, as
    _Sets of at most `size` subsets each, with `group` rows of
    flags(hits, batch) per subset."""
    start = 0
    # a batch's gather is (batch, hi, N) and its column flags (batch, t + 1)
    for batch in lex_batches(t, lo, hi, min(size, _batch_size(max(cols.shape[1] * hi, t + 1)))):
        m = len(batch)
        inside = np.zeros((m, t + 1), dtype=bool)
        inside[np.arange(m)[:, None], batch] = True
        rows = flags(_hits(cols, batch), batch).reshape(m * group, -1)  # -1: N may be 0
        yield _Sets(start, batch, pack(inside[:, :t]), pack(rows))
        start += m


def _stored(cols: np.ndarray, t: int, lo: int, hi: int, flags):
    """The subsets of range(t) with sizes in [lo, hi] as one stored _Sets of
    np.empty arrays, one row of flags per subset, and a generator that
    fills it with the parts of `_family` and yields each part as a view."""
    n = lex_count(t, lo, hi)
    whole = _Sets(0, np.empty((n, hi), dtype=np.intp),
                  np.empty((word_count(t), n), dtype=np.uint64),
                  np.empty((word_count(cols.shape[1]), n), dtype=np.uint64))

    def fill():
        for part in _family(cols, t, lo, hi, flags, _MAX_BATCH):
            span = slice(part.start, part.start + len(part.sets))
            whole.sets[span] = part.sets
            whole.member[:, span] = part.member.T
            whole.flags[:, span] = part.flags.T
            yield _Sets(part.start, whole.sets[span], whole.member[:, span], whole.flags[:, span])

    return whole, fill()


def _pair_scan(outer, inner, applies, witness, group: int = 1) -> VerificationReport:
    """The report of the first bad pair of an outer row and an inner set:
    one that applies where no row flagged in the outer row is flagged in
    the inner set.

    `outer` yields the blocks of a family of _Sets, and `inner` is a stored
    family with its parts, as `_stored` returns them: the first block reads
    the parts as it needs them, the later ones the whole family.  Each
    outer set has `group` outer rows, and pairs run by outer set, then
    inner set, then row of the group.  applies(block, part) is the (rows,
    sets) bool of the pairs that count, and witness(outer set, row of its
    group, inner set) the witness of a bad pair.  tuples_checked counts the
    pairs that apply, up to the first bad one.
    """
    whole, parts = inner
    checked = 0
    for block in outer:
        oks, bads = [], []
        for part in parts:
            oks.append(applies(block, part))
            bads.append(oks[-1] & ~overlap(block.flags, part.flags))
            if bads[-1][:group].any():  # the block's first set fails, and its pairs come first
                break
        parts = [whole]
        ok, bad = np.concatenate(oks, axis=1), np.concatenate(bads, axis=1)
        if bad.any():
            g = int(np.argmax(bad.reshape(len(block.sets), -1).any(axis=1)))  # first failing set
            rows = slice(g * group, (g + 1) * group)
            j, slot = divmod(int(np.argmax(bad[rows].T)), group)  # by inner set, then row
            checked += int(np.count_nonzero(ok[:rows.start]) + np.count_nonzero(ok[rows, :j])
                           + np.count_nonzero(ok[rows.start:rows.start + slot + 1, j]))
            return VerificationReport(False, witness(block.sets[g], slot, whole.sets[j]), checked)
        checked += int(np.count_nonzero(ok))
    return VerificationReport(True, None, checked)


def check_cover_free(X, z: int, u: int, budget: int | None = None) -> VerificationReport:
    """Does every u-subset keep a private row against every disjoint z-subset?

    Satisfied iff for all disjoint (U, Z), |U| = u, |Z| = z, some row is 1
    on all of U and 0 on all of Z.

    At u = 1 the property is every c_j > z (`sic.multicover`), decided
    first where that is cheaper than the scan; a failure is left to the
    scan, which finds the witness.
    """
    bits = _bits(X)
    N, t = bits.shape
    if z < 1 or u < 1 or z + u > t:
        raise ParameterOutOfRange(f"need z, u >= 1 and z + u <= t, got {(z, u, t)}")
    size, scans = _check_pairs(comb(t, u), t, N, z, z, budget)
    if u == 1 and _multicover_exceeds(X, bits, z, 1, scans):
        return VerificationReport(True, None, t * comb(t - 1, z))
    cols = _columns(bits)
    U = _family(cols, t, u, u, lambda hits, batch: hits >= u, size)  # 1 on all of U
    Z = _stored(cols, t, z, z, lambda hits, batch: hits <= 0)  # 0 on all of Z
    return _pair_scan(U, Z, lambda U, Z: ~overlap(U.member, Z.member),
                      lambda U, j, Z: {"U": _subset(U), "Z": _subset(Z)})


def d_code_scans(t: int, s: int, N: int) -> int:
    return comb(t, s) * (t - s) * N


def check_d_code(X, s: int, l: int, budget: int | None = None) -> VerificationReport:
    """List-union cover check: satisfied iff for every s-subset S and every
    column j outside S some row has a 1 at j and at most l-1 ones inside S.

    When `translates` finds the columns to be translates of column 0, only
    the S that contain column 0 are scanned: every failing (S, j) has a
    translate with 0 in S, so the first failure among them is the lex-first
    one, with the same tuples_checked.  A satisfied report still counts the
    whole domain, comb(t, s) * (t - s); the budget counts the scans that
    run, comb(t-1, s-1) * (t - s) * N.

    Where it is cheaper than the scan, `sic.multicover` decides the
    property first (for column 0 alone on translates).  It returns the
    satisfied report itself and leaves a failure to the scan, which finds
    the witness.  The budget compares the scan's row scans on either path.
    """
    bits = _bits(X)
    N, t = bits.shape
    if not 1 <= l < s < t:
        raise ParameterOutOfRange(f"need 1 <= l < s < t, got {(l, s, t)}")
    # the S that contain column 0 come first in lex order, comb(t-1, s-1) of them
    columns = t if translates(X) is None else 1
    subsets = comb(t, s) if columns == t else comb(t - 1, s - 1)
    scans = subsets * (t - s) * N
    _check_cost(scans, budget)
    if _multicover_exceeds(X, bits, s, l, scans, columns):
        return VerificationReport(True, None, comb(t, s) * (t - s))
    cols = _columns(bits)
    float_bits = bits.astype(np.float32)
    offset = 0
    # a batch's coverage counts are (batch, t), its gather (batch, s, N)
    for batch in lex_batches(t, s, s, _batch_size(max(N * s, t))):
        batch = batch[:subsets - offset]
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
        if offset == subsets:
            break
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


def check_m_code(X, s: int, u: int, budget: int | None = None) -> VerificationReport:
    """Exact-hit check: for every disjoint (U, Z) with u <= |U| <= s and
    |Z| <= |U|, and every j in U, some row has a 1 at j, exactly u ones in
    U, and zeros on Z.

    At u = 1 the property is every c_j > 2s - 1 (`sic.multicover`),
    decided first where that is cheaper than the scan; a failure is left
    to the scan, which finds the witness.
    """
    bits = _bits(X)
    N, t = bits.shape
    if not (1 <= u < s and 2 * s < t):
        raise ParameterOutOfRange(f"need 1 <= u < s < t/2, got {(u, s, t)}")
    size, scans = _check_pairs(lex_count(t, u, s), t, N, 0, s, budget, group=s)
    if u == 1 and _multicover_exceeds(X, bits, 2 * s - 1, 1, scans):
        # (U, j) with |U| = k, and Z of at most k columns outside U
        return VerificationReport(True, None, sum(comb(t, k) * k * lex_count(t - k, 0, k)
                                                  for k in range(1, s + 1)))
    cols = _columns(bits)
    # outer row j of U: the rows with exactly u hits in U and a 1 at U[j]
    U = _family(cols, t, u, s, lambda hits, batch: cols[batch].view(bool) & (hits == u)[:, None],
                size, group=s)
    Z = _stored(cols, t, 0, s, lambda hits, batch: hits <= 0)

    def applies(U, Z):  # U and Z disjoint, |Z| <= |U|, and j in U
        size_U, size_Z = ((sets >= 0).sum(axis=1) for sets in (U.sets, Z.sets))
        pairs = ~overlap(U.member, Z.member) & (size_Z <= size_U[:, None])
        slots = np.arange(s) < size_U[:, None]
        return (slots[:, :, None] & pairs[:, None]).reshape(-1, len(Z.sets))

    return _pair_scan(U, Z, applies,
                      lambda U, j, Z: {"U": _subset(U), "Z": _subset(Z), "j": int(U[j])}, group=s)


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
    if mode not in ("at-most", "exactly"):
        raise ParameterOutOfRange(f"mode must be 'at-most' or 'exactly', got {mode!r}")
    lo = s if mode == "exactly" else F.l if F.is_threshold else 0
    domain = lex_count(t, lo, s)
    # outcome vectors are equal iff their vectors of label indices are
    index = {v: i for i, v in enumerate(sorted(set(F.values)))}
    width = (len(index) - 1).bit_length()  # bits of one label index
    label_bits = np.array([[index[v] >> b & 1 for b in range(width)] for v in F.values],
                          dtype=bool)  # (l + 1, width)
    words = word_count(N * width)
    _check_cost(domain * N, budget, domain * (8 * words + 8), "design key store")
    keys = np.empty((domain, words), dtype=np.uint64)
    cols = _columns(bits)
    size = _batch_size(N * s)
    n = 0
    for k, batch in enumerate(lex_batches(t, lo, s, size), 1):
        hits = _hits(cols, batch)
        if F.is_threshold:  # the one label bit is "reached l" or its negation
            outcomes = hits >= F.l
        else:
            outcomes = label_bits[np.minimum(hits, F.l)].reshape(len(batch), -1)
        keys[n:n + len(batch)] = pack(outcomes)
        n += len(batch)
        if k & (k - 1) == 0 or n == domain:  # after 1, 2, 4, ... batches and the last
            repeat = first_repeat(keys[:n])
            if repeat is not None:
                P, Pprime = (_nth_subset(t, lo, s, size, i) for i in repeat)
                return VerificationReport(False, {"P": P, "Pprime": Pprime}, repeat[1] + 1)
    return VerificationReport(True, None, domain)


def _nth_subset(t: int, lo: int, hi: int, size: int, n: int) -> tuple:
    """Subset number n of the enumeration of `check_design`."""
    for batch in lex_batches(t, lo, hi, size):
        if n < len(batch):
            return _subset(batch[n])
        n -= len(batch)


def _check_threshold_pairs(X, u: int, s: int, bar: bool, budget: int | None) -> VerificationReport:
    bits = _bits(X)
    N, t = bits.shape
    if not (1 <= u < s and 2 * s < t):
        raise ParameterOutOfRange(f"need 1 <= u < s < t/2, got {(u, s, t)}")
    size, _ = _check_pairs(lex_count(t, u, s), t, N, u, s, budget)
    # the stored flags are the rows that do not fire on a set (< u hits; the
    # <= kernel is the one the other checkers already map)
    family, parts = _stored(_columns(bits), t, u, s, lambda hits, batch: hits <= u - 1)
    for _ in parts:  # fill the family
        pass
    blocks = (_Sets(r, family.sets[r:r + size], family.member[:, r:r + size].T,
                    ~family.flags[:, r:r + size].T) for r in range(0, len(family.sets), size))
    if bar:
        outside = ~family.member

        def applies(P, Q):  # P is not a subset of Q
            return overlap(P.member, outside)
    else:
        sizes = (family.sets >= 0).sum(axis=1)

        def applies(P, Q):  # |Q| <= |P| and Q != P
            pairs = sizes[None, :] <= sizes[P.start:P.start + len(P.sets), None]
            pairs[np.arange(len(P.sets)), np.arange(P.start, P.start + len(P.sets))] = False
            return pairs

    # no row fires on P but not on Q
    return _pair_scan(blocks, (family, [family]), applies,
                      lambda P, j, Q: {"P": _subset(P), "Pprime": _subset(Q)})


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

    When `translates` finds the columns to be the translates of column 0
    (a QaryCode, or a BinaryCode with its weight stated whose rows are
    one-hot blocks in any order), two columns agree where their difference, a
    column minus column 0, is zero; so column 0 is compared with each other
    column, in O(n*t) after the check.  Otherwise each unordered pair of columns is counted once: a block of columns
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
    cols = code.symbols if qary else _bits(code, binary=False)
    n, t = cols.shape
    if t < 2:
        raise TooFewColumns("coincidence needs at least two columns")
    symbols = translates(code)
    if symbols is not None:
        return int((symbols[:, 1:] == symbols[:, :1]).sum(axis=0).max())
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
