"""Exhaustive and certificate checkers for combinatorial code properties.

Every exhaustive checker enumerates candidate tuples in a fixed order and
reports the first counterexample it meets, so results (including
witnesses) are identical across runs:

* subsets are ordered lexicographically by their sorted column indices,
  e.g. (0,) < (0,1) < (0,1,2) < (0,2) < (1,);
* pairs of subsets are ordered by the outer subset first, then the inner;
* within a tuple, the distinguished element is scanned in ascending order.

All checkers share one enumeration, `_batches`, over
`sic.subsets.lex_batches`, which yields the subsets of range(n) in this
order as rows of index arrays built with numpy copies, padding shorter
subsets with -1 (a prefix still sorts before its extensions).  Every set
a checker handles is one type, `_Sets`: a batch is the number of its
first set in the family and its index rows, and the pair scans describe
the runs they read (`_described`: each set's columns as words and its
size) and add their row flags, so the other checks never build those.
Each checker tests a whole batch with numpy and reports the first
failing row, numbered from the batch's start.  A batch holds at most
16384 subsets, and at most 4*10^6 // (rows * subset width) of them; the
pair scans' families divide by t + 1 and `check_d_code` by t instead
where that is larger, which bounds d-code's (batch, t) coverage counts
too.  A family that fits in one batch and in _MAX_BATCH entries (index
rows, column words and sizes) is built once, described, and kept,
read-only: the last 8 such families, at most 1 MiB together.  A pair
scan stores a kept family as it is, with one fresh array for its row
flags, and reads the pairs that apply in each block against the whole
inner family from `_mask`, which keeps them by rule, families and block,
read-only: the last 64 masks of at most 8 KiB, 512 KiB together.  So a
run of checks on many small matrices builds each family and each mask
once and computes only its matrix's flags.

Every checker reads a subset's rows through one kernel on packed uint64
words, `sic.words.at_least`: the matrix's columns are packed as
`sic.words.pack` packs rows, plus an all-zero column that index -1
selects, so padding never counts as a hit.  For a batch it gathers each
slot's column words, (width, batch, W) with W = word_count(N), and builds
the planes "at least i hits", i = 0..k, by OR and AND; every flag a
checker reads is an AND, OR or XOR of them and of column words, the same
words `pack` makes of the flags.

`check_cover_free`, `check_m_code` and the threshold checkers run one
pair scan over rows packed into uint64 words (`sic.words`).  It compares
a block of outer sets with every inner set at once; for each set it has
its index row, its columns (the kernel run on the identity's words) and
its flagged rows as words, and m-code has one outer row per slot j of U.
A block holds PAIR_WORDS // (inner sets * W) outer rows, W =
max(word_count(t), word_count(N)), in whole sets (at least one).  The
inner family (Z, or the threshold checkers' one family, used in both
roles) is stored; the outer family (U) is built as the scan reaches it,
in runs of one block, then two, four, ... (at most a batch), and the
first block reads the inner family batch by batch as it fills, so a
first set that fails returns before the rest of either is built (the
threshold checkers fill only the batches that hold their first block
before it).  Inner sets run over all columns in lex order;
a pair that does not apply (Z meets U, say) is not counted in
tuples_checked, which leaves the documented order.
`check_design` keeps one packed outcome key per candidate, b bits per row
(b = 1 for a threshold map: the plane "at least l hits"; otherwise bit c
of each row's label index, an XOR of planes, interleaved by
`sic.words.interleave`), and finds the first repeated key by sorting the
keys so far after 1, 2, 4, ... batches.  `check_d_code` unpacks the rows
that S leaves usable to float32 for one BLAS product per batch.

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
c_j > z, m-code (s, 1) iff every c_j > 2s - 1, and threshold (1, s) and
threshold-bar (1, s) iff every c_j > s; a design with a 0/1 map (l = 1)
holds where every c_j > s, but not only there.  Each of these checks
calls `multicover.proves` once, after its cost check and before it
enumerates anything.  That decides by one small DP per column (column 0
alone on translates) wherever it is cheaper than the scan: not up to
multicover.COLUMN_COST row scans of the d-code scan, which leaves small
inputs to the scan before any bit is read; then COLUMN_COST and
STATE_COST per table entry for each open column, while a weak column,
one with a row of its support that fewer than l other columns meet,
costs nothing, as one row sum settles it.  The design's key scan counts
multicover.DESIGN_SCAN_COST of those row scans per row scan.  The DP
returns the scan's satisfied report, byte for byte, and leaves a failure
to the scan, which finds the witness.  The budget and the store cap
compare the scan's charge before either runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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
from .words import at_least, first_repeat, identity, interleave, overlap, pack_columns, word_count

DEFAULT_BUDGET = 1_000_000_000
_MAX_BATCH = 16384          # subsets per batch
_BATCH_ENTRIES = 4_000_000  # row entries per batch: rows * width * subsets
_MASK_BYTES = 8192          # largest mask `_mask` keeps (a full block of one-word rows)
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


def _below(cols: np.ndarray, batch: np.ndarray, k: int, N: int) -> np.ndarray:
    """(subsets, W) words of the N rows that fewer than k of each subset's
    columns hit (`words.at_least`)."""
    planes = at_least(cols, batch, k, N)
    return planes[0] ^ planes[k]


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
    (`_check_cost`), besides each set's size, one byte where hi < 256."""
    inner = lex_count(t, lo, hi)
    scans = outer * group * inner * N
    _check_cost(scans, budget, inner * 8 * (hi + word_count(t) + word_count(N)), "pair family")
    return max(1, PAIR_WORDS // (inner * max(word_count(t), word_count(N)) * group)), scans


class _Sets(NamedTuple):
    """Sets of a family, numbered from `start` on: their index rows, padded
    with -1, and, once described, their columns as words (`at_least` on
    the identity's words) and their sizes; in a pair scan also their row
    flags as words.  Each array has one row per set (m-code's flags one
    row per slot of U, too); a stored family's words are the transposed
    views `_stored` gives them."""
    start: int
    sets: np.ndarray
    member: np.ndarray | None = None
    flags: np.ndarray | None = None
    sizes: np.ndarray | None = None

    def cut(self, a: int, b: int) -> "_Sets":
        """Sets a to b of these (rows a:b of each array), numbered on."""
        return _Sets(self.start + a, self.sets[a:b],  # written out: faster than a loop
                     None if self.member is None else self.member[a:b],
                     None if self.flags is None else self.flags[a:b],
                     None if self.sizes is None else self.sizes[a:b])


def _described(t: int, part: _Sets) -> _Sets:
    """`part` with each set's columns as words and its size, unless it has
    them already."""
    if part.member is not None:
        return part
    sizes = np.zeros(len(part.sets), dtype=np.min_scalar_type(part.sets.shape[1]))
    for column in part.sets.T:  # by column: faster than a sum along rows of a few entries
        sizes += column >= 0
    return part._replace(member=at_least(identity(t), part.sets, 1, t)[1], sizes=sizes)


@lru_cache(maxsize=8)
def _whole(t: int, lo: int, hi: int) -> _Sets:
    """The subsets of range(t) with sizes in [lo, hi] as one described
    _Sets, its member words the transposed view of (W, sets) words, as a
    stored family's are; cached, so read-only."""
    whole = _described(t, _Sets(0, next(lex_batches(t, lo, hi, lex_count(t, lo, hi)))))
    whole = whole._replace(member=np.ascontiguousarray(whole.member.T).T)
    for array in (whole.sets, whole.member, whole.sizes):
        array.setflags(write=False)
    return whole


def _kept(t: int, lo: int, hi: int, size: int) -> bool:
    """Does `_batches` keep this family at `size` subsets per batch?"""
    n = lex_count(t, lo, hi)
    return n <= size and n * (hi + word_count(t) + 1) <= _MAX_BATCH


def _batches(t: int, lo: int, hi: int, size: int):
    """The subsets of range(t) with sizes in [lo, hi] in lex order, as
    numbered _Sets of at most `size` subsets each (`lex_batches`).  This
    is the checkers' one enumeration.

    A family that fits in one batch, and whose index rows, member words
    and sizes take at most _MAX_BATCH entries, is built once, described,
    and kept read-only: the last 8 such families, at most 8 * 8 *
    _MAX_BATCH bytes (1 MiB) together.  Any other family is built afresh,
    batch by batch, as index rows alone."""
    if _kept(t, lo, hi, size):
        yield _whole(t, lo, hi)
        return
    # every batch but the last is full, so batch k starts at set k * size
    for start, sets in zip(range(0, lex_count(t, lo, hi), size), lex_batches(t, lo, hi, size)):
        yield _Sets(start, sets)


def _flag_batch(N: int, t: int, hi: int) -> int:
    """Subsets per batch of a family whose row flags a pair scan builds."""
    return _batch_size(max(N * hi, t + 1))


def _family(N: int, t: int, lo: int, hi: int, flags, size: int):
    """The subsets of range(t) with sizes in [lo, hi] in lex order, as
    described _Sets of at most `size` subsets each, with flags(sets), words
    of N flags, for their row flags.  The words are built for runs of one
    block, then two, four, ... (at most a batch), and cut into blocks of
    `size`: few kernel calls on a long scan, and little work past an early
    failure."""
    run = size
    for batch in _batches(t, lo, hi, _flag_batch(N, t, hi)):
        a = 0
        while a < len(batch.sets):
            part = _described(t, batch.cut(a, a + run))
            part = part._replace(flags=flags(part.sets))
            for b in range(0, len(part.sets), size):
                yield part.cut(b, b + size)
            a += len(part.sets)
            run *= 2


def _stored(N: int, t: int, lo: int, hi: int, flags):
    """The subsets of range(t) with sizes in [lo, hi] as one stored _Sets,
    and a generator that fills it and yields each part it filled as a cut.
    Its words are the columns of (W, sets) arrays, viewed transposed, so
    that a part's member.T and flags.T are the (W, sets) words `overlap`
    reads.  A family `_batches` keeps is stored as the kept _Sets with a
    fresh array for its flags, which the generator fills in one part; any
    other is stored in np.empty arrays, filled with the parts of
    `_family`."""
    n = lex_count(t, lo, hi)
    if _kept(t, lo, hi, _flag_batch(N, t, hi)):
        whole = _whole(t, lo, hi)._replace(flags=np.empty((word_count(N), n), dtype=np.uint64).T)

        def flag():
            whole.flags[...] = flags(whole.sets)
            yield whole

        return whole, flag()
    whole = _Sets(0, np.empty((n, hi), dtype=np.intp),
                  np.empty((word_count(t), n), dtype=np.uint64).T,
                  np.empty((word_count(N), n), dtype=np.uint64).T,
                  np.empty(n, dtype=np.min_scalar_type(hi)))

    def fill():
        for part in _family(N, t, lo, hi, flags, _MAX_BATCH):
            view = whole.cut(part.start, part.start + len(part.sets))
            for stored, built in zip(view[1:], part[1:]):  # index rows, words and sizes
                stored[...] = built
            yield view

    return whole, fill()


_MASKS: dict = {}  # `_mask`'s masks and counts by key, the least recently used first


def _mask(key: tuple, block: _Sets, whole: _Sets) -> tuple[np.ndarray, int]:
    """applies(block, whole), and the number of its pairs that apply, for
    key = (applies, t, outer, inner, group, start, length): the block is
    sets start to start + length of the family `outer`, `group` rows each,
    and `whole` the family `inner` ((lo, hi) sizes of subsets of range(t)
    each).  The key names both, and a rule's mask depends on nothing else,
    so each mask is computed once and kept in _MASKS, read-only: pair scans
    ask only for masks of at most _MASK_BYTES bytes, and the last 64 are
    kept, at most 64 * _MASK_BYTES bytes (512 KiB) together."""
    mask = _MASKS.pop(key, None)  # reinserted below, as the most recently used
    if mask is None:
        pairs = key[0](block, whole)
        pairs.setflags(write=False)
        mask = pairs, int(np.count_nonzero(pairs))
    _MASKS[key] = mask
    if len(_MASKS) > 64:
        del _MASKS[next(iter(_MASKS))]
    return mask


def _pair_scan(outer, inner, applies, witness, families: tuple,
               group: int = 1) -> VerificationReport:
    """The report of the first bad pair of an outer row and an inner set:
    one that applies where no row flagged in the outer row is flagged in
    the inner set.

    `outer` yields the blocks of a family of _Sets, and `inner` is a stored
    family with its parts, as `_stored` returns them: the first block reads
    the parts as it needs them, the later ones the whole family.  Each
    outer set has `group` outer rows, and pairs run by outer set, then
    inner set, then row of the group.  applies(block, part) is the (rows,
    sets) bool of the pairs that count, read from `_mask` where the part is
    the whole family, with `families` = (t, outer, inner) naming the two
    families by their (lo, hi) sizes; witness(outer set, row of its group,
    inner set) is the witness of a bad pair.  tuples_checked counts the
    pairs that apply, up to the first bad one.
    """
    whole, parts = inner
    checked = 0
    for block in outer:
        flags = block.flags.reshape(-1, block.flags.shape[-1])  # m-code's (sets, s, W) flattened
        oks, bads = [], []
        for part in parts:
            if part is whole and len(block.sets) * group * len(whole.sets) <= _MASK_BYTES:
                oks.append(_mask((applies, *families, group, block.start, len(block.sets)),
                                 block, whole))
            else:
                oks.append((applies(block, part), None))  # counted where needed
            bads.append(oks[-1][0] & ~overlap(flags, part.flags.T))
            if bads[-1][:group].any():  # the block's first set fails, and its pairs come first
                break
        parts = [whole]
        (ok, count), bad = ((oks[0], bads[0]) if len(oks) == 1  # one part needs no copy
                            else ((np.concatenate([o for o, _ in oks], axis=1), None),
                                  np.concatenate(bads, axis=1)))
        if bad.any():
            g = int(np.argmax(bad)) // (group * bad.shape[1])  # first failing set
            rows = slice(g * group, (g + 1) * group)
            j, slot = divmod(int(np.argmax(bad[rows].T)), group)  # by inner set, then row
            checked += int(np.count_nonzero(ok[:rows.start]) + np.count_nonzero(ok[rows, :j])
                           + np.count_nonzero(ok[rows.start:rows.start + slot + 1, j]))
            return VerificationReport(False, witness(block.sets[g], slot, whole.sets[j]), checked)
        checked += int(np.count_nonzero(ok)) if count is None else count
    return VerificationReport(True, None, checked)


def _apart(U: _Sets, Z: _Sets) -> np.ndarray:
    """Pairs of U and Z that share no column."""
    return ~overlap(U.member, Z.member.T)


def _m_code_pairs(U: _Sets, Z: _Sets) -> np.ndarray:
    """m-code's pairs, one row per slot j of U (s slots): U and Z disjoint,
    |Z| <= |U|, and j in U."""
    pairs = _apart(U, Z) & (Z.sizes <= U.sizes[:, None])
    slots = np.arange(U.sets.shape[1]) < U.sizes[:, None]
    return (slots[:, :, None] & pairs[:, None]).reshape(-1, len(Z.sets))


def _not_within(P: _Sets, Q: _Sets) -> np.ndarray:
    """Pairs with P not a subset of Q."""
    return overlap(P.member, ~Q.member.T)


def _smaller_other(P: _Sets, Q: _Sets) -> np.ndarray:
    """Pairs with |Q| <= |P| and Q != P."""
    pairs = Q.sizes <= P.sizes[:, None]
    own = np.arange(P.start - Q.start, P.start - Q.start + len(P.sets))  # P's sets in Q
    inside = (own >= 0) & (own < len(Q.sets))
    pairs[inside, own[inside]] = False
    return pairs


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
    if u == 1 and multicover.proves(X, bits, z, 1, scans, _BATCH_ENTRIES):
        return VerificationReport(True, None, t * comb(t - 1, z))
    cols = pack_columns(bits)
    U = _family(N, t, u, u, lambda batch: at_least(cols, batch, u, N)[u], size)  # 1 on all of U
    Z = _stored(N, t, z, z, lambda batch: _below(cols, batch, 1, N))  # 0 on all of Z
    return _pair_scan(U, Z, _apart, lambda U, j, Z: {"U": _subset(U), "Z": _subset(Z)},
                      (t, (u, u), (z, z)))


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
    if multicover.proves(X, bits, s, l, scans, _BATCH_ENTRIES, columns):
        return VerificationReport(True, None, comb(t, s) * (t - s))
    cols = pack_columns(bits)
    float_bits = bits.astype(np.float32)
    # a batch's coverage counts are (batch, t), its rows usable per S (batch, N)
    for part in _batches(t, s, s, _batch_size(max(N * s, t))):
        batch = part.sets[:subsets - part.start]
        usable = np.unpackbits(_below(cols, batch, l, N).view(np.uint8), axis=1, count=N)
        bad = usable.astype(np.float32) @ float_bits < 0.5      # (batch, t) counts of 0
        bad[np.arange(len(batch))[:, None], batch] = False  # members of S exempt
        if bad.any():
            r, j = divmod(int(np.argmax(bad)), t)  # row-major: the first S, then its first j
            within = j + 1 - int((batch[r] < j).sum())
            checked = (part.start + r) * (t - s) + within
            return VerificationReport(False, {"S": _subset(batch[r]), "j": j}, checked)
        if part.start + len(batch) == subsets:
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
    if u == 1 and multicover.proves(X, bits, 2 * s - 1, 1, scans, _BATCH_ENTRIES):
        # (U, j) with |U| = k, and Z of at most k columns outside U
        return VerificationReport(True, None, sum(comb(t, k) * k * lex_count(t - k, 0, k)
                                                  for k in range(1, s + 1)))
    cols = pack_columns(bits)

    def flags(batch):  # outer row j of U: the rows with exactly u hits in U and a 1 at U[j]
        planes = at_least(cols, batch, u + 1, N)
        return np.take(cols, batch, axis=0) & (planes[u] ^ planes[u + 1])[:, None]

    U = _family(N, t, u, s, flags, size)
    Z = _stored(N, t, 0, s, lambda batch: _below(cols, batch, 1, N))
    return _pair_scan(U, Z, _m_code_pairs,
                      lambda U, j, Z: {"U": _subset(U), "Z": _subset(Z), "j": int(U[j])},
                      (t, (u, s), (0, s)), group=s)


def check_design(X, F: OutcomeFunction, s: int, mode: str = "at-most",
                 budget: int | None = None) -> VerificationReport:
    """Are the outcome vectors of all candidate subsets pairwise distinct?

    Candidates are subsets of size <= s ('at-most') or == s ('exactly');
    for a threshold outcome map the at-most domain drops sets smaller than
    the threshold.  The witness is the first pair of candidates, in
    lexicographic enumeration order, sharing an outcome vector.

    A map with l = 1 sees whether each row meets the set.  Then every c_j > s
    (`sic.multicover`) makes the outcomes distinct: of two candidates P and
    P', one has a column j that the other lacks, and at most s columns
    other than j leave a row of supp(j) unmet.  That is decided first,
    where it is cheaper than the key scan, its charge taken at
    DESIGN_SCAN_COST d-code row scans each; the converse does not hold, so
    otherwise, and for every l >= 2, the key scan decides.
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
    words = word_count(N * width)
    _check_cost(domain * N, budget, domain * (8 * words + 8), "design key store")
    if F.l == 1 and multicover.proves(X, bits, s, 1, domain * N * multicover.DESIGN_SCAN_COST,
                                      _BATCH_ENTRIES):
        return VerificationReport(True, None, domain)
    if not F.is_threshold:  # a threshold map's key is one plane, read as it is
        label_bits = np.array([[index[v] >> b & 1 for b in range(width)] for v in F.values],
                              dtype=bool)  # (l + 1, width)
        # bit b of the label of min(hits, l) changes between i - 1 and i hits,
        # reading 0 below 0 hits, so plane b is the XOR of those planes i
        changes = [np.flatnonzero(c) for c in np.diff(label_bits, axis=0, prepend=False).T]
    keys = np.empty((domain, words), dtype=np.uint64)
    cols = pack_columns(bits)
    size = _batch_size(N * s)
    for k, batch in enumerate(_batches(t, lo, s, size), 1):
        n = batch.start + len(batch.sets)
        planes = at_least(cols, batch.sets, F.l, N)
        if F.is_threshold:  # the one label bit is "reached l" or its negation
            keys[batch.start:n] = planes[F.l]
        else:
            keys[batch.start:n] = interleave(
                np.stack([np.bitwise_xor.reduce(planes[c], axis=0) for c in changes]), N)
        if k & (k - 1) == 0 or n == domain:  # after 1, 2, 4, ... batches and the last
            repeat = first_repeat(keys[:n])
            if repeat is not None:
                P, Pprime = (_nth_subset(t, lo, s, size, i) for i in repeat)
                return VerificationReport(False, {"P": P, "Pprime": Pprime}, repeat[1] + 1)
    return VerificationReport(True, None, domain)


def _nth_subset(t: int, lo: int, hi: int, size: int, n: int) -> tuple:
    """Subset number n of the enumeration of `check_design`."""
    for batch in _batches(t, lo, hi, size):
        if n < batch.start + len(batch.sets):
            return _subset(batch.sets[n - batch.start])


def _check_threshold_pairs(X, u: int, s: int, bar: bool, budget: int | None) -> VerificationReport:
    bits = _bits(X)
    N, t = bits.shape
    if not (1 <= u < s and 2 * s < t):
        raise ParameterOutOfRange(f"need 1 <= u < s < t/2, got {(u, s, t)}")
    size, scans = _check_pairs(lex_count(t, u, s), t, N, u, s, budget)
    if u == 1 and multicover.proves(X, bits, s, 1, scans, _BATCH_ENTRIES):
        return VerificationReport(True, None, _threshold_pairs(t, s, bar))
    # the stored flags are the rows that do not fire on a set (< u hits)
    cols = pack_columns(bits)
    family, fill = _stored(N, t, u, s, lambda batch: _below(cols, batch, u, N))
    n = len(family.sets)
    first = [next(fill)]  # the parts that hold the first block; its pairs fill the rest
    while first[-1].start + len(first[-1].sets) < min(size, n):
        first.append(next(fill))
    blocks = (family.cut(r, r + size)._replace(flags=~family.flags[r:r + size])
              for r in range(0, n, size))
    # no row fires on P but not on Q
    return _pair_scan(blocks, (family, chain(first, fill)), _not_within if bar else _smaller_other,
                      lambda P, j, Q: {"P": _subset(P), "Pprime": _subset(Q)}, (t, (u, s), (u, s)))


def _threshold_pairs(t: int, s: int, bar: bool) -> int:
    """The pairs (P, P') of the sets with 1 to s columns that the threshold
    checkers test at u = 1: those with P' no larger than P and P' != P, or
    with bar those with P not a subset of P' (not one of the
    comb(t - a, b - a) supersets of size b of a P of size a)."""
    sets = lex_count(t, 1, s)
    if bar:
        return sum(comb(t, a) * (sets - sum(comb(t - a, b - a) for b in range(a, s + 1)))
                   for a in range(1, s + 1))
    return sum(comb(t, a) * lex_count(t, 1, a) for a in range(1, s + 1)) - sets


def check_threshold_design(X, u: int, s: int, budget: int | None = None) -> VerificationReport:
    """For every ordered pair P != P' of candidate sets with sizes in
    [u, s] and |P| >= |P'|, some row fires on P (>= u hits) but not on P'.
    Equal-size pairs are checked in both orientations.

    At u = 1 the property is every c_j > s (`sic.multicover`), decided
    first where that is cheaper than the scan; a failure is left to the
    scan, which finds the witness.
    """
    return _check_threshold_pairs(X, u, s, bar=False, budget=budget)


def check_threshold_bar_design(X, u: int, s: int, budget: int | None = None) -> VerificationReport:
    """Variant quantified over every ordered pair with P not a subset of P'
    (sizes in [u, s]), again requiring a row firing on P but not on P'.

    At u = 1 the property is every c_j > s, decided as in
    `check_threshold_design`.
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
