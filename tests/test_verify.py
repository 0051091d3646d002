import contextlib
import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (batches_by_fromiter, brute_report, lex_by_merge, lex_subsets,
                     qary_agreement_matrix)
from sic import subsets, verify
from sic.codes import BinaryCode, QaryCode, binary_expand, random_code, rs_extended, shorten
from sic.errors import (
    BudgetExceeded,
    NotConstantWeight,
    ParameterOutOfRange,
    TooFewColumns,
)
from sic.fields import FiniteField
from sic.verify import (
    OutcomeFunction,
    check_cover_free,
    check_d_certificate,
    check_d_code,
    check_design,
    check_m_code,
    check_threshold_bar_design,
    check_threshold_design,
    coincidence,
)


def identity_code(t):
    return BinaryCode(bits=np.eye(t, dtype=np.uint8), weight=1)


def pair_matrix(t):
    """One row per 2-subset of columns; a strong structured positive case."""
    rows = []
    for a in range(t):
        for b in range(a + 1, t):
            row = np.zeros(t, dtype=np.uint8)
            row[[a, b]] = 1
            rows.append(row)
    return BinaryCode(bits=np.array(rows), weight=None)


def complement(code):
    return BinaryCode(bits=(1 - code.bits).astype(np.uint8), weight=None)


class TestOutcomeFunction:
    def test_threshold_shape(self):
        F = OutcomeFunction.threshold(3)
        assert F.values == (0, 0, 0, 1)
        assert F.l == 3 and F.is_threshold
        assert F(0) == 0 and F(2) == 0 and F(3) == 1 and F(9) == 1

    def test_saturating(self):
        F = OutcomeFunction.saturating(2)
        assert F.values == (0, 1, 2)
        assert not F.is_threshold
        assert F(5) == 2

    def test_quantizer(self):
        F = OutcomeFunction.quantizer((2, 3))
        assert F.values == (0, 1, 1, 2)

    def test_quantizer_rejects_wide_last_range(self):
        # last range of width 2 makes a non-saturated label collide
        with pytest.raises(ParameterOutOfRange):
            OutcomeFunction.quantizer((1, 3))

    def test_invalid_values(self):
        with pytest.raises(ParameterOutOfRange):
            OutcomeFunction(values=(1, 0, 1))
        with pytest.raises(ParameterOutOfRange):
            OutcomeFunction(values=(7,))


def lex_rows(items, lo, hi):
    """The padded subsets of `lex_batches`, flattened to tuples."""
    return [tuple(row) for batch in subsets.lex_batches(items, lo, hi, verify._MAX_BATCH)
            for row in batch.tolist()]


class TestLex:
    def test_order(self):
        got = lex_rows(range(3), 0, 2)
        assert got == [(-1, -1), (0, -1), (0, 1), (0, 2), (1, -1), (1, 2), (2, -1)]
        for n, hi in [(5, 3), (7, 7)]:
            got = [tuple(c for c in S if c >= 0) for S in lex_rows(range(n), 0, hi)]
            assert got == lex_subsets(range(n), 0, hi)

    def test_counts(self):
        for items, lo, hi in [(range(6), 2, 4), ([1, 4, 5, 8, 9], 1, 3), (range(6), 3, 3)]:
            got = lex_rows(items, lo, hi)
            assert all(len(S) == hi for S in got)
            got = [tuple(c for c in S if c >= 0) for S in got]
            assert len(got) == sum(comb(len(items), k) for k in range(lo, hi + 1))
            assert got == lex_subsets(items, lo, hi)

    @pytest.mark.parametrize("tails", [None, 0], ids=["pair-tails", "single-tails"])
    @pytest.mark.parametrize("size", [verify._MAX_BATCH, 1, 7], ids=["default", "batch1", "batch7"])
    @given(items=st.lists(st.integers(0, 40), max_size=12, unique=True).map(sorted),
           sizes=st.tuples(st.integers(0, 6), st.integers(0, 6)).map(sorted))
    def test_matches_merge_oracle(self, tails, size, items, sizes):
        """The same rows as the tuple merge, cut into the same batches, also
        when batch boundaries fall inside a run of tails and when the tails
        have one element."""
        lo, hi = sizes
        patch = (contextlib.nullcontext() if tails is None
                 else mock.patch.object(subsets, "PAIR_TABLE_ENTRIES", tails))
        with patch:
            got = list(subsets.lex_batches(items, lo, hi, size))
        assert [tuple(row) for b in got for row in b.tolist()] == list(lex_by_merge(items, lo, hi))
        assert all(b.dtype == np.intp and b.shape[1] == hi for b in got)
        if hi:  # the oracle packs no batch for width 0
            want = list(batches_by_fromiter(lex_by_merge(items, lo, hi), hi, size))
            assert [b.tolist() for b in got] == [b.tolist() for b in want]


class TestCoverFree:
    def test_identity_isolates(self):
        rep = check_cover_free(identity_code(6), z=5, u=1)
        assert rep.satisfied and rep.witness is None

    def test_all_ones_fails_with_first_witness(self):
        X = BinaryCode(bits=np.ones((2, 2), dtype=np.uint8))
        rep = check_cover_free(X, z=1, u=1)
        assert not rep.satisfied
        assert rep.witness == {"U": (0,), "Z": (1,)}
        assert rep.tuples_checked == 1

    def test_example1_pair_counterexample(self, ex1):
        # weight 4 with coincidence 2 certifies nothing at z=2 (2*2 > 4-1),
        # and indeed two columns can jointly cover a third
        rep = check_cover_free(ex1, z=2, u=1)
        assert not rep.satisfied
        assert rep.witness == {"U": (0,), "Z": (5, 46)}
        (j,), (a, b) = rep.witness["U"], rep.witness["Z"]
        bits = ex1.bits
        for i in np.flatnonzero(bits[:, j]):
            assert bits[i, a] or bits[i, b]

    def test_example1_single_exclusion(self, ex1):
        # z=1 is certified: 1 * coincidence <= weight - 1
        rep = check_cover_free(ex1, z=1, u=1)
        assert rep.satisfied
        assert rep.tuples_checked == 125 * 124

    def test_parameter_check(self):
        with pytest.raises(ParameterOutOfRange):
            check_cover_free(identity_code(3), z=3, u=1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            check_cover_free(identity_code(40), z=10, u=2, budget=10**6)

    def test_complement_duality_random(self):
        for i in range(40):
            X = random_code(8, 6, 0.25 + 0.1 * (i % 6), seed=900 + i)
            for z, u in [(2, 1), (1, 2), (2, 2), (3, 2)]:
                a = check_cover_free(X, z, u).satisfied
                b = check_cover_free(complement(X), u, z).satisfied
                assert a == b

    @given(st.integers(0, 400))
    def test_monotonicity(self, seed):
        X = random_code(9, 7, 0.35, seed=seed)
        strong = check_cover_free(X, z=3, u=2).satisfied
        if strong:
            for z2, u2 in [(2, 2), (3, 1), (1, 2), (2, 1), (1, 1)]:
                assert check_cover_free(X, z2, u2).satisfied


class TestDCode:
    def test_l1_collapses_to_cover_free(self):
        for i in range(60):
            X = random_code(10, 7, 0.2 + 0.1 * (i % 7), seed=50 + i)
            for s in (2, 3):
                assert (check_d_code(X, s, 1).satisfied
                        == check_cover_free(X, s, 1).satisfied)

    def test_nesting(self):
        cases = [identity_code(8)] + [random_code(10, 8, 0.25, seed=i) for i in range(40)]
        for X in cases:
            for l in (1, 2):
                if check_d_code(X, 4, l).satisfied:
                    assert check_d_code(X, 4, l + 1).satisfied

    def test_identity_passes(self):
        assert check_d_code(identity_code(7), s=3, l=2).satisfied

    def test_witness_is_lex_first(self):
        # two duplicated all-ones columns swamp every other column
        bits = np.ones((4, 5), dtype=np.uint8)
        bits[:, 3] = [1, 0, 0, 0]
        bits[:, 4] = [0, 1, 0, 0]
        X = BinaryCode(bits=bits)
        rep = check_d_code(X, 2, 1)
        assert not rep.satisfied
        brute = None
        from itertools import combinations
        for S in combinations(range(5), 2):
            for j in range(5):
                if j in S:
                    continue
                ok = any(bits[i, j] and bits[i, list(S)].sum() == 0 for i in range(4))
                if not ok:
                    brute = {"S": S, "j": j}
                    break
            if brute:
                break
        assert rep.witness == brute

    def test_wide_matrix_batch_memory(self):
        # the (batch, t) coverage counts are inside the batch bound, and the
        # enumeration builds no table quadratic in t
        X = np.ones((1, 3000), dtype=np.uint8)
        tracemalloc.start()
        try:
            rep = check_d_code(X, 2, 1, budget=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == (False, {"S": (0, 1), "j": 2}, 1)
        assert peak < 48 * 2**20

    def test_parameters(self):
        with pytest.raises(ParameterOutOfRange):
            check_d_code(identity_code(4), s=4, l=1)
        with pytest.raises(ParameterOutOfRange):
            check_d_code(identity_code(4), s=2, l=2)


class TestDCertificate:
    def test_example2(self, ex2):
        assert check_d_certificate(ex2, s=4, l=2)

    def test_example3_tight_and_over(self, ex3):
        assert check_d_certificate(ex3, s=10, l=3)
        assert not check_d_certificate(ex3, s=11, l=3)

    def test_non_constant_weight(self):
        bits = np.eye(3, dtype=np.uint8)
        bits[1, 0] = 1
        with pytest.raises(NotConstantWeight):
            check_d_certificate(BinaryCode(bits=bits), s=2, l=1)

    def test_certificate_is_sound(self):
        # whenever the certificate fires on a small code, the exhaustive check agrees
        for i in range(60):
            X = random_code(12, 8, 0.3, seed=300 + i)
            w = X.bits.sum(axis=0)
            if not (w == w[0]).all() or w[0] == 0:
                continue
            for s, l in [(2, 1), (3, 2)]:
                if check_d_certificate(X, s, l):
                    assert check_d_code(X, s, l).satisfied


class TestMCode:
    def test_pair_matrix_is_m_code(self):
        X = pair_matrix(9)
        assert check_m_code(X, s=4, u=2).satisfied
        assert check_m_code(X, s=3, u=2).satisfied

    def test_u1_equivalence_with_cover_free(self):
        for i in range(50):
            X = random_code(11, 9, 0.15 + 0.1 * (i % 6), seed=500 + i)
            for s in (2, 3, 4):
                assert (check_m_code(X, s, 1).satisfied
                        == check_cover_free(X, 2 * s - 1, 1).satisfied)
        assert check_m_code(identity_code(9), 4, 1).satisfied

    def test_pass_implies_wider_cover_free(self):
        cases = [pair_matrix(9)] + [random_code(12, 9, 0.3, seed=i) for i in range(30)]
        for X in cases:
            for s, u in [(3, 2), (4, 2)]:
                if check_m_code(X, s, u).satisfied:
                    assert check_cover_free(X, 2 * s - u, 1).satisfied

    def test_too_small_matrix(self):
        with pytest.raises(ParameterOutOfRange):
            check_m_code(identity_code(2), s=1, u=1)


class TestDesign:
    def test_identity_exact_singletons(self):
        rep = check_design(identity_code(5), OutcomeFunction.threshold(1), s=1, mode="exactly")
        assert rep.satisfied

    def test_duplicate_columns_fail(self):
        bits = np.eye(4, dtype=np.uint8)
        bits[:, 3] = bits[:, 2]
        rep = check_design(BinaryCode(bits=bits), OutcomeFunction.threshold(1), s=1,
                           mode="exactly")
        assert not rep.satisfied
        assert rep.witness == {"P": (2,), "Pprime": (3,)}

    def test_design_implies_d_code(self):
        F = OutcomeFunction.saturating(1)
        cases = [identity_code(7)] + [random_code(10, 7, 0.25, seed=i) for i in range(60)]
        for X in cases:
            if check_design(X, F, s=3, mode="at-most").satisfied:
                assert check_d_code(X, 2, 1).satisfied

    def test_cover_free_implies_threshold_design(self):
        for u, s in [(1, 2), (1, 3), (2, 3), (2, 4)]:
            cases = [identity_code(2 * s + 1) if u == 1 else pair_matrix(2 * s + 1)]
            cases += [random_code(10, 2 * s + 1, 0.3, seed=40 * u + i) for i in range(30)]
            for X in cases:
                if check_cover_free(X, s - u + 1, u).satisfied:
                    rep = check_design(X, OutcomeFunction.threshold(u), s, mode="at-most")
                    assert rep.satisfied

    def test_identity_is_union_design(self):
        rep = check_design(identity_code(6), OutcomeFunction.threshold(1), s=2, mode="at-most")
        assert rep.satisfied

    def test_threshold_domain_restriction(self):
        # under u=2 every singleton has the all-zero outcome, so the check
        # can only pass because sets smaller than u are excluded
        X = pair_matrix(7)
        rep = check_design(X, OutcomeFunction.threshold(2), s=3, mode="at-most")
        assert rep.satisfied
        assert rep.tuples_checked == comb(7, 2) + comb(7, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            check_design(random_code(20, 40, 0.5, seed=1), OutcomeFunction.threshold(1),
                         s=10, mode="at-most", budget=10**5)


class TestThresholdDesigns:
    def test_m_code_implies_threshold(self):
        cases = [pair_matrix(9), identity_code(9)]
        cases += [random_code(10, 9, 0.3, seed=700 + i) for i in range(30)]
        for X in cases:
            for u, s in [(1, 3), (2, 4)]:
                if check_m_code(X, s, u).satisfied:
                    assert check_threshold_design(X, u, s).satisfied

    def test_all_zero_column_fails(self):
        bits = np.eye(6, dtype=np.uint8)
        bits[:, 5] = 0
        rep = check_threshold_design(BinaryCode(bits=bits), u=1, s=2)
        assert not rep.satisfied

    def test_bar_implies_plain(self):
        for i in range(40):
            X = random_code(8, 8, 0.2 + 0.1 * (i % 6), seed=i)
            for u, s in [(1, 2), (1, 3)]:
                if check_threshold_bar_design(X, u, s).satisfied:
                    assert check_threshold_design(X, u, s).satisfied

    def test_bar_equivalent_to_cover_free(self):
        for i in range(60):
            X = random_code(10, 6, 0.25 + 0.1 * (i % 6), seed=i)
            bar = check_threshold_bar_design(X, 1, 2).satisfied
            cf = check_cover_free(X, 2, 1).satisfied
            assert bar == cf

    def test_identity_is_bar_design(self):
        assert check_threshold_bar_design(identity_code(7), u=1, s=2).satisfied
        assert check_threshold_bar_design(identity_code(9), u=1, s=3).satisfied

    def test_size_guard(self):
        with pytest.raises(ParameterOutOfRange):
            check_threshold_design(identity_code(4), u=1, s=2)


def blocks_of(block, t):
    """Make coincidence scan t columns in blocks of `block` (None: the default)."""
    if block is None:
        return contextlib.nullcontext()
    return mock.patch.object(verify, "_BLOCK_ENTRIES", block * t)


class TestCoincidence:
    def test_example1_qary(self, ex1_qary):
        assert coincidence(ex1_qary) == 2  # == k - r - 1

    def test_example3_binary_matches_qary(self, ex3, ex3_qary):
        assert coincidence(ex3) == 2 == coincidence(ex3_qary)

    def test_identical_columns(self):
        col = np.array([[1], [1], [0], [1]], dtype=np.uint8)
        X = BinaryCode(bits=np.hstack([col, col]))
        assert coincidence(X) == 3

    def test_too_few_columns(self):
        with pytest.raises(TooFewColumns):
            coincidence(BinaryCode(bits=np.ones((3, 1), dtype=np.uint8)))

    def test_blocked_scan_matches_full_matrices(self):
        # 1000 x 70 is one block under the default rule (2*10^6 // 70 > 70);
        # in blocks of 57 or 13 columns the last block is partial and its
        # diagonal starts mid-matrix.  n = 1000 makes the q-ary counter uint16.
        rng = np.random.default_rng(7)
        sym = rng.integers(0, 3, size=(1000, 70)).astype(np.uint8)
        sym[:600, 65] = sym[:600, 3]  # one pair agreeing well above the rest
        off = ~np.eye(70, dtype=bool)
        agree = qary_agreement_matrix(sym)
        bits = (sym == 0).astype(np.uint8)
        gram = bits.T.astype(np.int64) @ bits
        for block in (None, 57, 13):
            with blocks_of(block, 70):
                assert coincidence(QaryCode(q=3, symbols=sym)) == agree[off].max()
                assert coincidence(BinaryCode(bits=bits)) == gram[off].max()

    @pytest.mark.parametrize("block", [None, 1, 7], ids=["default", "block1", "block7"])
    @pytest.mark.parametrize("kind", ["qary", "binary", "binary-float64"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_oracles(self, kind, block, data):
        # n straddles 256, where the q-ary counter widens from uint8 to
        # uint16; a drawn copy of a column makes the largest statistic n.
        # binary-float64 has 300 rows with a pair of near-255 columns, whose
        # dot product (near 300 * 255^2 > 2^24) float32 cannot hold exactly.
        if kind == "binary-float64":
            n = 300
        else:
            n = data.draw(st.integers(1, 12) | st.integers(250, 300))
        t = data.draw(st.integers(2, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "qary":
            q = data.draw(st.integers(2, 5))
            X = rng.integers(0, q, size=(n, t)).astype(np.uint8)
        elif kind == "binary":
            X = (rng.random((n, t)) < 0.4).astype(np.uint8)
        else:
            X = rng.integers(0, 256, size=(n, t)).astype(np.uint8)
            X[:, :2] = 255 - rng.integers(0, 2, size=(n, 2))
        i, j = data.draw(st.permutations(range(t)))[:2]
        if data.draw(st.booleans()):
            X[:, j] = X[:, i]
        if kind == "qary":
            code, expected = QaryCode(q=q, symbols=X), qary_agreement_matrix(X)
        else:
            code, expected = BinaryCode(bits=X), X.T.astype(np.int64) @ X
        with blocks_of(block, t):
            assert coincidence(code) == expected[~np.eye(t, dtype=bool)].max()

    def test_wide_binary_code(self):
        # 4096 x 4096: the one-hot expansion of the q=64, k=3, r=1 RS code
        code = binary_expand(shorten(rs_extended(FiniteField(64), 3), 1))
        assert coincidence(code) == 1


class TestDeterminism:
    def test_reports_identical_across_runs(self):
        X = random_code(10, 8, 0.35, seed=4242)
        assert check_cover_free(X, 2, 2) == check_cover_free(X, 2, 2)
        assert check_d_code(X, 3, 2) == check_d_code(X, 3, 2)
        assert check_m_code(X, 3, 2) == check_m_code(X, 3, 2)
        assert (check_threshold_design(X, 2, 3)
                == check_threshold_design(X, 2, 3))


CHECKERS = {
    "cover_free": lambda X, p: check_cover_free(X, p["z"], p["u"]),
    "d_code": lambda X, p: check_d_code(X, p["s"], p["l"]),
    "m_code": lambda X, p: check_m_code(X, p["s"], p["u"]),
    "design": lambda X, p: check_design(X, OutcomeFunction(values=p["values"]), p["s"],
                                        mode=p["mode"]),
    "threshold": lambda X, p: check_threshold_design(X, p["u"], p["s"]),
    "threshold_bar": lambda X, p: check_threshold_bar_design(X, p["u"], p["s"]),
}
MIN_COLUMNS = {"cover_free": 2, "d_code": 3, "m_code": 5, "design": 2, "threshold": 5,
               "threshold_bar": 5}


def draw_params(draw, prop, t):
    """Any strength the checker accepts for t columns."""
    if prop == "cover_free":
        z = draw(st.integers(1, t - 1))
        return {"z": z, "u": draw(st.integers(1, t - z))}
    if prop == "d_code":
        s = draw(st.integers(2, t - 1))
        return {"s": s, "l": draw(st.integers(1, s - 1))}
    if prop == "design":
        s = draw(st.integers(1, t - 1))
        l = draw(st.integers(1, s))
        labels = draw(st.lists(st.integers(0, 2), min_size=l, max_size=l))
        return {"values": (*labels, 3), "s": s, "mode": draw(st.sampled_from(["at-most", "exactly"]))}
    s = draw(st.integers(2, (t - 1) // 2))
    u = draw(st.integers(1, s - 1))
    return {"s": s, "u": u} if prop == "m_code" else {"u": u, "s": s}


@st.composite
def checker_inputs(draw, prop):
    """A matrix with N <= 12 rows and t <= 10 columns, sometimes over an
    identity or pair-incidence block so that strong properties can hold."""
    t = draw(st.integers(MIN_COLUMNS[prop], 10))
    block = draw(st.sampled_from(["none", "identity", "pairs"]))
    base = {"none": np.zeros((0, t), dtype=np.uint8),
            "identity": np.eye(t, dtype=np.uint8),
            "pairs": np.array([[int(c in S) for c in range(t)]
                               for S in combinations(range(t), 2)], dtype=np.uint8)}[block]
    extra = draw(st.integers(0 if len(base) else 1, max(0, 12 - len(base))))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=t, max_size=t),
                         min_size=extra, max_size=extra))
    bits = np.vstack([base, np.array(rows, dtype=np.uint8).reshape(extra, t)])
    perm = draw(st.permutations(range(t)))
    return bits[:, perm], draw_params(draw, prop, t)


class TestAgainstBruteForce:
    """Every checker gives the report of the plain-loop oracle, also when
    each batch holds one subset or seven."""

    @pytest.mark.parametrize("batch", [None, 1, 7], ids=["default", "batch1", "batch7"])
    @pytest.mark.parametrize("prop", sorted(CHECKERS))
    @settings(deadline=None)  # the oracle takes a few hundred ms on satisfying inputs
    @given(data=st.data())
    def test_matches_brute_force(self, prop, batch, data):
        bits, params = data.draw(checker_inputs(prop))
        patch = (contextlib.nullcontext() if batch is None
                 else mock.patch.object(verify, "_MAX_BATCH", batch))
        with patch:
            rep = CHECKERS[prop](bits, params)
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == brute_report(prop, bits, params)
