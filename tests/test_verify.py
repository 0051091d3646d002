import contextlib
import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (batches_by_fromiter, brute_report, design_by_dict, lex_by_merge,
                     lex_subsets, qary_agreement_matrix, threshold_pairs_by_loop)
import sic
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
    VerificationReport,
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
    """The padded subsets of `lex_batches` mapped to `items`, flattened to tuples."""
    values = np.array(list(items) + [-1])
    return [tuple(row) for batch in subsets.lex_batches(len(values) - 1, lo, hi, verify._MAX_BATCH)
            for row in values[batch].tolist()]


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
            got = list(subsets.lex_batches(len(items), lo, hi, size))
        assert all(b.dtype == np.intp and b.shape[1] == hi for b in got)
        got = [np.array(items + [-1])[b] for b in got]  # index rows to items
        assert [tuple(row) for b in got for row in b.tolist()] == list(lex_by_merge(items, lo, hi))
        if hi:  # the oracle packs no batch for width 0
            want = list(batches_by_fromiter(lex_by_merge(items, lo, hi), hi, size))
            assert [b.tolist() for b in got] == [b.tolist() for b in want]

    @pytest.mark.parametrize("n,lo,hi", [(16, 8, 8), (14, 0, 7)], ids=["16-choose-8", "14-upto-7"])
    def test_deep_walks_match_merge_oracle(self, n, lo, hi):
        """Prefixes six and five members deep, in batches of 7 rows."""
        got = list(subsets.lex_batches(n, lo, hi, 7))
        want = list(batches_by_fromiter(lex_by_merge(range(n), lo, hi), hi, 7))
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @given(n=st.integers(0, 12), sizes=st.tuples(st.integers(0, 7), st.integers(0, 7)).map(sorted))
    def test_tuples_and_count(self, n, sizes):
        lo, hi = sizes
        assert list(subsets.lex_tuples(n, lo, hi)) == lex_subsets(range(n), lo, hi)
        rows = sum(len(b) for b in subsets.lex_batches(n, lo, hi, 7))
        assert subsets.lex_count(n, lo, hi) == rows == len(lex_subsets(range(n), lo, hi))


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

    def test_key_store_over_byte_limit_raises_at_once(self):
        # 3000 singletons and 4498500 pairs with 47-word keys: 1728576000
        # bytes of keys and sort index, within the row-scan budget but over
        # DESIGN_KEY_BYTES.  The address-space limit turns an attempt to
        # store the keys into a failure.
        script = ("import numpy as np\n"
                  "from sic.errors import BudgetExceeded\n"
                  "from sic.verify import OutcomeFunction, check_design\n"
                  "F = OutcomeFunction.threshold(1)\n"
                  "try:\n"
                  "    check_design(np.eye(3000, dtype=np.uint8), F, 2, budget=10**11)\n"
                  "except BudgetExceeded as exc:\n"
                  "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sic.__file__)))
        limit = 2**31

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                              preexec_fn=cap_memory, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "design key store of 1728576000 bytes exceeds 1073741824\n"


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


class TestBinaryInput:
    CALLS = {
        "cover_free": lambda X: check_cover_free(X, 2, 1),
        "d_code": lambda X: check_d_code(X, 2, 1),
        "d_certificate": lambda X: check_d_certificate(X, 2, 1),
        "m_code": lambda X: check_m_code(X, 2, 1),
        "design": lambda X: check_design(X, OutcomeFunction.saturating(1), 2),
        "threshold": lambda X: check_threshold_design(X, 1, 2),
        "threshold_bar": lambda X: check_threshold_bar_design(X, 1, 2),
    }

    I7 = np.eye(7, dtype=int)
    BAD = {"2I": 2 * I7, "-I": -I7, "256I": 256 * I7, "2I-uint8": 2 * I7.astype(np.uint8),
           "I/2": I7 / 2}

    @pytest.mark.parametrize("wrap", [np.asarray, BinaryCode], ids=["array", "BinaryCode"])
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("name", CALLS)
    def test_entries_outside_0_1_raise(self, name, bad, wrap):
        # a uint8 cast would read -1 as 255, 256 as 0 and 1/2 as 0; 2 counted
        # as one hit in some checkers and as two in others
        with pytest.raises(ParameterOutOfRange, match="0 or 1"):
            self.CALLS[name](wrap(self.BAD[bad]))
        self.CALLS[name](wrap(self.I7))


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


def pair_blocks(rows, X, u, s, bar):
    """Make the threshold pair scans of X take `rows` outer sets per block
    (None: the default)."""
    if rows is None:
        return contextlib.nullcontext()
    N, t = np.shape(X)
    n_sets = sum(comb(t, i) for i in range(u, s + 1))
    words = max(1, -(-N // 64), -(-t // 64) if bar else 1)
    return mock.patch.object(verify, "PAIR_WORDS", rows * n_sets * words)


def design_batches(size):
    """Make check_design write `size` candidates per batch (None: the default)."""
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.object(verify, "_MAX_BATCH", size)


@st.composite
def packed_inputs(draw, t_min, t_max):
    """A matrix with t_min..t_max columns and 1..12 or 63..130 rows, so that
    row flags and design keys take one, two or three words (up to seven with
    three-bit labels); sometimes with identity rows on top, so that strong
    properties can hold."""
    t = draw(st.integers(t_min, t_max))
    N = draw(st.integers(1, 12) | st.integers(63, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = (rng.random((N, t)) < draw(st.sampled_from([0.1, 0.25, 0.5]))).astype(np.uint8)
    if draw(st.booleans()):
        k = min(N, t)
        X[:k] = np.eye(t, dtype=np.uint8)[:k]
    return X


class TestPackedScansAgainstOracles:
    """The word-packed pair and duplicate scans give the reports of the
    loop and dict scans they replaced, also when a block holds one or seven
    outer sets and when a batch holds one or seven candidates."""

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "block1", "block7"])
    @pytest.mark.parametrize("bar", [False, True], ids=["threshold", "threshold_bar"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_threshold_pairs_match_loop(self, bar, rows, data):
        X = data.draw(packed_inputs(5, 10))
        s = data.draw(st.integers(2, (X.shape[1] - 1) // 2))
        u = data.draw(st.integers(1, s - 1))
        with pair_blocks(rows, X, u, s, bar):
            got = verify._check_threshold_pairs(X, u, s, bar, None)
        assert got == threshold_pairs_by_loop(X, u, s, bar)

    @pytest.mark.parametrize("size", [None, 1, 7], ids=["default", "batch1", "batch7"])
    @pytest.mark.parametrize("n_labels", [2, 3, 5])
    @settings(deadline=None)
    @given(data=st.data())
    def test_design_matches_dict(self, n_labels, size, data):
        # n_labels distinct labels take b = 1, 2 or 3 bits of key per row;
        # the labels are relabelled at random, so the saturated one varies
        X = data.draw(packed_inputs(5, 8))
        s = data.draw(st.integers(n_labels - 1, X.shape[1] - 1))
        l = data.draw(st.integers(n_labels - 1, s))
        rest = data.draw(st.lists(st.integers(0, n_labels - 2), min_size=l - n_labels + 1,
                                  max_size=l - n_labels + 1))
        labels = data.draw(st.permutations(list(range(n_labels - 1)) + rest))
        relabel = data.draw(st.permutations(range(n_labels)))
        F = OutcomeFunction(values=tuple(relabel[v] for v in (*labels, n_labels - 1)))
        mode = data.draw(st.sampled_from(["at-most", "exactly"]))
        with design_batches(size):
            got = check_design(X, F, s, mode)
        assert got == design_by_dict(X, F, s, mode)

    def test_design_first_repeat_just_after_doubling_boundary(self):
        # one candidate per batch: the keys are sorted after 1, 2, 4 and 8.
        # The fifth candidate (4,) repeats (2,), so the sort at 4 finds
        # nothing, and the sort at 8 also holds the later repeat (6,) of (0,).
        X = np.eye(8, dtype=np.uint8)
        X[:, 4] = X[:, 2]
        X[:, 6] = X[:, 0]
        F = OutcomeFunction.threshold(1)
        want = VerificationReport(False, {"P": (2,), "Pprime": (4,)}, 5)
        for size in (1, 2):
            with design_batches(size):
                assert check_design(X, F, 1, "exactly") == want
        assert design_by_dict(X, F, 1, "exactly") == want

    def test_threshold_witness_in_second_block(self):
        # column 4 fires nowhere, so the outer set (0, 4), number 4, fires
        # only where (0,) does; with three outer sets per block it lies in
        # the second block, after 6 + 3 * 27 checked pairs.
        X = np.eye(7, dtype=np.uint8)
        X[:, 4] = 0
        want = VerificationReport(False, {"P": (0, 4), "Pprime": (0,)}, 88)
        with pair_blocks(3, X, 1, 2, bar=False):
            assert check_threshold_design(X, 1, 2) == want
        assert threshold_pairs_by_loop(X, 1, 2, bar=False) == want

    def test_threshold_bar_two_member_words(self):
        # 70 columns: each set's columns take two words
        X = np.eye(70, dtype=np.uint8)
        for Y in (X, np.hstack([X[:, :69], X[:, :1]])):
            assert check_threshold_bar_design(Y, 1, 2) == threshold_pairs_by_loop(Y, 1, 2, True)

