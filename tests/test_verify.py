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

from helpers import (batches_by_fromiter, brute_report, cover_free_by_rows, d_code_by_hits,
                     design_by_dict, lex_by_merge, lex_subsets, m_code_by_rows,
                     qary_agreement_matrix, threshold_pairs_by_loop)
import sic
from sic import multicover, subsets, symmetry, verify
from sic.codes import BinaryCode, QaryCode, binary_expand, random_code, rs_extended, shorten
from sic.errors import (
    BudgetExceeded,
    NotConstantWeight,
    ParameterOutOfRange,
    TooFewColumns,
)
from sic.fields import FiniteField, is_prime_power
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
from sic.words import word_count


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
        for make, arg in [(OutcomeFunction.threshold, 0), (OutcomeFunction.saturating, 0),
                          (OutcomeFunction.quantizer, (2, 1))]:
            with pytest.raises(ParameterOutOfRange):
                make(arg)


def lex_rows(items, lo, hi):
    """The padded subsets of `lex_batches` mapped to `items`, flattened to tuples."""
    values = np.array(list(items) + [-1])
    return [tuple(row) for batch in subsets.lex_batches(len(values) - 1, lo, hi, verify._MAX_BATCH)
            for row in values[batch].tolist()]


class TestLex:
    def test_pair_tails_are_shared_and_read_only(self):
        tails, starts = subsets._pair_tails(9, True)
        assert subsets._pair_tails(9, True)[0] is tails
        assert isinstance(starts, tuple) and starts[-1] == len(tails)
        with pytest.raises(ValueError, match="read-only"):
            tails[0, 1] = 5
        batch = next(subsets.lex_batches(9, 1, 2, 100))  # a fresh copy of the table's rows
        batch[0, 1] = 5

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

    @given(items=st.lists(st.integers(0, 40), max_size=12, unique=True).map(sorted),
           sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)).map(sorted),
           first=st.integers(1, 9), size=st.integers(1, 40))
    def test_growing_batches_match_merge_oracle(self, items, sizes, first, size):
        """With `first`, batches of first, 2 * first, 4 * first, ... rows,
        at most `size`, and the same rows as the tuple merge."""
        lo, hi = sizes
        got = list(subsets.lex_batches(len(items), lo, hi, size, first))
        rows = [tuple(row) for b in got for row in np.array(items + [-1])[b].tolist()]
        assert rows == list(lex_by_merge(items, lo, hi))
        want = [min(first * 2**k, size) for k in range(len(got))]  # the last may be shorter
        assert [len(b) for b in got[:-1]] == want[:-1]
        assert all(0 < len(b) <= most for b, most in zip(got[-1:], want[-1:]))

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
        # and example 3 is no (11, 3) d-code, so the certificate is tight:
        # each of column 0's 7 rows has 3 ones in S, by the definition
        S, j = (10, 11, 22, 66, 76, 85, 87, 88, 104, 163, 184), 0
        rows = np.flatnonzero(ex3.bits[:, j])
        assert len(set(S)) == 11 and j not in S and len(rows) == 7
        assert (ex3.bits[np.ix_(rows, S)].sum(axis=1) == 3).all()

    def test_parameters(self):
        with pytest.raises(ParameterOutOfRange):
            check_d_certificate(identity_code(4), s=2, l=2)

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
        # STORE_BYTES.  The address-space limit turns an attempt to
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


class TestPairFamilies:
    def test_over_byte_limit_raise_at_once(self):
        # On the 3000 x 3000 identity each set's row flags and column flags
        # take 47 words each, besides its index row.  Within the row-scan
        # budget, the stored family of every pair checker exceeds
        # STORE_BYTES: cover-free 4498500 Z, m-code 4501501 Z, and the
        # threshold checkers 4501500 sets, used in both roles.  The
        # address-space limit turns an attempt to store them into a failure.
        script = ("import numpy as np\n"
                  "from sic.errors import BudgetExceeded\n"
                  "from sic import verify\n"
                  "X = np.eye(3000, dtype=np.uint8)\n"
                  "for check in (lambda: verify.check_cover_free(X, 2, 1, budget=10**14),\n"
                  "              lambda: verify.check_m_code(X, 2, 1, budget=10**18),\n"
                  "              lambda: verify.check_threshold_design(X, 1, 2, budget=10**17),\n"
                  "              lambda: verify.check_threshold_bar_design(X, 1, 2, budget=10**17)):\n"
                  "    try:\n"
                  "        check()\n"
                  "    except BudgetExceeded as exc:\n"
                  "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sic.__file__)))
        limit = 2**31

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                              preexec_fn=cap_memory, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"pair family of {n} bytes exceeds 1073741824"
            for n in (3454848000, 3457152768, 3457152000, 3457152000)]


    def test_budget_counts_every_pair_compared(self):
        # The scan compares all 66 2-subsets U with all 66 10-subsets Z of
        # the 12 columns, on 66 rows, though just 66 of the pairs are
        # disjoint: 66 * 66 * 66 row scans.
        X = pair_matrix(12)
        with pytest.raises(BudgetExceeded, match="^287496 row scans exceed budget 10000$"):
            check_cover_free(X, 10, 2, budget=10**4)
        assert check_cover_free(X, 10, 2, budget=10**6) == cover_free_by_rows(X, 10, 2)

    @pytest.mark.parametrize("prop, params, scans", [
        ("cover_free", {"z": 2, "u": 1}, 7 * 21 * 7),  # outer U, inner Z, rows
        ("m_code", {"s": 2, "u": 1}, 2 * 28 * 29 * 7),  # s rows per U, |Z| from 0
        ("threshold", {"u": 1, "s": 2}, 28 * 28 * 7),
        ("threshold_bar", {"u": 1, "s": 2}, 28 * 28 * 7),
    ])
    def test_budget_edge(self, prop, params, scans):
        # the checker and its oracle in tests/helpers.py charge the same
        X = np.eye(7, dtype=np.uint8)
        check, oracle = PAIR_U1[prop]
        assert check(X, 2, budget=scans) == oracle(X, 2, budget=scans) == CHECKERS[prop](X, params)
        for call in (check, oracle):
            with pytest.raises(BudgetExceeded,
                               match=f"^{scans} row scans exceed budget {scans - 1}$"):
                call(X, 2, budget=scans - 1)

    @pytest.mark.parametrize("prop", ["cover_free", "m_code", "threshold", "threshold_bar"])
    def test_matrix_without_rows(self, prop):
        bits = np.zeros((0, 7), dtype=np.uint8)
        params = {"z": 2, "u": 1} if prop == "cover_free" else {"s": 2, "u": 1}
        rep = CHECKERS[prop](bits, params)
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == brute_report(prop, bits, params)


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


def rs_binary(q, k, r):
    return binary_expand(shorten(rs_extended(FiniteField(q), k), r))


def rows_swapped(code):
    """Rows 1 and q swapped: block 0 then holds the rows of symbol 0 of the
    first two positions, two 1s in the zero codeword, column 0 of an RS
    code, so the rows are no longer canonical one-hot blocks and the
    detector must find the blocks itself."""
    q = code.N // code.weight
    rows = np.arange(code.N)
    rows[[1, q]] = rows[[q, 1]]
    return BinaryCode(bits=code.bits[rows], weight=code.weight)


def permuted(code, seed):
    """The code with its rows and its columns in a seeded random order."""
    rng = np.random.default_rng(seed)
    bits = code.bits[rng.permutation(code.N)][:, rng.permutation(code.t)]
    return BinaryCode(bits=np.ascontiguousarray(bits), weight=code.weight)


# every shortened RS code with q <= 8 and at most 4096 columns
RS_CODES = [(q, k, r) for q in (2, 3, 4, 5, 7, 8) for k in range(2, q + 2) for r in range(k)
            if q ** (k - r) <= 4096]
# those with t > 2 columns, which have a d-code (s, l), 1 <= l < s < t
D_CODES = [(q, k, r) for q, k, r in RS_CODES if q ** (k - r) > 2]
# every one of dimension k - r >= 2 and at most 8^5 columns; k = q + 1 is
# the whole space of its length q + 1 - r
PERMUTED_CODES = [(q, k, r) for q in (2, 3, 4, 5, 7, 8) for k in range(2, q + 2)
                  for r in range(k - 1) if q ** (k - r) <= 8**5]


class TestTranslates:
    @pytest.mark.parametrize("q", [2, 4, 3, 9, 5, 25, 257])
    def test_digit_sum_takes_every_multiple_at_once(self, q):
        # span + c*g for every c in GF(p) in one call, as a stack of the
        # calls with one c each; the span's order is the multiples' order
        p = is_prime_power(q)[0]
        rng = np.random.default_rng(q)
        dtype = np.min_scalar_type(q - 1)
        span, g = rng.integers(0, q, (6, 5)).astype(dtype), rng.integers(0, q, 5).astype(dtype)
        stacked = np.stack([symmetry._digit_sum(span, g, c, p, q) for c in range(p)])
        multiples = np.arange(p, dtype=np.int32)[:, None, None]
        together = symmetry._digit_sum(span, g, multiples, p, q)
        assert together.dtype == dtype and np.array_equal(together, stacked)
        assert np.array_equal(symmetry._digit_sum(span, g, -1, p, q), stacked[p - 1])

    @pytest.mark.parametrize("q,k,r", RS_CODES, ids=[f"q{q}-k{k}-r{r}" for q, k, r in RS_CODES])
    def test_reduced_scans_match_full_scans(self, q, k, r):
        # every (s, l) whose full scan takes at most 10^7 row scans
        code = rs_binary(q, k, r)
        full = code.bits  # a plain array takes the full scan
        assert symmetry.translates(code) is not None and symmetry.translates(full) is None
        assert coincidence(code) == coincidence(full) == k - r - 1
        N, t = code.bits.shape
        for s in range(2, min(t, 8)):
            for l in range(1, s):
                if comb(t, s) * (t - s) * N <= 10**7:
                    assert check_d_code(code, s, l) == check_d_code(full, s, l), (s, l)

    def test_qary_columns_in_any_order(self):
        qary = shorten(rs_extended(FiniteField(9), 3), 1)
        sym = qary.symbols[:, np.random.default_rng(3).permutation(qary.t)]
        code = QaryCode(q=9, symbols=sym)
        assert np.array_equal(symmetry.translates(code), sym)
        assert coincidence(code) == qary_agreement_matrix(sym)[~np.eye(81, dtype=bool)].max() == 1

    def test_budget_counts_the_scans_that_run(self, ex1):
        # example 1 scans the comb(124, 2) subsets that contain column 0
        scans = comb(124, 2) * 122 * 20
        assert check_d_code(ex1, 3, 2, budget=scans).tuples_checked == comb(125, 3) * 122
        with pytest.raises(BudgetExceeded, match=f"^{scans} row scans exceed budget {scans - 1}$"):
            check_d_code(ex1, 3, 2, budget=scans - 1)
        assert check_d_code(rows_swapped(ex1), 3, 2, budget=scans) == check_d_code(ex1, 3, 2)
        with pytest.raises(BudgetExceeded, match=f"^{comb(125, 3) * 122 * 20} row scans"):
            check_d_code(ex1.bits, 3, 2, budget=scans)

    @pytest.mark.parametrize("change", ["one symbol", "swap in a column"])
    def test_perturbed_code_takes_the_full_scan(self, change):
        qary = shorten(rs_extended(FiniteField(5), 3), 1)
        sym = qary.symbols.copy()
        if change == "one symbol":
            sym[0, 7] = (sym[0, 7] + 1) % 5
        else:
            j = int(np.flatnonzero(sym[0] != sym[1])[3])
            sym[[0, 1], j] = sym[[1, 0], j]
        bad = QaryCode(q=5, symbols=sym)
        code = binary_expand(bad)
        assert symmetry.translates(bad) is None and symmetry.translates(code) is None
        assert coincidence(bad) == qary_agreement_matrix(sym)[~np.eye(25, dtype=bool)].max()
        assert coincidence(code) == coincidence(code.bits)
        for s in range(2, 5):
            for l in range(1, s):
                assert check_d_code(code, s, l) == check_d_code(code.bits, s, l), (s, l)

    def test_inputs_without_the_structure_are_declined(self, ex1, ex1_qary):
        assert symmetry.translates(ex1) is not None
        assert symmetry.translates(rows_swapped(ex1)) is not None  # rows in another order
        declined = {
            "plain array": ex1.bits,
            "no weight": BinaryCode(bits=ex1.bits),
            "q not a prime power": BinaryCode(bits=np.eye(6, dtype=np.uint8), weight=1),
            "t not a power of p": BinaryCode(bits=ex1.bits[:, :124], weight=4),
            "equal columns": BinaryCode(bits=ex1.bits[:, [0] * 125], weight=4),
            "symbol out of range": QaryCode(q=5, symbols=ex1_qary.symbols + 1),
        }
        signed = ex1.bits.astype(np.int8)  # int8 bits, accepted while they hold 0 and 1 only
        assert symmetry.translates(BinaryCode(bits=signed, weight=4)) is not None
        for bit in (2, -1):
            bits = signed.copy()
            bits[0, 0] = bit
            declined[f"bit {bit}"] = BinaryCode(bits=bits, weight=4)
        for name, code in declined.items():
            assert symmetry.translates(code) is None, name
        # GF(8) by identity columns: one block, the 8 translates of symbol 0
        assert symmetry.translates(BinaryCode(bits=np.eye(8, dtype=np.uint8), weight=1)) is not None

    @pytest.mark.parametrize("q,k,r", PERMUTED_CODES, ids=[f"q{q}-k{k}-r{r}" for q, k, r in PERMUTED_CODES])
    def test_rows_and_columns_in_any_order(self, q, k, r):
        # the detector finds the blocks and the labels itself; every (s, l)
        # whose full scan takes at most 10^7 row scans gives the plain
        # array's report
        code = permuted(rs_binary(q, k, r), seed=1000 * q + 10 * k + r)
        assert symmetry.translates(code) is not None
        assert coincidence(code) == k - r - 1
        N, t = code.bits.shape
        for s in range(2, min(t, 8)):
            for l in range(1, s):
                if comb(t, s) * (t - s) * N <= 10**7:
                    assert check_d_code(code, s, l) == check_d_code(code.bits, s, l), (s, l)

    def test_whole_space_with_its_rows_shuffled(self):
        # GF(8)^4 as 32 x 4096 (n = k = 4): with its rows shuffled the full
        # d-code (2, 1) scan would take 1,098,706,452,480 row scans; the
        # S that contain column 0 give the canonical code's witness
        code = rs_binary(8, 9, 5)
        rows = np.random.default_rng(1).permutation(code.N)
        shuffled = BinaryCode(bits=code.bits[rows], weight=code.weight)
        assert symmetry.translates(shuffled) is not None
        want = VerificationReport(False, {"S": (0, 1), "j": 184}, 183)
        assert check_d_code(shuffled, 2, 1, budget=10**12) == check_d_code(code, 2, 1) == want

    def test_row_orders_without_the_structure_are_declined(self):
        qary = shorten(rs_extended(FiniteField(5), 3), 1)
        overlap, moved = binary_expand(qary).bits.copy(), binary_expand(qary).bits.copy()
        v = int(qary.symbols[0, 7])
        overlap[[v, 5 + (qary.symbols[1, 7] + 1) % 5], 7] = [0, 1]  # two 1s in block 1
        moved[[v, (v + 1) % 5], 7] = [0, 1]  # blocks one-hot, column 7 off the code
        a, b = np.meshgrid(np.arange(6), np.arange(6))  # (a, b, a + b) over Z/6
        z6 = (np.array([a, b, (a + b) % 6]).reshape(3, 1, 36) == np.arange(6)[:, None])
        declined = {
            "a block whose rows overlap": BinaryCode(bits=overlap, weight=5),
            "one column moved inside its block": BinaryCode(bits=moved, weight=5),
            "q not a prime power": BinaryCode(bits=z6.reshape(18, 36).astype(np.uint8), weight=3),
            "no weight": BinaryCode(bits=binary_expand(qary).bits),
            "dimension 1": rs_binary(5, 2, 1),
        }
        # blocks and labels are found, but the columns are no coset: one
        # symbol changed in a column that agrees with column 0 nowhere
        ex1 = shorten(rs_extended(FiniteField(5), 5), 2).symbols.copy()
        c = int(np.flatnonzero((ex1 != ex1[:, :1]).all(axis=0))[0])
        ex1[0, c] = next(v for v in range(5) if v not in (ex1[0, 0], ex1[0, c]))
        off = binary_expand(QaryCode(q=5, symbols=ex1)).bits[np.random.default_rng(7).permutation(20)]
        declined["one symbol off the code"] = BinaryCode(bits=off, weight=4)
        for name, code in declined.items():
            code = permuted(code, seed=7) if name != "one symbol off the code" else code
            assert symmetry.translates(code) is None, name
            assert coincidence(code) == coincidence(code.bits), name
            N, t = code.bits.shape
            for s in range(2, 5):
                for l in range(1, s):
                    if comb(t, s) * (t - s) * N <= 10**7:
                        assert check_d_code(code, s, l) == check_d_code(code.bits, s, l), (name, s, l)

    def test_recovery_memory(self):
        # rows in another order cost O(N*w + n*t) memory, not an N x N product
        # (64 MiB in float32) nor a copy of the 16 MiB matrix
        code = permuted(rs_binary(64, 3, 1), seed=64)
        tracemalloc.start()
        try:
            symbols = symmetry.translates(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert symbols is not None and symbols.shape == (64, 4096)
        assert peak < 8 * 2**20


def small_tables(bits, l, scans, weak, entries):
    """multicover.cheaper made to take the DP wherever the state tables of
    the open columns hold at most 4096 entries, whatever the scan costs."""
    return (l + 1) ** int(bits[:, np.flatnonzero(~weak)].sum(axis=0).max(initial=0)) <= 4096


def multicover_path(path):
    """The path choice of check_d_code, and of check_cover_free and
    check_m_code at u = 1: the multicover DP wherever its tables are small,
    also below the scan's fixed-cost gate ("cover"), the scan ("scan"), or
    the checker's own choice ("default")."""
    stack = contextlib.ExitStack()
    if path == "cover":
        stack.enter_context(mock.patch.object(multicover, "COLUMN_COST", -1))
        stack.enter_context(mock.patch.object(multicover, "cheaper", small_tables))
    elif path == "scan":
        stack.enter_context(mock.patch.object(multicover, "cheaper", lambda *args: False))
    return stack


def d_code_by(path, X, s, l, budget=None):
    """check_d_code's report by its scan ("scan") or by the multicover DP
    wherever its tables are small ("cover"), and whether it enumerated S."""
    with multicover_path(path), \
            mock.patch.object(verify, "_batches", wraps=verify._batches) as spy:
        return check_d_code(X, s, l, budget=budget), spy.called


def never_enumerates():
    return mock.patch.object(verify, "_batches", side_effect=AssertionError("enumerated S"))


class TestMulticover:
    @pytest.mark.parametrize("q,k,r", D_CODES, ids=[f"q{q}-k{k}-r{r}" for q, k, r in D_CODES])
    def test_decision_matches_the_scan(self, q, k, r):
        # every (s, l) whose scan takes at most 10^7 row scans, on the code
        # with its rows and columns shuffled (where `translates` finds its
        # translates, the S that contain column 0 and column 0's DP alone)
        # and as a plain array (every column's DP).  A code with no (s, l)
        # that cheap compares the cheapest, (2, 1), on the shuffled code:
        # at most 1.3*10^9 row scans (t = 4096, N = 72).  So every code
        # compares at least one (s, l).  A satisfied report where the
        # DP ran comes without enumerating S, and a failure from the scan.
        # The DP runs where its tables are small or the columns are weak:
        # every row of an RS code has t/q ones, so all columns are alike
        code = rs_binary(q, k, r)
        N, t = code.bits.shape
        shuffled = permuted(code, seed=1000 * q + 10 * k + r)
        reduced = symmetry.translates(shuffled) is not None
        cheap = [(X, s, l) for s in range(2, min(t, 8)) for l in range(1, s)
                 for X, sets in ((shuffled, comb(t - 1, s - 1) if reduced else comb(t, s)),
                                 (code.bits, comb(t, s)))
                 if sets * (t - s) * N <= 10**7]
        for X, s, l in cheap or [(shuffled, 2, 1)]:
            scan, _ = d_code_by("scan", X, s, l, budget=10**13)
            cover, enumerated = d_code_by("cover", X, s, l, budget=10**13)
            assert cover == scan, (s, l)
            decided = (l + 1) ** code.weight <= 4096 or t // q <= l
            assert enumerated != (scan.satisfied and decided)

    def test_empty_column_fails(self):
        # supp(3) is empty, so c_3 = 0: every S fails with j = 3
        bits = np.eye(6, dtype=np.uint8)
        bits[3, 3] = 0
        rep, _ = d_code_by("cover", bits, 2, 1)
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == brute_report(
            "d_code", bits, {"s": 2, "l": 1})
        assert rep.witness == {"S": (0, 1), "j": 3}

    def test_no_rows(self):
        rep, _ = d_code_by("cover", np.zeros((0, 5), dtype=np.uint8), 2, 1)
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == (False, {"S": (0, 1), "j": 2}, 1)

    def test_row_met_by_l_other_columns_settles_nothing(self):
        # column 0's one row is met by exactly l = 2 other columns, so
        # S = {1, 2, x} gives it 2 hits; every other column has a row of
        # its own, which settles it
        bits = np.vstack([[1, 1, 1, 0, 0, 0], np.eye(6, dtype=np.uint8)[1:]])
        rep, _ = d_code_by("cover", bits, 3, 2)
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == brute_report(
            "d_code", bits, {"s": 3, "l": 2})
        assert rep.witness["j"] == 0

    def test_rows_met_by_fewer_than_l_columns_settle_without_a_dp(self):
        # each row of the 80 x 80 identity meets one column, so no S can
        # hit it; with a second 1 in row 0, that row still meets one column
        # other than each of its own, fewer than l = 2
        identity = np.eye(80, dtype=np.uint8)[np.random.default_rng(80).permutation(80)]
        wider = np.eye(80, dtype=np.uint8)
        wider[0, 1] = 1
        with mock.patch.object(multicover, "_covered", side_effect=AssertionError("DP ran")), \
                never_enumerates():
            assert check_d_code(identity, 3, 1).satisfied
            assert check_d_code(wider, 3, 2).satisfied

    def test_wide_supports_take_the_scan(self):
        # 2^24 states per column: the cost test alone would pass the DP
        # (about 9.7*10^17 row scans' worth of state updates against
        # 1.3*10^18 row scans), but its tables would take GBs; the scan
        # finds the first S at once
        t, N = 24000, 24
        dp = (t - 1) * 2**N * t * multicover.STATE_COST + t * multicover.COLUMN_COST
        assert dp < comb(t, 3) * (t - 3) * N <= 10**19
        X = np.ones((N, t), dtype=np.uint8)
        tracemalloc.start()
        try:
            rep = check_d_code(X, 3, 1, budget=10**19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == (False, {"S": (0, 1, 2), "j": 3}, 1)
        assert peak < 48 * 2**20

    def test_budget_still_compares_the_scan(self, ex2):
        # example 2's reduced scan charges 7.8*10^10 row scans, which the
        # default budget refuses; at 10^11 the DP decides without a scan
        with pytest.raises(BudgetExceeded, match="^78410801700 row scans exceed budget 1000000000$"):
            check_d_code(ex2, 4, 2)
        with never_enumerates():
            assert check_d_code(ex2, 4, 2, budget=10**11) == VerificationReport(
                True, None, comb(343, 4) * 339)

    def test_example_3(self, ex3):
        # (6, 2) and (10, 3) hold, out of any scan's reach; (11, 3) fails
        # (TestDCertificate has a witness), so the DP hands it to the scan
        with never_enumerates():
            for s, l in [(6, 2), (10, 3)]:
                scans = comb(511, s - 1) * (512 - s) * 56
                assert check_d_code(ex3, s, l, budget=scans) == VerificationReport(
                    True, None, comb(512, s) * (512 - s))
        assert not multicover.exceeds(ex3.bits, 11, 3, multicover.weak(ex3.bits, 3, 1))


PAIR_U1 = {
    "cover_free": (lambda X, n, **kw: check_cover_free(X, n, 1, **kw),
                   lambda X, n, **kw: cover_free_by_rows(X, n, 1, **kw)),
    "m_code": (lambda X, n, **kw: check_m_code(X, n, 1, **kw),
               lambda X, n, **kw: m_code_by_rows(X, n, 1, **kw)),
    "threshold": (lambda X, n, **kw: check_threshold_design(X, 1, n, **kw),
                  lambda X, n, **kw: threshold_pairs_by_loop(X, 1, n, False, **kw)),
    "threshold_bar": (lambda X, n, **kw: check_threshold_bar_design(X, 1, n, **kw),
                      lambda X, n, **kw: threshold_pairs_by_loop(X, 1, n, True, **kw)),
}


def pair_u1_by(path, prop, X, n, budget=None):
    """check_cover_free(X, n, 1), check_m_code(X, n, 1) or a threshold check
    at (1, n) by the scan or by the multicover DP wherever its tables are
    small (`multicover_path`), whether the DP ran, and whether the pair
    scan did."""
    with multicover_path(path), \
            mock.patch.object(verify, "_pair_scan", wraps=verify._pair_scan) as scan, \
            mock.patch.object(multicover, "exceeds", wraps=multicover.exceeds) as dp:
        rep = PAIR_U1[prop][0](X, n, budget=budget)
    return rep, dp.called, scan.called


@st.composite
def pair_u1_inputs(draw, prop):
    """A matrix of `checker_inputs`, at times with one column emptied, and a
    z (cover-free) or s (the others) that the checker takes at u = 1."""
    bits, _ = draw(checker_inputs(prop))
    t = bits.shape[1]
    if draw(st.booleans()):
        bits = bits.copy()
        bits[:, draw(st.integers(0, t - 1))] = 0
    n = draw(st.integers(1, t - 1) if prop == "cover_free" else st.integers(2, (t - 1) // 2))
    return bits, n


def covered_once(w, t):
    """Column 0's w rows, each met by one column of 1..w; every column but 0
    has a row of its own.  So c_0 = w, and every other c_j is infinite."""
    bits = np.zeros((w + t - 1, t), dtype=np.uint8)
    bits[np.arange(w), 0] = 1
    bits[np.arange(w), np.arange(1, w + 1)] = 1
    bits[np.arange(w, w + t - 1), np.arange(1, t)] = 1
    return bits


class TestPairMulticover:
    """cover-free (z, 1) holds iff every c_j > z, m-code (s, 1) iff every
    c_j > 2s - 1, and threshold (1, s) and threshold-bar (1, s) iff every
    c_j > s; the DP's satisfied reports and the scan's failures match the
    row-loop oracles and the scan.  Each asks the DP before its scan."""

    @pytest.mark.parametrize("path", ["cover", "default"])
    @pytest.mark.parametrize("prop", sorted(PAIR_U1))
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_rows_oracle_and_scan(self, prop, path, data):
        bits, n = data.draw(pair_u1_inputs(prop))
        rep, _, scanned = pair_u1_by(path, prop, bits, n)
        scan, _, _ = pair_u1_by("scan", prop, bits, n)
        assert rep == scan == PAIR_U1[prop][1](bits, n)
        assert scanned or rep.satisfied

    @pytest.mark.parametrize("prop", sorted(PAIR_U1))
    def test_empty_column_fails_with_the_scans_witness(self, prop):
        # supp(4) is empty, so c_4 = 0; every other column has a row of its
        # own.  The DP finds it, and the scan finds the witness
        bits = np.eye(9, dtype=np.uint8)
        bits[4, 4] = 0
        rep, ran, scanned = pair_u1_by("cover", prop, bits, 2)
        assert ran and scanned and not rep.satisfied
        assert rep == pair_u1_by("scan", prop, bits, 2)[0] == PAIR_U1[prop][1](bits, 2)

    @pytest.mark.parametrize("prop, n, t", [("cover_free", 3, 60), ("m_code", 3, 16),
                                            ("threshold", 2, 40), ("threshold_bar", 2, 40),
                                            ("cover_free", 1, 7), ("m_code", 2, 7),
                                            ("threshold", 3, 7), ("threshold_bar", 3, 7)])
    def test_weak_columns_settle_without_a_dp_or_scan(self, prop, n, t):
        # every row of a permuted identity meets one column: all columns are
        # weak, so the DP prices nothing and runs no column, and no scan
        # runs; the first four are the benchmark's inputs, decided by default
        X = np.eye(t, dtype=np.uint8)[np.random.default_rng(t).permutation(t)]
        path = "default" if t > 7 else "cover"
        with mock.patch.object(multicover, "_covered", side_effect=AssertionError("DP ran")):
            rep, ran, scanned = pair_u1_by(path, prop, X, n)
        assert ran and not scanned
        assert rep == PAIR_U1[prop][1](X, n)

    @pytest.mark.parametrize("prop, n", [("cover_free", 1), ("cover_free", 2), ("m_code", 2),
                                         ("threshold", 2), ("threshold_bar", 2)])
    def test_example_1_rows_shuffled_decides_column_0(self, ex1, prop, n):
        # translates accepts example 1 with its rows and columns shuffled,
        # so the DP decides column 0 alone; c_0 = 2 there, so cover-free
        # (1, 1) holds and the others fail, which only the scan reports
        X = permuted(ex1, seed=19)
        with mock.patch.object(multicover, "exceeds", wraps=multicover.exceeds) as spy:
            rep, _, scanned = pair_u1_by("cover", prop, X, n, budget=3 * 10**9)
        assert rep.satisfied == ((prop, n) == ("cover_free", 1)) != scanned
        assert len(spy.call_args.args[3]) == 1
        assert rep == pair_u1_by("scan", prop, X, n, budget=3 * 10**9)[0]
        assert rep == PAIR_U1[prop][1](X.bits, n, budget=3 * 10**9)

    @pytest.mark.parametrize("prop", sorted(PAIR_U1))
    @pytest.mark.parametrize("s", [2, 3])
    def test_boundary_cover_size(self, prop, s):
        # m-code (s, 1) fails at c_0 = 2s - 1 and holds at c_0 = 2s;
        # cover-free (z, 1) at z = 2s - 1 fails at c_0 = z and holds above;
        # threshold and threshold-bar (1, s) fail at c_0 = s and hold at
        # s + 1.  The DP runs on both, and the scan only where it fails
        t = 4 * s
        n = {"cover_free": 2 * s - 1, "m_code": s}.get(prop, s)
        bound = {"cover_free": 2 * s - 1, "m_code": 2 * s - 1}.get(prop, s)
        for w in (bound, bound + 1):
            bits = covered_once(w, t)
            rep, ran, scanned = pair_u1_by("cover", prop, bits, n)
            assert ran and rep.satisfied == (w > bound) != scanned
            assert rep == pair_u1_by("scan", prop, bits, n)[0] == PAIR_U1[prop][1](bits, n)

    @pytest.mark.parametrize("t, s, count", [(40, 2, (640380, 670020)), (7, 3, (2779, 3654)),
                                             (13, 4, (894777, 1179490))])
    def test_threshold_counts_in_closed_form(self, t, s, count):
        # the DP's satisfied counts are the scan's on the permuted identity:
        # 640,380 and 670,020 are the benchmark's 40 x 40 one at (1, 2)
        X = np.eye(t, dtype=np.uint8)[np.random.default_rng(s).permutation(t)]
        budget = 10**11
        for prop, expected in zip(("threshold", "threshold_bar"), count):
            rep, ran, scanned = pair_u1_by("cover", prop, X, s, budget=budget)
            assert ran and not scanned and rep == VerificationReport(True, None, expected)
            assert rep == pair_u1_by("scan", prop, X, s, budget=budget)[0]

    def test_screen_inputs_keep_the_scan(self):
        # 40 x 30 matrices at (2, 1) and (1, 2) have no weak column.  The
        # charges of cover-free, d-code and design sit below their fixed
        # cost, so no row sum runs; those of m-code and the threshold
        # checks pass it, so each pays one row sum, and then the DP does
        # not pay
        weak = mock.patch.object(multicover, "weak", wraps=multicover.weak)
        design = OutcomeFunction((0, 1))
        with mock.patch.object(multicover, "exceeds", side_effect=AssertionError("DP ran")):
            for seed in range(16):
                X = random_code(40, 30, 0.25, seed=seed).bits
                for rows in (X, X[np.random.default_rng(seed).permutation(40)]):
                    with weak as spy:
                        check_cover_free(rows, 2, 1)
                        check_d_code(rows, 2, 1)
                        check_design(rows, design, 2)
                    assert not spy.called
                    for check in (lambda X: check_m_code(X, 2, 1),
                                  lambda X: check_threshold_design(X, 1, 2),
                                  lambda X: check_threshold_bar_design(X, 1, 2)):
                        with weak as spy:
                            check(rows)
                        assert spy.call_count == 1


def design_by(path, X, values, s, mode="at-most"):
    """check_design's report by its key scan ("scan") or by the multicover
    DP wherever its tables are small (`multicover_path`), whether the DP
    ran, and whether the key scan did."""
    with multicover_path(path), \
            mock.patch.object(multicover, "exceeds", wraps=multicover.exceeds) as dp, \
            mock.patch.object(verify, "_batches", wraps=verify._batches) as scan:
        rep = check_design(X, OutcomeFunction(values), s, mode)
    return rep, dp.called, scan.called


@st.composite
def design_l1_inputs(draw):
    """A matrix of `checker_inputs`, at times with one column emptied, a map
    of two labels, a strength and a mode."""
    bits, _ = draw(checker_inputs("design"))
    t = bits.shape[1]
    if draw(st.booleans()):
        bits = bits.copy()
        bits[:, draw(st.integers(0, t - 1))] = 0
    values = tuple(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)))
    return bits, values, draw(st.integers(1, t - 1)), draw(st.sampled_from(["at-most", "exactly"]))


class TestDesignMulticover:
    """A design with a 0/1 map holds where every c_j > s: the DP's satisfied
    reports match the dict oracle and the key scan, and everything else is
    left to the scan."""

    @pytest.mark.parametrize("path", ["cover", "default"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_dict_oracle_and_scan(self, path, data):
        bits, values, s, mode = data.draw(design_l1_inputs())
        rep, _, scanned = design_by(path, bits, values, s, mode)
        assert rep == design_by("scan", bits, values, s, mode)[0]
        assert rep == design_by_dict(bits, OutcomeFunction(values), s, mode)
        assert scanned or rep.satisfied

    def test_empty_column_fails_with_the_scans_witness(self):
        bits = np.eye(9, dtype=np.uint8)
        bits[4, 4] = 0
        rep, ran, scanned = design_by("cover", bits, (0, 1), 2)
        assert ran and scanned and rep == design_by_dict(bits, OutcomeFunction((0, 1)), 2)
        assert rep.witness == {"P": (0,), "Pprime": (0, 4)}

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_boundary_cover_size(self, s):
        # c_0 = s + 1 is decided by the DP without a scan; c_0 = s leaves
        # the decision to the scan, and the design holds there too, as no
        # candidate of s columns has the union of {0} and its cover
        for w in (s, s + 1):
            bits = covered_once(w, 4 * s)
            rep, ran, scanned = design_by("cover", bits, (0, 1), s)
            assert ran and scanned == (w == s) and rep.satisfied
            assert rep == design_by("scan", bits, (0, 1), s)[0]
            assert rep == design_by_dict(bits, OutcomeFunction((0, 1)), s)

    def test_the_converse_is_left_to_the_scan(self):
        # supp(0) lies inside supp(1), so c_0 = 1, yet the two supports
        # differ: the design holds at s = 1, and only the scan can say so
        bits = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8)
        rep, ran, scanned = design_by("cover", bits, (0, 1), 1)
        assert ran and scanned and rep == VerificationReport(True, None, 3)

    @pytest.mark.parametrize("s", [1, 2])
    def test_example_1_rows_shuffled_decides_column_0(self, ex1, s):
        # c_0 = 2: s = 1 holds from column 0 alone, s = 2 goes to the scan
        X = permuted(ex1, seed=21)
        with mock.patch.object(multicover, "exceeds", wraps=multicover.exceeds) as spy:
            rep, _, scanned = design_by("cover", X, (0, 1), s)
        assert len(spy.call_args.args[3]) == 1
        assert rep.satisfied == (s == 1) != scanned
        assert rep == design_by("scan", X, (0, 1), s)[0]
        assert rep == design_by_dict(X.bits, OutcomeFunction((0, 1)), s)

    def test_benchmark_identity_without_a_dp_or_scan(self):
        # the 64 x 64 permuted identity at s = 3: 43,744 candidates, every
        # column weak
        X = np.eye(64, dtype=np.uint8)[np.random.default_rng(64).permutation(64)]
        with mock.patch.object(multicover, "_covered", side_effect=AssertionError("DP ran")), \
                never_enumerates():
            assert check_design(X, OutcomeFunction((0, 1)), 3) == VerificationReport(
                True, None, 43744)

    @pytest.mark.parametrize("values", [(0, 1, 2), (0, 0, 1), (2, 0, 1), (0, 1, 1, 2)])
    def test_maps_with_l_above_1_keep_the_scan(self, values):
        X = np.eye(20, dtype=np.uint8)[np.random.default_rng(20).permutation(20)]
        with mock.patch.object(multicover, "weak", side_effect=AssertionError("asked the DP")):
            for path in ("cover", "default"):
                rep, ran, scanned = design_by(path, X, values, 3)
                assert scanned and not ran
                assert rep == design_by_dict(X, OutcomeFunction(values), 3)

    def test_gate_in_key_scan_units(self):
        # the key scan's charge counts DESIGN_SCAN_COST d-code row scans each:
        # screen's 40 x 30 inputs at s = 2 charge 465 * 40 of them, below the
        # gate, and the 64 x 64 identity 43744 * 64, above it
        assert 465 * 40 * multicover.DESIGN_SCAN_COST <= multicover.COLUMN_COST
        assert 43744 * 64 * multicover.DESIGN_SCAN_COST > multicover.COLUMN_COST


@contextlib.contextmanager
def d_code_paths():
    """The path of each check_d_code call: "budget" where it raised
    BudgetExceeded, "dp" where the multicover DP decided it, "dp, scan"
    where the scan ran after the DP, and "scan" where only the scan ran."""
    paths = []
    real = verify.check_d_code

    def recorded(*args, **kwargs):
        with mock.patch.object(multicover, "exceeds", wraps=multicover.exceeds) as dp, \
                mock.patch.object(verify, "_batches", wraps=verify._batches) as scan:
            try:
                report = real(*args, **kwargs)
            except BudgetExceeded:
                paths.append("budget")
                raise
        paths.append(", ".join(name for name, spy in (("dp", dp), ("scan", scan)) if spy.called))
        return report

    with mock.patch.object(verify, "check_d_code", recorded):
        yield paths


class TestDCodePaths:
    """Every d-code call of the benchmark and of the README examples takes
    the path it took before the DP's state updates were priced at
    STATE_COST row scans each."""

    @pytest.mark.parametrize("argv, paths", [
        (["verify", "ex1.sic", "d-code", "3", "2"], ["dp"]),
        (["examples"], ["dp", "budget", "budget", "budget"]),
        (["examples", "--budget", "100000000000"], ["dp", "dp", "budget", "budget"]),
        (["verify", "ex3.sic", "d-code", "6", "2", "--budget", "8067478710122832"], ["dp"]),
    ])
    def test_cli_calls(self, ex1, ex3, tmp_path, monkeypatch, capsys, argv, paths):
        from sic.cli import main
        from sic.matrixfile import write_matrix
        monkeypatch.chdir(tmp_path)
        write_matrix(permuted(ex1, seed=2), "ex1.sic")
        write_matrix(ex3, "ex3.sic")
        with d_code_paths() as taken:
            main(argv)
        capsys.readouterr()
        assert taken == paths

    def test_library_calls(self):
        # the benchmark's 80 x 80 permuted identity at (3, 1) and screen's
        # 40 x 30 random matrices at (2, 1)
        identity = np.eye(80, dtype=np.uint8)[np.random.default_rng(80).permutation(80)]
        with d_code_paths() as taken:
            verify.check_d_code(identity, 3, 1)
            for seed in range(8):
                verify.check_d_code(random_code(40, 30, 0.25, seed=seed).bits, 2, 1)
        assert taken == ["dp"] + ["scan"] * 8


@contextlib.contextmanager
def decision_events(raising):
    """The calls a check makes to multicover.proves, multicover.exceeds,
    the enumeration seam _batches and _pair_scan, in order; those named in
    `raising` raise."""
    events = []

    def spy(module, name):
        real = getattr(module, name)

        def called(*args, **kwargs):
            events.append(name)
            if name in raising:
                raise AssertionError(f"{name} ran")
            return real(*args, **kwargs)
        return mock.patch.object(module, name, called)

    with spy(multicover, "proves"), spy(multicover, "exceeds"), \
            spy(verify, "_batches"), spy(verify, "_pair_scan"):
        yield events


def path_inputs(name, ex1):
    """The matrices of a row of PATH_PINS: a permuted identity of n columns,
    example 1 as built or with its rows and columns shuffled, or 16
    matrices shaped like the benchmark's screen, their rows shuffled."""
    if name.startswith("identity"):
        n = int(name.split()[1])
        rng = np.random.default_rng(n)
        return [np.eye(n, dtype=np.uint8)[rng.permutation(n)][:, rng.permutation(n)]]
    if name.startswith("ex1"):
        return [permuted(ex1, seed=2) if name.endswith("shuffled") else ex1]
    return [random_code(40, 30, 0.25, seed=seed).bits[np.random.default_rng(seed).permutation(40)]
            for seed in range(16)]


def run_check(X, check, budget):
    """A check named as on the command line, `design l s` with the
    saturating map of l."""
    name, a, b = check.split()
    if name == "design":
        return check_design(X, OutcomeFunction.saturating(int(a)), int(b), budget=budget)
    call = {"cover-free": check_cover_free, "d-code": check_d_code, "m-code": check_m_code,
            "threshold": check_threshold_design, "threshold-bar": check_threshold_bar_design}
    return call[name](X, int(a), int(b), budget=budget)


EX1_CHECKS = [("d-code 3 2", None, "dp"), ("cover-free 1 1", None, "scan"),
              ("cover-free 2 1", None, "dp, scan"), ("m-code 2 1", 3 * 10**9, "dp, scan"),
              ("threshold 1 2", 2 * 10**9, "dp, scan"), ("threshold-bar 1 2", 2 * 10**9, "dp, scan"),
              ("design 1 1", None, "scan"), ("design 1 2", None, "dp, scan"),
              ("design 2 3", None, "scan")]
# (inputs, check, budget, path): "dp" where multicover.exceeds decides with
# no scan, "dp, scan" where it finds some c_j at or below the bound and the
# scan finds the witness, "scan" where the gate, the price or l >= 2 keeps
# the DP from running
PATH_PINS = [(f"identity {n}", check, None, "dp") for n, check in [
    (60, "cover-free 3 1"), (80, "d-code 3 1"), (16, "m-code 3 1"), (64, "design 1 3"),
    (40, "threshold 1 2"), (40, "threshold-bar 1 2")]]
PATH_PINS += [(name, *row) for name in ("ex1", "ex1 shuffled") for row in EX1_CHECKS]
PATH_PINS += [("screen", check, None, "scan") for check in [
    "cover-free 2 1", "d-code 2 1", "m-code 2 1", "design 1 2", "threshold 1 2",
    "threshold-bar 1 2"]]


class TestDecisionPaths:
    """The path each check takes on the benchmark's inputs and on example 1,
    with the path it does not take patched to raise.  Each check calls
    multicover.proves at most once, before it enumerates anything."""

    @pytest.mark.parametrize("inputs, check, budget, path", PATH_PINS,
                             ids=[f"{name}-{check}" for name, check, _, _ in PATH_PINS])
    def test_path(self, ex1, inputs, check, budget, path):
        raising = {"dp": ("_batches", "_pair_scan"), "scan": ("exceeds",), "dp, scan": ()}[path]
        for X in path_inputs(inputs, ex1):
            with decision_events(raising) as events:
                run_check(X, check, budget)
            scans = [i for i, name in enumerate(events) if name in ("_batches", "_pair_scan")]
            assert events.count("proves") <= 1 and events.count("exceeds") <= 1
            if "proves" in events:
                assert events.index("proves") < min(scans, default=len(events))
            taken = [("dp", "exceeds" in events), ("scan", bool(scans))]
            assert ", ".join(name for name, ran in taken if ran) == path


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

    @pytest.mark.parametrize("path", ["scan", "default"])
    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float32, np.float64])
    @pytest.mark.parametrize("name", [name for name in CALLS if name != "d_certificate"])
    def test_every_dtype_of_0_1_entries_gives_the_uint8_report(self, name, dtype, path):
        # a BinaryCode keeps its bits in the dtype it was given; the scans
        # pack, and the multicover DP counts, float and wide integer 0/1
        # entries as they do uint8 ones.  The identity rows leave columns
        # open to the DP on the default path
        X = np.vstack([np.eye(21, dtype=np.uint8), random_code(12, 21, 0.3, seed=3).bits])
        with multicover_path(path):
            assert self.CALLS[name](BinaryCode(bits=X.astype(dtype), weight=None)) \
                == self.CALLS[name](X)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_binary_code_bits_are_read_as_uint8(self, tmp_path, dtype):
        # `_bits` casts a BinaryCode's 0/1 bits to uint8 once, so the six
        # checkers, the certificate and the matrix file see the uint8
        # matrix; coincidence reads the bits as stored.  The rows of the
        # 2-subsets of 7 columns give every column weight 6
        from sic.matrixfile import write_matrix
        pairs = BinaryCode(bits=pair_matrix(7).bits.astype(np.uint8), weight=6)
        code = BinaryCode(bits=pairs.bits.astype(dtype), weight=6)
        assert verify._bits(code).dtype == np.uint8
        assert verify._bits(code, binary=False) is code.bits
        for name, call in self.CALLS.items():
            assert call(code) == call(pairs), name
        write_matrix(code, tmp_path / "wide.sic")
        write_matrix(pairs, tmp_path / "uint8.sic")
        assert (tmp_path / "wide.sic").read_bytes() == (tmp_path / "uint8.sic").read_bytes()

    @pytest.mark.parametrize("call, message", [
        (lambda: check_d_code(np.zeros(4, np.uint8), 2, 1), "binary code must be a 2-D matrix"),
        (lambda: check_design(np.eye(4, dtype=np.uint8), OutcomeFunction.saturating(3), 2),
         "need 1 <= l <= s < t, got l=3, s=2, t=4"),
    ], ids=["d_code-1-D", "design-l-above-s"])
    def test_shape_and_range_errors(self, call, message):
        with pytest.raises(ParameterOutOfRange) as exc:
            call()
        assert str(exc.value) == message


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
    each batch holds one subset or seven.  d-code takes its multicover DP
    wherever the DP's tables are small by default, and its scan when
    batched, which would otherwise not run on satisfying inputs."""

    @pytest.mark.parametrize("batch", [None, 1, 7], ids=["default", "batch1", "batch7"])
    @pytest.mark.parametrize("prop", sorted(CHECKERS))
    @settings(deadline=None)  # the oracle takes a few hundred ms on satisfying inputs
    @given(data=st.data())
    def test_matches_brute_force(self, prop, batch, data):
        bits, params = data.draw(checker_inputs(prop))
        patch = (contextlib.nullcontext() if batch is None
                 else mock.patch.object(verify, "_MAX_BATCH", batch))
        with patch, multicover_path("cover" if batch is None else "scan"):
            rep = CHECKERS[prop](bits, params)
        assert (rep.satisfied, rep.witness, rep.tuples_checked) == brute_report(prop, bits, params)


def scan_sizes(size, X, inner, group=1):
    """Make the pair scans of X, with `inner` inner sets and outer rows in
    groups of `group`, take n groups per block ("block<n>") or n subsets
    per batch ("batch<n>"), by the rule of `verify._check_pairs`;
    "default" changes nothing."""
    if size == "default":
        return contextlib.nullcontext()
    n = int(size[5:])
    if size.startswith("batch"):
        return mock.patch.object(verify, "_MAX_BATCH", n)
    N, t = np.shape(X)
    words = max(word_count(N), word_count(t))
    return mock.patch.object(verify, "PAIR_WORDS", n * inner * words * group)


def design_batches(size):
    """Make check_design write `size` candidates per batch (None: the default)."""
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.object(verify, "_MAX_BATCH", size)


@st.composite
def packed_inputs(draw, t_min, t_max, rows=st.integers(1, 12) | st.integers(63, 130)):
    """A matrix with t_min..t_max columns and `rows` rows, by default 1..12
    or 63..130, so that row flags and design keys take one, two or three
    words (up to seven with three-bit labels); sometimes with identity rows
    on top, so that strong properties can hold."""
    t = draw(st.integers(t_min, t_max))
    N = draw(rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = (rng.random((N, t)) < draw(st.sampled_from([0.1, 0.25, 0.5]))).astype(np.uint8)
    if draw(st.booleans()):
        k = min(N, t)
        X[:k] = np.eye(t, dtype=np.uint8)[:k]
    return X


TWO_WORD_CHECKS = {  # prop: (checker, oracle, strengths, most columns)
    "cover_free": (lambda X, p, **kw: check_cover_free(X, p["z"], p["u"], **kw),
                   lambda X, p, **kw: cover_free_by_rows(X, p["z"], p["u"], **kw),
                   [{"z": 1, "u": 1}, {"z": 2, "u": 1}, {"z": 1, "u": 2}], 130),
    "d_code": (lambda X, p, **kw: check_d_code(X, p["s"], p["l"], **kw),
               lambda X, p, **kw: d_code_by_hits(X, p["s"], p["l"], **kw),
               [{"s": 2, "l": 1}, {"s": 3, "l": 2}], 130),
    # a threshold map at l = 2, and three labels, b = 2 bits of key per row
    "design": (lambda X, p, **kw: check_design(X, OutcomeFunction(p["values"]), 2, p["mode"],
                                               **kw),
               lambda X, p, **kw: design_by_dict(X, OutcomeFunction(p["values"]), 2, p["mode"],
                                                 **kw),
               [{"values": v, "mode": m} for v in [(0, 0, 1), (0, 1, 2)]
                for m in ["at-most", "exactly"]], 130),
    # where they hold, these s = 2 scans and their oracles' loops grow as t^4
    "m_code": (lambda X, p, **kw: check_m_code(X, 2, 1, **kw),
               lambda X, p, **kw: m_code_by_rows(X, 2, 1, **kw), [{}], 72),
    "threshold": (lambda X, p, **kw: check_threshold_design(X, 1, 2, **kw),
                  lambda X, p, **kw: threshold_pairs_by_loop(X, 1, 2, False, **kw), [{}], 80),
    "threshold_bar": (lambda X, p, **kw: check_threshold_bar_design(X, 1, 2, **kw),
                      lambda X, p, **kw: threshold_pairs_by_loop(X, 1, 2, True, **kw), [{}], 80),
}


class TestPackedScansAgainstOracles:
    """The word-packed pair and duplicate scans give the reports of the
    loop and dict scans they replaced, also when a block holds one or seven
    outer sets and when a batch holds one or seven candidates."""

    @pytest.mark.parametrize("prop", sorted(TWO_WORD_CHECKS))
    @settings(deadline=None, max_examples=6)
    @given(data=st.data())
    def test_two_word_reports_match_oracles(self, prop, data):
        # 65 or more rows and columns: every row flag, column set and design
        # key takes two or more words.  The scan runs, as the DP is refused
        checker, oracle, strengths, t_max = TWO_WORD_CHECKS[prop]
        X = data.draw(packed_inputs(65, t_max, rows=st.integers(65, 130)))
        p = data.draw(st.sampled_from(strengths))
        with multicover_path("scan"):
            got = checker(X, p, budget=10**13)
        assert got == oracle(X, p, budget=10**13)

    @pytest.mark.parametrize("size", ["default", "block1", "block7"])
    @pytest.mark.parametrize("bar", [False, True], ids=["threshold", "threshold_bar"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_threshold_pairs_match_loop(self, bar, size, data):
        X = data.draw(packed_inputs(5, 10))
        s = data.draw(st.integers(2, (X.shape[1] - 1) // 2))
        u = data.draw(st.integers(1, s - 1))
        with scan_sizes(size, X, subsets.lex_count(X.shape[1], u, s)):
            got = verify._check_threshold_pairs(X, u, s, bar, None)
        assert got == threshold_pairs_by_loop(X, u, s, bar)

    @pytest.mark.parametrize("size", ["block1", "block7"])
    @pytest.mark.parametrize("bar", [False, True], ids=["threshold", "threshold_bar"])
    def test_threshold_pairs_with_two_column_words(self, bar, size):
        # N <= 64 < t: a set's columns take two words and its rows one, so
        # W = 2 for both checkers.  The first bad pair is P = (0, 40),
        # P' = (0,): column 40 is empty, and P is outer set 40.
        X = np.eye(40, 70, dtype=np.uint8)
        inner = subsets.lex_count(70, 1, 2)
        rule = verify._not_within if bar else verify._smaller_other
        with scan_sizes(size, X, inner):
            assert verify._check_pairs(rule, 40, 70, (1, 2), (1, 2), None).size == int(size[5:])
            got = verify._check_threshold_pairs(X, 1, 2, bar, None)
        assert got == threshold_pairs_by_loop(X, 1, 2, bar)
        assert got.witness == {"P": (0, 40), "Pprime": (0,)}

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
        with scan_sizes("block3", X, subsets.lex_count(7, 1, 2)):
            assert check_threshold_design(X, 1, 2) == want
        assert threshold_pairs_by_loop(X, 1, 2, bar=False) == want

    def test_threshold_bar_two_member_words(self):
        # 70 columns: each set's columns take two words
        X = np.eye(70, dtype=np.uint8)
        for Y in (X, np.hstack([X[:, :69], X[:, :1]])):
            assert check_threshold_bar_design(Y, 1, 2) == threshold_pairs_by_loop(Y, 1, 2, True)


    @pytest.mark.parametrize("size", ["default", "block1", "block7", "batch1", "batch7"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_cover_free_matches_rows(self, size, data):
        X = data.draw(packed_inputs(2, 10))
        t = X.shape[1]
        z = data.draw(st.integers(1, t - 1))
        u = data.draw(st.integers(1, t - z))
        with scan_sizes(size, X, comb(t, z)):
            got = check_cover_free(X, z, u)
        assert got == cover_free_by_rows(X, z, u)

    @pytest.mark.parametrize("size", ["default", "block1", "block7", "batch1", "batch7"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_m_code_matches_rows(self, size, data):
        X = data.draw(packed_inputs(5, 10))
        s = data.draw(st.integers(2, (X.shape[1] - 1) // 2))
        u = data.draw(st.integers(1, s - 1))
        with scan_sizes(size, X, subsets.lex_count(X.shape[1], 0, s), group=s):
            got = check_m_code(X, s, u)
        assert got == m_code_by_rows(X, s, u)

    def test_m_code_pairs_run_by_z_then_j(self):
        # within U = (0, 1) the first bad pair in (U, Z, j) order is
        # Z = (2, 4), j = 1; in (U, j, Z) order it would be Z = (3, 5), j = 0
        rows = ("0011101", "1001000", "0100101", "0100100", "1010011", "0110001", "1000110")
        X = np.array([[int(c) for c in row] for row in rows], dtype=np.uint8)
        want = VerificationReport(False, {"U": (0, 1), "Z": (2, 4), "j": 1}, 15)
        for size in ("default", "block1", "batch1"):
            with scan_sizes(size, X, subsets.lex_count(7, 0, 2), group=2):
                assert check_m_code(X, 2, 1) == want
        assert m_code_by_rows(X, 2, 1) == want

    @pytest.mark.parametrize("prop", ["cover_free", "m_code", "threshold", "threshold_bar"])
    def test_reports_hold_python_ints(self, prop):
        # json.dumps refuses numpy integers, and repr shows them as np.int64(...)
        params = {"z": 2, "u": 1} if prop == "cover_free" else {"s": 2, "u": 1}
        for X in (np.eye(7, dtype=np.uint8), np.ones((3, 7), dtype=np.uint8)):
            rep = CHECKERS[prop](X, params)
            assert type(rep.tuples_checked) is int
            assert all(type(c) is int for v in (rep.witness or {}).values()
                       for c in (v if isinstance(v, tuple) else (v,)))

    def test_first_set_failing_stops_both_families(self):
        # column 0 is empty, so U = (0,) fails against its first disjoint
        # Z, (1, 2), the eighth of 28 in lex order.  With seven subsets per
        # batch the scan enumerates one batch of U and two of the four
        # batches of Z.
        X = np.eye(8, dtype=np.uint8)
        X[0, 0] = 0
        sizes = []

        def spy(n, lo, hi, size, first=None):
            for batch in subsets.lex_batches(n, lo, hi, size, first):
                sizes.append((lo, len(batch)))
                yield batch

        with mock.patch.object(verify, "_MAX_BATCH", 7), mock.patch.object(verify, "lex_batches", spy):
            got = check_cover_free(X, 2, 1)
        assert got == cover_free_by_rows(X, 2, 1) == VerificationReport(
            False, {"U": (0,), "Z": (1, 2)}, 1)
        assert sizes == [(1, 7), (2, 7), (2, 7)]

    def test_early_failure_builds_one_block_of_the_outer_family(self):
        # column 0 is empty, so U = (0, 1) fails at its first Z.  The outer
        # family is built in batches of one block, then two, four, ..., so
        # only the first block of its 44,850 sets is built: its index rows
        # and its words
        X = (np.random.default_rng(3).random((40, 300)) < 0.25).astype(np.uint8)
        X[:, 0] = 0
        size = verify._check_pairs(verify._apart, 40, 300, (2, 2), (1, 1), None).size
        rows = []

        def enumerated(n, lo, hi, most, first=None):
            for batch in subsets.lex_batches(n, lo, hi, most, first):
                rows.append((lo, len(batch)))
                yield batch

        with mock.patch.object(verify, "at_least", wraps=verify.at_least) as spy, \
                mock.patch.object(verify, "lex_batches", enumerated):
            got = check_cover_free(X, 1, 2)
        assert got == cover_free_by_rows(X, 1, 2) == VerificationReport(
            False, {"U": (0, 1), "Z": (2,)}, 1)
        # the row flags of the first block of U, then of all 300 Z; a set's
        # columns (the kernel on the identity's 300 rows) may come from the
        # enumeration's cache, so those calls are left out
        flags = [len(call.args[1]) for call in spy.call_args_list if call.args[3] == 40]
        assert flags == [size, 300]
        assert [entry for entry in rows if entry[0] == 2] == [(2, size)]

    def test_wide_pair_scan_memory(self):
        # 8000 columns: each set's columns take 125 words, and the stored
        # family of 8000 singletons about 7.75 MiB; the identity's words
        # (8 MB) are built without the dense 8000 x 8000 flags (64 MB, plus
        # pack's padded copy), which held the peak at 145.5 MiB
        X = np.ones((24, 8000), dtype=np.uint8)
        verify._whole.cache_clear()
        verify.identity.cache_clear()
        tracemalloc.start()
        try:
            got = check_cover_free(X, 1, 1, budget=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == VerificationReport(False, {"U": (0,), "Z": (1,)}, 1)
        assert peak <= 20 * 2**20

    def test_threshold_failure_in_the_first_block_builds_one_part(self, ex1):
        # example 1 at (2, 3) fails at its first pair.  The first block is
        # one set, and its first bad pair lies in the inner family's first
        # part of 16384 of its 325,500 sets, so the flags are built for the
        # outer family's first block and the inner family's first part alone
        size = verify._check_pairs(verify._smaller_other, 20, 125, (2, 3), (2, 3), 10**13).size
        with mock.patch.object(verify, "_below", wraps=verify._below) as spy:
            got = check_threshold_design(ex1, 2, 3, budget=10**13)
        assert got == VerificationReport(False, {"P": (0, 1), "Pprime": (0, 2)}, 1)
        assert [len(call.args[1]) for call in spy.call_args_list] == [size, 16384] == [1, 16384]

    def test_m_code_witness_in_second_block(self):
        # column 1 repeats column 2, so only row 2 has a 1 at column 1.  The
        # first U group, (0,), passes its 7 pairs; the second, (0, 1), fails
        # at Z = (2,), j = 1, its fourth pair.  With one group of two rows
        # per block that pair lies in the second block.
        X = np.eye(7, dtype=np.uint8)
        X[:, 1] = X[:, 2]
        want = VerificationReport(False, {"U": (0, 1), "Z": (2,), "j": 1}, 11)
        for size in ("default", "block1"):
            with scan_sizes(size, X, subsets.lex_count(7, 0, 2), group=2):
                assert check_m_code(X, 2, 1) == want
        assert m_code_by_rows(X, 2, 1) == want

    def test_m_code_witness_at_second_slot_of_a_later_set(self):
        # the first failure is U = (0, 5), the sixth outer set, at its second
        # slot j = 5: the last set of block 1 at three sets per block, the
        # second of block 1 at four, the sixth of the one default block.
        # The flat index of the first bad row, // (group * inner sets),
        # is that set, and the oracle loops over U one by one
        X = (np.random.default_rng(91).random((12, 7)) < 0.3).astype(np.uint8)
        want = m_code_by_rows(X, 2, 1)
        assert want == VerificationReport(False, {"U": (0, 5), "Z": (1, 2), "j": 5}, 141)
        for size in ("default", "block3", "block4"):
            with scan_sizes(size, X, subsets.lex_count(7, 0, 2), group=2):
                assert check_m_code(X, 2, 1) == want


ORACLES = {
    "cover_free": lambda X, p: cover_free_by_rows(X, p["z"], p["u"]),
    "d_code": lambda X, p: d_code_by_hits(X, p["s"], p["l"]),
    "m_code": lambda X, p: m_code_by_rows(X, p["s"], p["u"]),
    "design": lambda X, p: design_by_dict(X, OutcomeFunction(values=p["values"]), p["s"],
                                          p["mode"]),
    "threshold": lambda X, p: threshold_pairs_by_loop(X, p["u"], p["s"], False),
    "threshold_bar": lambda X, p: threshold_pairs_by_loop(X, p["u"], p["s"], True),
}


class TestEnumerationCache:
    """`verify._batches` keeps each family that fits in one batch and in
    _MAX_BATCH entries, built once and read-only; no report depends on
    whether a family came from the cache."""

    @pytest.mark.parametrize("prop", sorted(CHECKERS))
    @settings(deadline=None)
    @given(data=st.data())
    def test_cold_warm_and_bypassed_reports_match_oracles(self, prop, data):
        t = data.draw(st.integers(max(5, MIN_COLUMNS[prop]), 12))
        N = data.draw(st.integers(1, 25))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = (rng.random((N, t)) < data.draw(st.sampled_from([0.15, 0.3, 0.5]))).astype(np.uint8)
        if data.draw(st.booleans()):
            X[:min(N, t)] = np.eye(t, dtype=np.uint8)[:min(N, t)]
        params = draw_params(data.draw, prop, t)
        if prop in ("m_code", "threshold", "threshold_bar"):
            params["s"] = min(params["s"], 3)  # the oracles' loops grow fast with s
            params["u"] = min(params["u"], params["s"] - 1)
        with multicover_path("scan"):
            for cache in (verify._whole, verify._pair_plan, verify._kept_outside):
                cache.cache_clear()
            cold = CHECKERS[prop](X, params)
            warm = CHECKERS[prop](X, params)
            with mock.patch.object(verify, "_whole", verify._whole.__wrapped__), \
                    mock.patch.object(verify, "_pair_plan", verify._pair_plan.__wrapped__), \
                    mock.patch.object(verify, "_kept_outside", verify._kept_outside.__wrapped__):
                bypassed = CHECKERS[prop](X, params)
            verify._pair_plan.cache_clear()
            with mock.patch.object(verify, "_PLAN_MASK_BYTES", -1):  # no plan keeps a mask
                unmasked = CHECKERS[prop](X, params)
        assert cold == warm == bypassed == unmasked == ORACLES[prop](X, params)

    def test_cached_arrays_are_read_only(self):
        batch, = verify._batches(30, 0, 2, verify._MAX_BATCH)
        assert batch is verify._whole(30, 0, 2)
        for arrays in (batch, batch.cut(3, 9)):
            for array in (arrays.sets, arrays.member, arrays.sizes):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_retained_bytes_within_the_stated_bound(self):
        # each family kept holds at most _MAX_BATCH entries of at most 8
        # bytes, and the cache keeps the last `maxsize` of them: the
        # docstring's 8 * 8 * _MAX_BATCH bytes
        kept = {}  # key: family, in order of last use
        real = verify._whole

        def recorded(*key):
            kept.pop(key, None)  # reinserted, so the dict runs from least to most recent
            kept[key] = real(*key)
            return kept[key]

        real.cache_clear()
        with mock.patch.object(verify, "_whole", recorded):
            for t in range(2, 300, 7):
                for lo, hi in [(1, 1), (0, 1), (2, 2), (1, 2), (0, 2), (3, 3), (0, 4), (t, t)]:
                    if hi <= t:
                        next(verify._batches(t, lo, hi, verify._MAX_BATCH))
            for seed in range(4):  # the screen checks
                X = random_code(40, 30, 0.25, seed=seed).bits
                for prop, params in [("cover_free", {"z": 2, "u": 1}), ("d_code", {"s": 2, "l": 1}),
                                     ("m_code", {"s": 2, "u": 1}), ("threshold", {"u": 1, "s": 2}),
                                     ("design", {"values": (0, 1), "s": 2, "mode": "at-most"})]:
                    CHECKERS[prop](X, params)
        info = real.cache_info()
        retained = list(kept.values())[-info.maxsize:]
        assert info.currsize == len(retained) == info.maxsize == 8
        sizes = [sum(a.nbytes for a in (b.sets, b.member, b.sizes)) for b in kept.values()]
        assert max(sizes) <= 8 * verify._MAX_BATCH < 2 * max(sizes)  # some family near the cap
        assert sum(a.nbytes for b in retained for a in (b.sets, b.member, b.sizes)) \
            <= info.maxsize * 8 * verify._MAX_BATCH


SCREEN_CHECKS = [("cover_free", {"z": 2, "u": 1}), ("d_code", {"s": 2, "l": 1}),
                 ("m_code", {"s": 2, "u": 1}), ("threshold", {"u": 1, "s": 2}),
                 ("threshold_bar", {"u": 1, "s": 2}),
                 ("design", {"values": (0, 1), "s": 2, "mode": "at-most"})]


def streamed():
    """Make every pair scan stream its families: `_batches` keeps no family,
    so no plan holds one, and no plan is read from the cache."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(verify, "_kept", lambda *args: False))
    stack.enter_context(mock.patch.object(verify, "_pair_plan", verify._pair_plan.__wrapped__))
    return stack


@contextlib.contextmanager
def recorded_plans():
    """The plans `_pair_plan` returns, by key, in order of last use; the
    last 4 of them are the ones its cache keeps."""
    plans = {}
    real = verify._pair_plan

    def recorded(*key):
        plans.pop(key, None)  # reinserted, so the dict runs from least to most recent
        plans[key] = real(*key)
        return plans[key]

    real.cache_clear()
    with mock.patch.object(verify, "_pair_plan", recorded):
        yield plans


def kept_masks(plan):
    """The blocks a plan keeps: (outer sets, outer rows, mask, count)."""
    return [entry for entry in plan.blocks or () if entry is not None]


PLAN_CHECKS = {  # prop: (checker, oracle, inner sets and group of t columns)
    "cover_free_u1": (lambda X, n: check_cover_free(X, n, 1),
                      lambda X, n: cover_free_by_rows(X, n, 1), lambda t, n: (comb(t, n), 1)),
    "cover_free_u2": (lambda X, n: check_cover_free(X, n, 2),
                      lambda X, n: cover_free_by_rows(X, n, 2), lambda t, n: (comb(t, n), 1)),
    "m_code": (lambda X, n: check_m_code(X, n, 1), lambda X, n: m_code_by_rows(X, n, 1),
               lambda t, n: (subsets.lex_count(t, 0, n), n)),
    "threshold": (lambda X, n: check_threshold_design(X, 1, n),
                  lambda X, n: threshold_pairs_by_loop(X, 1, n, False),
                  lambda t, n: (subsets.lex_count(t, 1, n), 1)),
    "threshold_bar": (lambda X, n: check_threshold_bar_design(X, 1, n),
                      lambda X, n: threshold_pairs_by_loop(X, 1, n, True),
                      lambda t, n: (subsets.lex_count(t, 1, n), 1)),
}


class TestPlanCache:
    """`verify._pair_plan` keeps, per shape of a pair scan whose families
    `_batches` keeps, the two families, the block size and, for each block
    read, the pairs that apply and their count.  The plan's masks are
    read-only and bounded, no plan outlives a change to PAIR_WORDS, and no
    report depends on whether a scan ran on a plan or streamed."""

    @pytest.mark.parametrize("size", ["default", "block1", "block7"])
    @pytest.mark.parametrize("prop", sorted(PLAN_CHECKS))
    @settings(deadline=None)
    @given(data=st.data())
    def test_planned_and_streamed_scans_match_the_rows_oracles(self, prop, size, data):
        # m-code's outer sets are groups of s rows; the threshold checks
        # read one family in both roles.  Every family of at most 10
        # columns is kept, so the default scan runs on its plan
        checker, oracle, shape = PLAN_CHECKS[prop]
        X = data.draw(packed_inputs(5, 10))
        t = X.shape[1]
        n = data.draw(st.integers(1, t - 2) if prop.startswith("cover_free")
                      else st.integers(2, (t - 1) // 2))
        with multicover_path("scan"), scan_sizes(size, X, *shape(t, n)):
            with mock.patch.object(verify, "_planned", wraps=verify._planned) as planned:
                on_plan = checker(X, n)
            with streamed(), mock.patch.object(verify, "_streamed", wraps=verify._streamed) as spy:
                stream = checker(X, n)
        assert planned.called and spy.called
        assert on_plan == stream == oracle(X, n)

    @pytest.mark.parametrize("size", ["default", "block1", "block7"])
    @pytest.mark.parametrize("refused", ["outer", "inner"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_one_kept_family_against_one_streamed(self, refused, size, data):
        # cover-free (z, 1) with `_kept` refusing one of its two families,
        # the singletons U or the z-subsets Z: the scan streams, and the
        # other family comes kept from `_whole`, so that `_family` cuts the
        # outer blocks from it, or `_stored` fills the inner family from it
        X = data.draw(packed_inputs(5, 10))
        t = X.shape[1]
        z = data.draw(st.integers(2, t - 1))  # z > 1, so the two families differ
        families = {"outer": (1, 1), "inner": (z, z)}
        kept = families["inner" if refused == "outer" else "outer"]
        real = verify._kept
        with multicover_path("scan"), scan_sizes(size, X, comb(t, z)), \
                mock.patch.object(verify, "_kept",
                                  lambda t, lo, hi, n: (lo, hi) != families[refused]
                                  and real(t, lo, hi, n)), \
                mock.patch.object(verify, "_pair_plan", verify._pair_plan.__wrapped__), \
                mock.patch.object(verify, "_whole", wraps=verify._whole) as whole, \
                mock.patch.object(verify, "_streamed", wraps=verify._streamed) as spy:
            got = check_cover_free(X, z, 1)
        assert spy.called and [call.args[1:] for call in whole.call_args_list] == [kept]
        assert got == cover_free_by_rows(X, z, 1)

    def test_plans_follow_patched_block_and_batch_sizes(self):
        # the screen's threshold shape at its default block of 17 sets,
        # then at one and seven sets per block, then at batches of 40 sets,
        # where no family of 465 sets is kept, then at the default again:
        # each call reads a plan of its own block and batch size, and the
        # last two calls the first plan, from the cache
        X = random_code(40, 30, 0.25, seed=1).bits
        inner = subsets.lex_count(30, 1, 2)
        verify._pair_plan.cache_clear()
        for size, want in [("default", 17), ("block1", 1), ("block7", 7), ("batch40", 17),
                           ("default", 17)]:
            with scan_sizes(size, X, inner):
                plan = verify._check_pairs(verify._smaller_other, 40, 30, (1, 2), (1, 2), None)
                assert plan.size == want
                assert plan.blocks is None if size == "batch40" else \
                    len(plan.blocks) == -(-inner // want)
                assert check_threshold_design(X, 1, 2) == threshold_pairs_by_loop(X, 1, 2, False)
        info = verify._pair_plan.cache_info()
        assert (info.hits, info.misses) == (6, 4)

    def test_kept_masks_are_read_only(self):
        X = random_code(40, 30, 0.25, seed=0).bits
        with recorded_plans() as plans:
            check_cover_free(X, 2, 1)  # fails in its first block of 18 U against 435 Z
            plan, = plans.values()
            assert plan.size == 18 and [entry is not None for entry in plan.blocks] == [True, False]
            for prop, params in SCREEN_CHECKS:
                CHECKERS[prop](X, params)
        assert len(plans) == 4
        for (_, _, t, _, inner, group, _, _), plan in plans.items():
            for sets, rows, mask, count in kept_masks(plan):
                assert count == np.count_nonzero(mask)
                assert mask.shape == (len(sets) * group, subsets.lex_count(t, *inner))
                with pytest.raises(ValueError, match="read-only"):
                    mask[0, 0] = True

    def test_retained_bytes_within_the_stated_bound(self):
        # each plan keeps masks of at most _PLAN_MASK_BYTES bytes, and the
        # cache keeps the last 4 plans: the docstring's 4 * _PLAN_MASK_BYTES
        # bytes.  The screen checks, on fewer columns too, and the identity
        # rows of the last matrices make the scans read every block
        largest = 0
        with recorded_plans() as plans, multicover_path("scan"):
            for t in range(30, 12, -2):
                for seed in range(4):
                    X = random_code(40, t, 0.25, seed=seed).bits
                    if seed == 3:
                        X[:t] = np.eye(t, dtype=np.uint8)
                    for prop, params in SCREEN_CHECKS:
                        CHECKERS[prop](X, params)
                        sizes = [sum(mask.nbytes for _, _, mask, _ in kept_masks(plan))
                                 for plan in list(plans.values())[-4:]]
                        largest = max([largest] + sizes)
                        assert sum(sizes) <= 4 * verify._PLAN_MASK_BYTES == 2**19
        assert verify._pair_plan.cache_info().currsize == 4
        assert largest <= verify._PLAN_MASK_BYTES < 2 * largest  # some plan near the cap

    def test_block_bounds_change_between_calls(self):
        # PAIR_WORDS set for five, then seven, then five outer sets per block,
        # with batches of 40 sets in between: blocks of one start end
        # elsewhere (0 to 5 and 0 to 7), so a mask read from a plan of
        # another block size would be another block's.  At 40 sets a batch
        # no family with more than 40 entries is kept, so those scans
        # stream.  Each check runs twice: the first builds its blocks'
        # masks and the second reads them from the plan.  The identity rows
        # make most checks hold, so every block of their scans is read
        X = (np.random.default_rng(5).random((16, 9)) < 0.3).astype(np.uint8)
        X[:9] = np.eye(9, dtype=np.uint8)
        inner = {"cover_free": (comb(9, 2), 1), "m_code": (subsets.lex_count(9, 0, 2), 2),
                 "threshold": (subsets.lex_count(9, 1, 2), 1),
                 "threshold_bar": (subsets.lex_count(9, 1, 2), 1)}
        verify._pair_plan.cache_clear()
        with multicover_path("scan"), \
                mock.patch.object(verify, "_block", wraps=verify._block) as built:
            for size in ("block5", "block7", "batch40", "block5"):
                for prop, params in SCREEN_CHECKS:
                    if prop in inner:
                        with scan_sizes(size, X, *inner[prop]):
                            counts = [built.call_count]
                            for _ in range(2):
                                assert CHECKERS[prop](X, params) == ORACLES[prop](X, params)
                                counts.append(built.call_count)
                        assert (counts[1] > counts[0]) == (size != "batch40")
                        assert counts[2] == counts[1]

    def test_kept_d_code_exemption_is_read_only_and_bounded(self):
        # the screen's d-code (2, 1) exempts the members of its 435 S from
        # one kept (435, 30) bool; a family of s-subsets is kept with it
        # only where it takes at most 8 * _MAX_BATCH bytes, and the last 2
        # are kept
        verify._kept_outside.cache_clear()
        with multicover_path("scan"):
            for t in (30, 20, 30, 81):
                check_d_code(random_code(40, t, 0.25, seed=t).bits, 2, 1)
        outside = verify._kept_outside(30, 2)
        assert outside.shape == (435, 30) and verify._kept_outside.cache_info().currsize == 2
        assert (outside == verify._outside(30, 2, verify._whole(30, 2, 2).sets, False)).all()
        with pytest.raises(ValueError, match="read-only"):
            outside[0, 0] = False
        assert comb(81, 2) * 81 > 8 * verify._MAX_BATCH  # t = 81 computes its own
