import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    binary_expand_by_scatter,
    pairwise_min_distance,
    qary_agreement_matrix,
    rs_extended_by_digits,
    rs_min_distance_structural,
    search_params_unpruned,
)
from sic.codes import (
    QaryCode,
    binary_expand,
    random_code,
    rs_extended,
    search_params,
    shorten,
    strength_feasible,
)
from sic.errors import InvalidDimension, InvalidShortening, ParameterOutOfRange
from sic.fields import FiniteField, is_prime_power
from sic.verify import coincidence

# Every prime power q <= 64 with 2 <= k <= min(5, q + 1) and at most 2^21
# symbols, plus the three largest k = 2 codes the construct path meets.
ORACLE_CASES = [(q, k) for q in range(2, 65) if is_prime_power(q)
                for k in range(2, min(5, q + 1) + 1) if q**k * (q + 1) <= 2**21]
ORACLE_CASES += [(128, 2), (256, 2), (257, 2)]
CASE_IDS = [f"q{q}-k{k}" for q, k in ORACLE_CASES]


class TestRSExtended:
    def test_binary_k2_codewords(self):
        code = rs_extended(FiniteField(2), 2)
        assert (code.n, code.t) == (3, 4)
        words = {tuple(code.symbols[:, j]) for j in range(4)}
        assert words == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
        assert pairwise_min_distance(code.symbols) == 2

    def test_q5_k5_shape_and_distance(self):
        code = rs_extended(FiniteField(5), 5)
        assert (code.n, code.t) == (6, 5**5)
        assert code.meta.d == 2
        assert pairwise_min_distance(code.symbols) == 2

    def test_q3_k2_exhaustive_pairwise(self):
        code = rs_extended(FiniteField(3), 2)
        assert (code.n, code.t) == (4, 9)
        assert pairwise_min_distance(code.symbols) == 3 == code.meta.d

    def test_symbols_above_256_do_not_wrap(self):
        code = shorten(rs_extended(FiniteField(257), 2), 1)
        assert code.symbols.shape == (257, 257)
        assert int(code.symbols.max()) == 256
        assert coincidence(code) == 2 - 1 - 1  # k - r - 1

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            rs_extended(FiniteField(5), 1)
        with pytest.raises(InvalidDimension):
            rs_extended(FiniteField(5), 7)

    @pytest.mark.parametrize("q,k", ORACLE_CASES, ids=CASE_IDS)
    def test_matches_digit_oracle(self, q, k):
        field = FiniteField(q)
        got, want = rs_extended(field, k).symbols, rs_extended_by_digits(field, k).symbols
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4), (7, 3)])
    def test_distance_matches_structural_verifier(self, q, k):
        code = rs_extended(FiniteField(q), k)
        d = pairwise_min_distance(code.symbols)
        assert d == q - k + 2 == rs_min_distance_structural(FiniteField(q), k)


class TestShorten:
    def test_example_depth2(self):
        code = shorten(rs_extended(FiniteField(5), 5), 2)
        assert (code.t, code.n) == (125, 4)
        assert code.meta.d == 2

    def test_depth_zero_is_identity(self):
        code = rs_extended(FiniteField(3), 2)
        assert shorten(code, 0) is code

    def test_q3_k2_brute_filter(self):
        f = FiniteField(3)
        code = shorten(rs_extended(f, 2), 1)
        assert (code.t, code.n) == (3, 3)
        # oracle: re-evaluate every message polynomial at the first point
        survivors = 0
        for m0 in range(3):
            for m1 in range(3):
                if f.add(m0, f.mul(m1, 0)) == 0:
                    survivors += 1
        assert survivors == code.t

    def test_sizes_against_brute_force_filter(self):
        for q, k, r in [(2, 2, 1), (3, 3, 2), (4, 3, 1), (5, 4, 2), (5, 5, 3)]:
            parent = rs_extended(FiniteField(q), k)
            child = shorten(parent, r)
            expected = int(((parent.symbols[:r] == 0).all(axis=0)).sum())
            assert child.t == expected == q ** (k - r)
            assert child.n == q + 1 - r

    def test_invalid_depth(self):
        code = rs_extended(FiniteField(5), 3)
        with pytest.raises(InvalidShortening):
            shorten(code, 3)
        with pytest.raises(InvalidShortening):
            shorten(QaryCode(q=2, symbols=np.zeros((2, 1), dtype=np.uint8)), 1)


class TestBinaryExpand:
    def test_example1_parameters(self, ex1):
        assert (ex1.N, ex1.t, ex1.weight) == (20, 125, 4)
        assert (ex1.bits.sum(axis=0) == 4).all()

    def test_example3_parameters(self, ex3):
        assert (ex3.N, ex3.t, ex3.weight) == (56, 512, 7)
        assert (ex3.bits.sum(axis=0) == 7).all()

    def test_single_codeword(self):
        code = QaryCode(q=2, symbols=np.array([[0]], dtype=np.uint8))
        out = binary_expand(code)
        assert out.bits.tolist() == [[1], [0]]

    def test_one_hot_blocks(self, ex1_qary, ex1):
        q = ex1_qary.q
        for i in range(ex1_qary.n):
            block = ex1.bits[i * q:(i + 1) * q]
            assert (block.sum(axis=0) == 1).all()

    @pytest.mark.parametrize("symbols", [[[0, 3], [1, 2]], [[0, 1], [2, 3]], [[0, -1], [1, 2]]],
                             ids=["into-next-block", "past-last-block", "negative"])
    def test_out_of_range_symbols(self, symbols):
        with pytest.raises(ParameterOutOfRange):
            binary_expand(QaryCode(q=3, symbols=np.array(symbols)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_symbol_dtype_narrower_or_wider_than_q(self, dtype):
        code = QaryCode(q=300, symbols=np.array([[0, 255, 44], [17, 1, 2]], dtype=dtype))
        assert np.array_equal(binary_expand(code).bits, binary_expand_by_scatter(code).bits)

    @pytest.mark.parametrize("q,k", ORACLE_CASES, ids=CASE_IDS)
    def test_matches_scatter_oracle(self, q, k):
        parent = rs_extended(FiniteField(q), k)
        for r in range(k):
            code = shorten(parent, r)
            if code.n * q * code.t > 2**25:  # only q in {256, 257} with r = 0
                continue
            got, want = binary_expand(code), binary_expand_by_scatter(code)
            assert (got.bits.dtype, got.bits.shape) == (want.bits.dtype, want.bits.shape)
            assert got.bits.flags.c_contiguous
            assert got.bits.tobytes() == want.bits.tobytes()
            assert got.weight == want.weight == code.n

    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    def test_dot_products_equal_agreements(self, fixture, request):
        binary = request.getfixturevalue(fixture)
        qary = request.getfixturevalue(fixture + "_qary")
        gram = binary.bits.astype(np.int32).T @ binary.bits.astype(np.int32)
        assert np.array_equal(gram, qary_agreement_matrix(qary.symbols))


class TestStrengthFeasible:
    def test_example1_pair(self):
        assert strength_feasible(5, 5, 2, 3, 2)

    def test_example3_tight(self):
        assert strength_feasible(8, 5, 2, 10, 3)

    def test_example3_overshoot(self):
        assert not strength_feasible(8, 5, 2, 11, 3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterOutOfRange):
            strength_feasible(6, 3, 1, 3, 2)
        with pytest.raises(ParameterOutOfRange):
            strength_feasible(5, 5, 5, 3, 2)
        with pytest.raises(ParameterOutOfRange):
            strength_feasible(5, 5, 2, 2, 2)


class TestSearchParams:
    @pytest.mark.parametrize("s,m,expected", [
        (2, 12, (8, 3, 56)),
        (3, 12, (9, 3, 90)),
        (4, 20, (16, 4, 272)),
        (2, 20, (11, 5, 121)),
        (8, 12, (16, 2, 272)),
    ])
    def test_known_optima(self, s, m, expected):
        p = search_params(s, m)
        assert (p.q, p.lam, p.N) == expected

    def test_infeasible_small_bracket(self):
        assert search_params(2, 1) is None

    def test_result_is_consistent(self):
        for s in (2, 3, 5, 8):
            for m in (6, 10, 14, 20):
                p = search_params(s, m)
                if p is None:
                    continue
                assert strength_feasible(p.q, p.k, p.r, p.s, 1)
                assert 2**m <= p.t < 2 ** (m + 1)
                assert p.w == s * p.lam + 1 == p.n
                assert p.N == p.w * p.q
                assert p.t == p.q ** (p.lam + 1)
                assert p.lam == p.k - p.r - 1

    def test_matches_unpruned_search(self):
        for s in range(2, 7):
            for m in range(1, 41):
                for q_max in range(2, 65):
                    p = search_params(s, m, q_max)
                    got = None if p is None else (p.q, p.lam)
                    assert got == search_params_unpruned(s, m, q_max), (s, m, q_max)


class TestRandomCode:
    def test_seed_determinism(self):
        a = random_code(10, 5, 0.5, seed=7)
        b = random_code(10, 5, 0.5, seed=7)
        assert np.array_equal(a.bits, b.bits)
        c = random_code(10, 5, 0.5, seed=8)
        assert not np.array_equal(a.bits, c.bits)

    def test_density_concentration(self):
        beta = 0.3
        code = random_code(1000, 1000, beta, seed=123)
        sigma = (beta * (1 - beta) / 1e6) ** 0.5
        assert abs(code.bits.mean() - beta) <= 3 * sigma

    def test_one_by_one(self):
        code = random_code(1, 1, 0.5, seed=0)
        assert code.bits.shape == (1, 1)
        assert code.bits[0, 0] in (0, 1)

    def test_rejects_bad_beta(self):
        with pytest.raises(ParameterOutOfRange):
            random_code(2, 2, 0.0, seed=0)

    @given(st.integers(0, 10**6))
    def test_any_seed_shape(self, seed):
        assert random_code(3, 4, 0.25, seed=seed).bits.shape == (3, 4)
