"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as ordinary tests.
"""

import time

import mpmath
import numpy as np
import pytest

from helpers import pairwise_min_distance, rs_min_distance_structural, threshold_objective_full
from test_fields import PRIME_POWERS_64, exhaustive_axioms
from sic.bounds import (
    lower_z1,
    lower_zu,
    nonrecurrent_upper,
    recurrent_upper,
    threshold_lower,
    universal_upper,
    upper_zu,
)
from sic.codes import (
    binary_expand,
    random_code,
    rs_extended,
    search_params,
    shorten,
    strength_feasible,
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

# ----------------------------------------------------------------------
# published values the suite reproduces
# ----------------------------------------------------------------------

TABLE1_RECIPROCALS = {
    2: 3.1063, 3: 5.0180, 4: 7.1196, 5: 9.4660, 6: 12.0482, 7: 14.8578,
    8: 17.8876, 9: 21.1313, 10: 24.5837, 11: 28.2402, 12: 32.0966,
    13: 36.1493, 14: 40.3950, 15: 44.8306, 16: 49.4536, 17: 54.2612,
}

TABLE2_LOWER_Z1 = {2: .182, 3: .079, 4: .044, 5: .028, 6: .019, 7: .014, 8: .011}
TABLE2_UPPER_U2 = {3: .1610, 4: .0745, 5: .0455, 6: .0287, 7: .0204, 8: .0146}
TABLE2_UPPER_U3 = {4: .0745, 5: .0387, 6: .0183, 7: .0109, 8: .0067}
TABLE2_LOWER_U2 = {3: .0321, 4: .0127, 5: .0068, 6: .0037, 7: .0024, 8: .0015}
TABLE2_LOWER_U3 = {4: .0127, 5: .0046, 6: .0020, 7: .0010, 8: .0001}
# cells whose printed value disagrees with the producing formula beyond
# rounding; asserted against an independent high-precision recomputation
SUSPECTED_MISPRINTS = {("u2", 3), ("u2", 5), ("u3", 8)}

# best known minimum-length parameters (q, lam, N) per (m, s)
TABLE3 = {
    (5, 3): (7, 1, 28), (5, 4): (7, 1, 35), (5, 5): (7, 1, 42), (5, 6): (7, 1, 49),
    (6, 2): (4, 2, 20), (6, 3): (8, 1, 32), (6, 4): (8, 1, 40), (6, 5): (8, 1, 48),
    (6, 6): (8, 1, 56), (6, 7): (9, 1, 72), (6, 8): (11, 1, 99),
    (7, 4): (13, 1, 65), (7, 5): (13, 1, 78), (7, 6): (13, 1, 91),
    (7, 7): (13, 1, 104), (7, 8): (13, 1, 117),
    (8, 2): (7, 2, 35), (8, 3): (7, 2, 49), (8, 5): (16, 1, 96),
    (8, 6): (16, 1, 112), (8, 7): (16, 1, 128), (8, 8): (16, 1, 144),
    (9, 2): (8, 2, 40), (9, 3): (8, 2, 56), (9, 4): (8, 2, 72),
    (9, 6): (23, 1, 161), (9, 7): (23, 1, 184), (9, 8): (23, 1, 207),
    (10, 3): (11, 2, 77), (10, 4): (11, 2, 99), (10, 5): (11, 2, 121),
    (11, 2): (7, 3, 49), (11, 4): (13, 2, 117), (11, 5): (13, 2, 143),
    (11, 6): (13, 2, 169),
    (12, 2): (8, 3, 56), (12, 3): (9, 3, 90), (12, 4): (16, 2, 144),
    (12, 5): (16, 2, 176), (12, 6): (16, 2, 208), (12, 7): (16, 2, 240),
    (12, 8): (16, 2, 272),
    (13, 3): (11, 3, 110), (13, 5): (23, 2, 253), (13, 6): (23, 2, 299),
    (13, 7): (23, 2, 345), (13, 8): (23, 2, 391),
    (14, 3): (13, 3, 130), (14, 4): (13, 3, 169), (14, 6): (27, 2, 351),
    (14, 7): (27, 2, 405), (14, 8): (27, 2, 459),
    (15, 2): (8, 4, 72), (15, 7): (32, 2, 480), (15, 8): (32, 2, 544),
    (16, 3): (16, 3, 160), (16, 4): (16, 3, 208), (16, 5): (16, 3, 256),
    (16, 6): (19, 3, 361),
    (17, 2): (11, 4, 99),
    (18, 2): (13, 4, 117), (18, 3): (13, 4, 169), (18, 5): (23, 3, 368),
    (18, 6): (23, 3, 437), (18, 7): (23, 3, 506), (18, 8): (25, 3, 625),
    (19, 5): (27, 3, 432), (19, 6): (27, 3, 513), (19, 7): (27, 3, 594),
    (19, 8): (27, 3, 675),
    (20, 2): (11, 5, 121), (20, 3): (16, 4, 208), (20, 4): (16, 4, 272),
    (20, 6): (32, 3, 608), (20, 7): (32, 3, 704), (20, 8): (32, 3, 800),
    (21, 4): (19, 4, 323), (21, 8): (41, 3, 1025),
    (22, 2): (13, 5, 143), (22, 4): (23, 4, 391), (22, 5): (23, 4, 483),
    (23, 4): (25, 4, 425), (23, 5): (25, 4, 525), (23, 6): (25, 4, 625),
    (24, 3): (16, 5, 256), (24, 5): (27, 4, 609), (24, 6): (29, 4, 725),
    (24, 7): (29, 4, 841),
    (25, 2): (13, 6, 169), (25, 3): (19, 5, 304), (25, 6): (32, 4, 800),
    (25, 7): (32, 4, 928), (25, 8): (32, 4, 1056),
    (26, 6): (37, 4, 925), (26, 7): (37, 4, 1073), (26, 8): (37, 4, 1221),
    (27, 4): (23, 5, 483), (27, 7): (43, 4, 1247), (27, 8): (43, 4, 1419),
    (28, 2): (16, 6, 208), (28, 4): (27, 5, 702), (28, 5): (25, 5, 650),
    (28, 8): (49, 4, 1617),
    (29, 3): (19, 6, 361), (29, 4): (29, 5, 609), (29, 5): (29, 5, 754),
    (29, 6): (31, 5, 961),
    (30, 5): (32, 5, 832), (30, 6): (32, 5, 992),
}
# Defective as printed: N=609 is not a multiple of q=27 (the row's other
# entries suggest q=29); triple-level checks are skipped, the search
# result must still not exceed the printed length.
TABLE3_INCONSISTENT = {(24, 5)}
# Printed size 25**6 lies one bracket below m=28, so the minimum-length
# search at m=28 legitimately returns a longer code; only the parameter
# feasibility of the printed triple is asserted.
TABLE3_MISPLACED = {(28, 5)}


def _report(num, start, text):
    print(f"\nACCEPTANCE {num}: PASS ({time.time() - start:.1f}s) - {text}")


def mp_lower_zu(z, u):
    with mpmath.workdps(50):
        z, u = mpmath.mpf(z), mpmath.mpf(u)
        ratio = z**z * u**u / (z + u) ** (z + u)
        return float(-mpmath.log(1 - ratio, 2) / (z + u - 1))


def test_criterion_1_recurrent_upper_sequence():
    start = time.time()
    seq = recurrent_upper(17)
    assert seq[1] == pytest.approx(0.321928, abs=1e-6)
    for z, recip in TABLE1_RECIPROCALS.items():
        assert 1.0 / seq[z - 1] == pytest.approx(recip, abs=5e-4), f"z={z}"
    assert time.time() - start < 1.0
    _report(1, start, "recurrent upper-bound reciprocals, z=2..17, within 5e-4")


def test_criterion_2_two_parameter_rate_table():
    start = time.time()
    for s, v in TABLE2_UPPER_U2.items():
        assert upper_zu(s - 1, 2).value == pytest.approx(v, abs=5e-4), f"upper u=2 s={s}"
    for s, v in TABLE2_UPPER_U3.items():
        assert upper_zu(s - 2, 3).value == pytest.approx(v, abs=5e-4), f"upper u=3 s={s}"
    for s, v in TABLE2_LOWER_Z1.items():
        assert lower_z1(s).value == pytest.approx(v, abs=1e-3), f"lower u=1 s={s}"
    for s, v in TABLE2_LOWER_U2.items():
        if ("u2", s) in SUSPECTED_MISPRINTS:
            assert lower_zu(s - 1, 2) == pytest.approx(mp_lower_zu(s - 1, 2), abs=1e-12)
        else:
            assert lower_zu(s - 1, 2) == pytest.approx(v, abs=5e-4), f"lower u=2 s={s}"
    for s, v in TABLE2_LOWER_U3.items():
        if ("u3", s) in SUSPECTED_MISPRINTS:
            assert lower_zu(s - 2, 3) == pytest.approx(mp_lower_zu(s - 2, 3), abs=1e-12)
        else:
            assert lower_zu(s - 2, 3) == pytest.approx(v, abs=5e-4), f"lower u=3 s={s}"
    assert time.time() - start < 30.0
    _report(2, start, "two-parameter upper/lower rate values within stated tolerances")


def test_criterion_3_example_codes_end_to_end():
    start = time.time()
    specs = [
        (5, 5, 2, 125, 20, 4, [(3, 2)]),
        (7, 6, 3, 343, 35, 5, [(4, 2)]),
        (8, 5, 2, 512, 56, 7, [(6, 2), (10, 3)]),
    ]
    for q, k, r, t, N, w, pairs in specs:
        qary = shorten(rs_extended(FiniteField(q), k), r)
        code = binary_expand(qary)
        assert (code.t, code.N, code.weight) == (t, N, w)
        lam = coincidence(qary)
        assert lam <= k - r - 1
        assert lam == k - r - 1, "coincidence bound should be met with equality"
        for s, l in pairs:
            assert strength_feasible(q, k, r, s, l)
            assert check_d_certificate(code, s, l)
    ex3 = binary_expand(shorten(rs_extended(FiniteField(8), 5), 2))
    assert not check_d_certificate(ex3, 11, 3)
    ex1 = binary_expand(shorten(rs_extended(FiniteField(5), 5), 2))
    rep = check_d_code(ex1, 3, 2)
    assert rep.satisfied
    assert rep.tuples_checked == 38_765_500
    assert time.time() - start < 300.0
    _report(3, start, "all three example codes built, certified, and one "
                      "verified exhaustively (3.9e7 tuples)")


def test_criterion_4_parameter_search_table():
    start = time.time()
    for s, m, expected in [(2, 12, (8, 3, 56)), (3, 12, (9, 3, 90)),
                           (4, 20, (16, 4, 272)), (2, 20, (11, 5, 121)),
                           (8, 12, (16, 2, 272))]:
        p = search_params(s, m)
        assert (p.q, p.lam, p.N) == expected, f"(s={s}, m={m})"
    for (m, s), (q, lam, N) in sorted(TABLE3.items()):
        if (m, s) in TABLE3_INCONSISTENT:
            # printed q and N disagree; only require the search not to lose
            found = search_params(s, m)
            assert found is not None and found.N <= N, f"cell (m={m}, s={s})"
            continue
        w = N // q
        assert N % q == 0, f"cell (m={m}, s={s})"
        r = q + 1 - w
        k = lam + r + 1
        assert 0 <= r <= k - 1 and 2 <= k <= q + 1, f"cell (m={m}, s={s})"
        assert strength_feasible(q, k, r, s, 1), f"cell (m={m}, s={s})"
        if (m, s) in TABLE3_MISPLACED:
            continue  # size sits one bracket lower; the m-row search cannot see it
        assert 2**m <= q ** (lam + 1) < 2 ** (m + 1), f"cell (m={m}, s={s})"
        found = search_params(s, m)
        assert found is not None and found.N <= N, f"cell (m={m}, s={s})"
    assert time.time() - start < 10.0
    _report(4, start, f"search matches 5 spot triples exactly and never exceeds "
                      f"the published length on {len(TABLE3)} cells "
                      f"(2 defective cells documented)")


# ----------------------------------------------------------------------
# criterion 5: implication/equivalence suites over seeded random matrices
# ----------------------------------------------------------------------

PAIRS_US = [(1, 2), (1, 3), (2, 3), (2, 4)]


def _matrices(seed0, count=200, pairs=PAIRS_US):
    """count seeded random matrices, cycling (u, s), N in 6..12, t > 2s."""
    betas = (0.15, 0.3, 0.45, 0.6, 0.75)
    for i in range(count):
        u, s = pairs[i % len(pairs)]
        t = 2 * s + 1 + (i % 2)
        N = 6 + (i % 7)
        yield u, s, random_code(N, t, betas[i % 5], seed=seed0 + i)


def _identity(t):
    from sic.codes import BinaryCode
    return BinaryCode(bits=np.eye(t, dtype=np.uint8), weight=1)


def _pair_rows(t):
    from sic.codes import BinaryCode
    rows = []
    for a in range(t):
        for b in range(a + 1, t):
            row = np.zeros(t, dtype=np.uint8)
            row[[a, b]] = 1
            rows.append(row)
    return BinaryCode(bits=np.array(rows), weight=None)


def _structured(u, s):
    return _identity(2 * s + 1) if u == 1 else _pair_rows(2 * s + 1)


def test_criterion_5_implication_suites():
    start = time.time()

    # collapse: the l=1 list-union property coincides with plain cover-freeness
    for u, s, X in _matrices(1000):
        assert check_d_code(X, s, 1).satisfied == check_cover_free(X, s, 1).satisfied

    # nesting: passing at l implies passing at l+1
    for u, s, X in _matrices(2000):
        cases = [X, _identity(2 * s + 1)]
        for Y in cases:
            for l in range(1, s - 1):
                if check_d_code(Y, s, l).satisfied:
                    assert check_d_code(Y, s, l + 1).satisfied

    # a distinguishing design is a list-union code one strength lower
    for u, s, X in _matrices(3000):
        if s - 1 <= u:
            continue
        F = OutcomeFunction.saturating(u)
        if check_design(X, F, s, mode="at-most").satisfied:
            assert check_d_code(X, s - 1, u).satisfied

    # cover-freeness gives a threshold-distinguishing design
    for u, s, X in _matrices(4000):
        for Y in (X, _structured(u, s)):
            if check_cover_free(Y, s - u + 1, u).satisfied:
                F = OutcomeFunction.threshold(u)
                assert check_design(Y, F, s, mode="at-most").satisfied

    # exact-hit codes at threshold 1 are exactly the (2s-1)-cover-free codes
    for _, s, X in _matrices(5000, pairs=[(1, 2), (1, 3)]):
        for Y in (X, _identity(2 * s + 1)):
            assert (check_m_code(Y, s, 1).satisfied
                    == check_cover_free(Y, 2 * s - 1, 1).satisfied)

    # exact-hit codes are threshold designs
    for u, s, X in _matrices(6000):
        for Y in (X, _structured(u, s)):
            if check_m_code(Y, s, u).satisfied:
                assert check_threshold_design(Y, u, s).satisfied

    # strict threshold designs are exactly the (s-u+1, u)-cover-free codes
    for u, s, X in _matrices(7000):
        for Y in (X, _structured(u, s)):
            assert (check_threshold_bar_design(Y, u, s).satisfied
                    == check_cover_free(Y, s - u + 1, u).satisfied)

    # complementing the matrix swaps the two cover-free parameters
    for i, (u, s, X) in enumerate(_matrices(8000)):
        from sic.codes import BinaryCode
        comp = BinaryCode(bits=(1 - X.bits).astype(np.uint8))
        z = s - u + 1
        assert (check_cover_free(X, z, u).satisfied
                == check_cover_free(comp, u, z).satisfied)

    assert time.time() - start < 120.0
    _report(5, start, "7 implication/equivalence suites x 200 seeded matrices, zero violations")


def test_criterion_6_bound_ordering_and_optimizers():
    start = time.time()
    for z in range(1, 9):
        for u in range(1, 9):
            assert lower_zu(z, u) <= upper_zu(z, u).value + 1e-12
    seq = recurrent_upper(17)
    for z in range(2, 18):
        assert seq[z - 1] <= nonrecurrent_upper(z)
    assert universal_upper(3, 10) == pytest.approx(0.1993, abs=5e-4)
    assert universal_upper(3, 13) == pytest.approx(0.1405, abs=5e-4)
    for u, s in [(1, 2), (1, 4), (2, 3), (2, 5), (3, 8)]:
        rb = threshold_lower(u, s)
        assert 0.0 < rb.value < 1.0
        full = threshold_objective_full(rb.optimizer["beta"], u, s)
        assert full == pytest.approx(rb.value, abs=1e-9)
    _report(6, start, "lower <= upper on the (z,u) grid, closed form dominates "
                      "recurrent, universal values, max-min witnesses re-evaluate")


def test_criterion_7_field_axioms_and_rs_distance():
    start = time.time()
    for q in PRIME_POWERS_64:
        exhaustive_axioms(FiniteField(q))
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = FiniteField(q)
        for k in range(2, q + 1):
            assert rs_min_distance_structural(field, k) == q - k + 2
            if q**k <= 4000:
                code = rs_extended(field, k)
                assert pairwise_min_distance(code.symbols) == q - k + 2
            elif q**k * (q + 1) <= 4_000_000:
                # linear code: min distance equals min nonzero-codeword weight
                code = rs_extended(field, k)
                weights = np.count_nonzero(code.symbols[:, 1:], axis=0)
                assert int(weights.min()) == q - k + 2
    assert time.time() - start < 30.0
    _report(7, start, "field axioms exhaustive for all prime powers <= 64; "
                      "RS distance exact for q <= 9, k <= q")
