import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sic
from sic.bounds import (
    RateBound,
    asymptotic_rate,
    binary_entropy,
    lower_z1,
    lower_zu,
    nonrecurrent_upper,
    recurrence_objective,
    recurrent_upper,
    threshold_lower,
    threshold_lower_simple,
    threshold_objective,
    threshold_objective_full,
    threshold_rc_term,
    universal_upper,
    upper_zu,
)
from sic.errors import DomainError, ParameterOutOfRange, UnknownKind

# Reciprocal upper bounds on the (z,1) rate, z = 2..17 (published table)
RECIPROCALS = [3.1063, 5.0180, 7.1196, 9.4660, 12.0482, 14.8578, 17.8876,
               21.1313, 24.5837, 28.2402, 32.0966, 36.1493, 40.3950,
               44.8306, 49.4536, 54.2612]


def mp_lower_zu(z, u, dps=50):
    """Arbitrary-precision recomputation of the (z,u) random-coding bound."""
    with mpmath.workdps(dps):
        z, u = mpmath.mpf(z), mpmath.mpf(u)
        ratio = z**z * u**u / (z + u) ** (z + u)
        return float(-mpmath.log(1 - ratio, 2) / (z + u - 1))


def mp_recurrence_objective(z, a, dps=50):
    with mpmath.workdps(dps):
        a = mpmath.mpf(a)

        def h(x):
            return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)

        return float(h(a / z) - a * h(mpmath.mpf(1) / z))


def mp_recurrent_sequence(z_max, dps=40):
    """Independent high-precision recomputation of the recurrent sequence."""
    with mpmath.workdps(dps):
        def h(x):
            return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)

        def f(z, a):
            return h(a / z) - a * h(mpmath.mpf(1) / z)

        seq = [mpmath.mpf(1)]
        # closed-form maximizer of the z=2 objective: alpha* = 2/5
        seq.append(f(2, mpmath.mpf(2) / 5))
        for z in range(3, z_max + 1):
            prev = seq[-1]
            lo, hi = mpmath.mpf("1e-30"), prev * (1 - mpmath.mpf("1e-30"))
            for _ in range(200):
                mid = (lo + hi) / 2
                if f(z, 1 - mid / prev) - mid > 0:
                    lo = mid
                else:
                    hi = mid
            seq.append((lo + hi) / 2)
        return [float(v) for v in seq]


class TestEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.811278124459133, abs=1e-12)

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                binary_entropy(bad)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_bounds(self, a):
        assert 0.0 < binary_entropy(a) <= 1.0


class TestRecurrenceObjective:
    def test_max_at_z2(self):
        # closed-form argmax 2/5 gives h(1/5) - 2/5
        expected = binary_entropy(0.2) - 0.4
        assert expected == pytest.approx(0.321928094887362, abs=1e-12)
        assert recurrence_objective(2, 0.4) == pytest.approx(expected, abs=1e-15)

    def test_vanishes_toward_one(self):
        for z in (2, 3, 5):
            assert abs(recurrence_objective(z, 1 - 1e-9)) < 1e-7

    def test_z3_half_against_mpmath(self):
        assert recurrence_objective(3, 0.5) == pytest.approx(
            mp_recurrence_objective(3, 0.5), abs=1e-14)

    def test_z1_is_plain_entropy(self):
        assert recurrence_objective(1, 0.3) == pytest.approx(binary_entropy(0.3), abs=1e-15)


class TestRecurrentUpper:
    def test_reciprocals_match_table(self):
        seq = recurrent_upper(17)
        assert seq[0] == 1.0
        for z, recip in zip(range(2, 18), RECIPROCALS):
            assert 1.0 / seq[z - 1] == pytest.approx(recip, abs=5e-4)

    def test_z2_value(self):
        assert recurrent_upper(2)[1] == pytest.approx(0.321928, abs=1e-6)

    def test_matches_high_precision_recomputation(self):
        ours = recurrent_upper(17)
        theirs = mp_recurrent_sequence(17)
        for a, b in zip(ours, theirs):
            assert a == pytest.approx(b, abs=1e-9)

    def test_strictly_decreasing(self):
        seq = recurrent_upper(17)
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_deep_entry_on_cold_sequence(self):
        # a fresh interpreter starts with only z=1 known, so the entries at
        # z=1499 and z=1200 are the first ones asked for
        code = ("from sic.bounds import universal_upper, upper_zu\n"
                "print(repr(universal_upper(1, 1500)), repr(upper_zu(1200, 1).value))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sic.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seq = recurrent_upper(1499)
        assert proc.stdout.split() == [repr(seq[1498]), repr(seq[1199])]

    def test_root_is_unique_on_scan(self):
        seq = recurrent_upper(17)
        for z in range(3, 18):
            prev = seq[z - 2]
            rs = np.linspace(prev * 1e-4, prev * (1 - 1e-9), 10_000)
            vals = np.array([recurrence_objective(z, 1 - r / prev) - r for r in rs])
            signs = np.sign(vals)
            changes = int((signs[:-1] != signs[1:]).sum())
            assert changes == 1


class TestNonrecurrentUpper:
    def test_z2(self):
        assert nonrecurrent_upper(2) == pytest.approx(2 * math.log2(3 * math.e / 2) / 4,
                                                      abs=1e-12)
        with mpmath.workdps(40):
            expected = float(2 * mpmath.log(3 * mpmath.e / 2, 2) / 4)
        assert nonrecurrent_upper(2) == pytest.approx(expected, abs=1e-12)
        assert nonrecurrent_upper(2) == pytest.approx(1.013829, abs=1e-6)

    def test_dominates_recurrent(self):
        seq = recurrent_upper(17)
        for z in range(2, 18):
            assert seq[z - 1] <= nonrecurrent_upper(z)

    def test_large_z_matches_leading_term(self):
        z = 10**6
        ratio = nonrecurrent_upper(z) * z**2 / (2 * math.log2(z))
        assert abs(ratio - 1) < 0.1


class TestUpperZU:
    def test_3_2(self):
        rb = upper_zu(3, 2)
        assert rb.value == pytest.approx(0.0745, abs=5e-5)
        assert rb.optimizer == {"i": 1, "j": 1}

    def test_4_2_via_split(self):
        rb = upper_zu(4, 2)
        base = recurrent_upper(2)[1]
        assert rb.optimizer == {"i": 2, "j": 1}
        assert rb.value == pytest.approx(base / (base + 6.75), abs=1e-12)
        assert rb.value == pytest.approx(0.0455, abs=5e-5)

    def test_3_3_uses_seed(self):
        rb = upper_zu(3, 3)
        assert rb.optimizer == {"i": 1, "j": 1}
        assert rb.value == pytest.approx(0.1610 / 4.1610, abs=1e-12)
        assert rb.value == pytest.approx(0.0387, abs=5e-5)

    def test_seed_is_flagged(self):
        rb = upper_zu(2, 2)
        assert rb.value == 0.1610
        assert "seeded" in rb.note

    def test_symmetry(self):
        for z in range(1, 7):
            for u in range(1, 7):
                assert upper_zu(z, u).value == upper_zu(u, z).value

    def test_exported_with_the_other_bounds(self):
        import sic
        assert sic.upper_zu is upper_zu and "upper_zu" in sic.__all__

    def test_monotone_nonincreasing(self):
        for u in range(1, 8):
            for z in range(u, 8):
                assert upper_zu(z + 1, u).value <= upper_zu(z, u).value + 1e-12
                assert upper_zu(z, u + 1).value <= upper_zu(z, u).value + 1e-12

    def test_witness_reevaluates(self):
        for z, u in [(4, 2), (5, 3), (6, 4), (7, 2)]:
            rb = upper_zu(z, u)
            i, j = rb.optimizer["i"], rb.optimizer["j"]
            base = upper_zu(z - i, u - j).value
            penalty = (i + j) ** (i + j) / (i**i * j**j)
            assert rb.value == pytest.approx(base / (base + penalty), abs=1e-9)


class TestLowerZU:
    def test_3_2(self):
        assert lower_zu(3, 2) == pytest.approx(0.0127, abs=5e-5)

    def test_5_2(self):
        assert lower_zu(5, 2) == pytest.approx(0.0037, abs=5e-5)

    def test_2_2_formula_value(self):
        assert lower_zu(2, 2) == pytest.approx(0.031036, abs=1e-5)
        assert lower_zu(2, 2) == pytest.approx(mp_lower_zu(2, 2), abs=1e-12)

    def test_symmetry_and_unit(self):
        assert lower_zu(1, 1) == 1.0
        for z in range(1, 8):
            for u in range(1, 8):
                assert lower_zu(z, u) == lower_zu(u, z)

    def test_against_mpmath_grid(self):
        for z in range(2, 9):
            for u in range(1, z + 1):
                assert lower_zu(z, u) == pytest.approx(mp_lower_zu(z, u), abs=1e-12)


class TestLowerZ1:
    def test_table_values(self):
        expected = {2: 0.182, 3: 0.079, 4: 0.044, 5: 0.028, 6: 0.019, 7: 0.014, 8: 0.011}
        for z, v in expected.items():
            assert lower_z1(z).value == pytest.approx(v, abs=1e-3)

    def test_witness_reevaluates(self):
        from sic.bounds import _lower_z1_objective
        for z in (2, 5, 8):
            rb = lower_z1(z)
            a, q = rb.optimizer["alpha"], rb.optimizer["Q"]
            assert _lower_z1_objective(z, a, q) / z == pytest.approx(rb.value, abs=1e-9)

    def test_witness_against_mpmath(self):
        rb = lower_z1(2)
        a, q = map(mpmath.mpf, (rb.optimizer["alpha"], rb.optimizer["Q"]))
        with mpmath.workdps(40):
            val = (-(1 - q) * mpmath.log(1 - a**2, 2)
                   + 2 * (q * mpmath.log(a / q, 2) + (1 - q) * mpmath.log((1 - a) / (1 - q), 2)))
            assert rb.value == pytest.approx(float(val / 2), abs=1e-12)

    def test_z50_matches_asymptote(self):
        v = lower_z1(50).value
        assert abs(v - 0.693 / 2500) / (0.693 / 2500) < 0.15

    def test_below_recurrent(self):
        seq = recurrent_upper(17)
        for z in range(2, 18):
            assert lower_z1(z).value <= seq[z - 1]

    def test_z1_exact(self):
        assert lower_z1(1).value == 1.0


class TestUniversalUpper:
    def test_beats_label_rate_at_10(self):
        assert universal_upper(3, 10) == pytest.approx(0.1993, abs=5e-4)
        assert universal_upper(3, 10) < 2 / 10

    def test_beats_label_rate_at_13(self):
        assert universal_upper(3, 13) == pytest.approx(0.1405, abs=5e-4)
        assert universal_upper(3, 13) < 2 / 13

    def test_unit_saturation(self):
        assert universal_upper(1, 2) == 0.5

    def test_range_check(self):
        with pytest.raises(ParameterOutOfRange):
            universal_upper(3, 3)


class TestThresholdLowerSimple:
    def test_1_2_against_mpmath(self):
        with mpmath.workdps(40):
            expected = float(-mpmath.log(1 - mpmath.mpf(4) / 27, 2) / 2)
        assert threshold_lower_simple(1, 2) == pytest.approx(expected, abs=1e-12)
        assert threshold_lower_simple(1, 2) == pytest.approx(0.115663, abs=1e-6)

    def test_equals_zu_bound_with_s_denominator(self):
        for s in range(2, 200):
            for u in range(1, s):
                assert threshold_lower_simple(u, s) == lower_zu(s - u + 1, u)

    def test_asymptotic_scaling(self):
        v = threshold_lower_simple(2, 100)
        target = math.exp(-2) * 4 * math.log2(math.e)
        assert abs(v * 100**3 - target) / target < 0.25


class TestThresholdLower:
    def test_diagonal_equals_full_double_min(self):
        for beta in np.arange(0.05, 1.0, 0.05):
            for u, s in [(1, 3), (2, 5), (3, 6)]:
                assert threshold_objective(float(beta), u, s) == pytest.approx(
                    threshold_objective_full(float(beta), u, s), abs=1e-15)

    def test_1_2_positive_and_bounded(self):
        rb = threshold_lower(1, 2)
        assert 0 < rb.value <= recurrent_upper(2)[1]

    def test_witness_reevaluates(self):
        for u, s in [(1, 2), (2, 5), (3, 7)]:
            rb = threshold_lower(u, s)
            beta = rb.optimizer["beta"]
            assert threshold_objective(beta, u, s) == pytest.approx(rb.value, abs=1e-9)
            assert threshold_objective_full(beta, u, s) == pytest.approx(rb.value, abs=1e-9)
            assert threshold_rc_term(beta, u, rb.optimizer["group"],
                                     rb.optimizer["group"]) == pytest.approx(rb.value, rel=1e-9)

    def test_2_5_logged_against_simple_bound(self):
        maxmin = threshold_lower(2, 5).value
        simple = threshold_lower_simple(2, 5)
        assert maxmin > 0 and simple > 0
        print(f"threshold rate lower bounds at (u=2, s=5): "
              f"max-min {maxmin:.6f}, closed form {simple:.6f}")

    def test_term_nonincreasing_in_blockers(self):
        # vectorized over the full 1e3-point density grid
        betas = np.arange(1e-3, 1.0, 1e-3)
        for u in (1, 2, 3):
            for g in range(u, 9):
                prev = None
                for x in range(0, g + 1):
                    denom = g + x - 1
                    hit = math.comb(g - 1, u - 1) * betas**u * (1 - betas) ** (g + x - u)
                    term = (np.full_like(betas, np.inf) if denom == 0
                            else -np.log2(1 - hit) / denom)
                    if prev is not None:
                        assert (prev >= term - 1e-15).all(), (u, g, x)
                    prev = term


class TestAsymptotics:
    def test_upper_zu_form(self):
        expected = 27 / (2 * math.e) * math.log2(10) / 1000
        assert asymptotic_rate("upper-zu", z=10, u=2) == pytest.approx(expected, abs=1e-12)

    def test_lower_z1_form(self):
        assert asymptotic_rate("lower-z1", z=10) == pytest.approx(0.00693, abs=5e-6)

    def test_exact_size_upper_form(self):
        assert asymptotic_rate("exact-size-upper", s=10) == pytest.approx(
            4 * math.log2(10) / 100, abs=1e-12)

    def test_exact_size_lower_form(self):
        assert asymptotic_rate("exact-size-lower", s=10) == pytest.approx(1.386 / 100, abs=5e-5)

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            asymptotic_rate("nope", z=3)

    def test_missing_params(self):
        with pytest.raises(ParameterOutOfRange):
            asymptotic_rate("upper-zu", z=3)

    @pytest.mark.parametrize("kind,params", [
        ("upper-zu", {"z": 10, "u": 2000}),
        ("lower-zu", {"z": 10, "u": 200}),
        ("threshold-lower", {"u": 200, "s": 300}),
    ])
    def test_float_overflow_is_a_domain_error(self, kind, params):
        with pytest.raises(DomainError, match="overflows"):
            asymptotic_rate(kind, **params)


class TestSandwich:
    def test_lower_below_upper_grid(self):
        for z in range(1, 9):
            for u in range(1, 9):
                lo = lower_zu(z, u)
                hi = upper_zu(z, u)
                assert isinstance(hi, RateBound)
                assert 0 <= lo <= hi.value <= 1 or (z, u) == (1, 1)
                if (z, u) == (1, 1):
                    assert lo == hi.value == 1.0
