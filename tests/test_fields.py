import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sic.errors import DivisionByZero, NotPrimePower, ParameterOutOfRange
from sic import fields
from sic.fields import MAX_ORDER, FiniteField, is_prime_power
from helpers import (generator_powers_by_polynomials, pair_loop_tables,
                     smallest_irreducible_by_products)

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def naive_prime_power(q):
    """Oracle: factor q completely by trial division."""
    if q < 2:
        return None
    factors = {}
    n, f = q, 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    if len(factors) == 1:
        (p, m), = factors.items()
        return p, m
    return None


class TestIsPrimePower:
    def test_eight(self):
        assert is_prime_power(8) == (2, 3)

    def test_prime(self):
        assert is_prime_power(2) == (2, 1)

    def test_composite(self):
        assert is_prime_power(6) is None

    def test_small_range_against_oracle(self):
        for q in range(2, 2000):
            assert is_prime_power(q) == naive_prime_power(q)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=200, derandomize=True)
    def test_matches_oracle(self, q):
        assert is_prime_power(q) == naive_prime_power(q)


class TestConstruction:
    def test_gf4_modulus_is_unique_irreducible_quadratic(self):
        f = FiniteField(4)
        assert (f.p, f.m) == (2, 2)
        assert f.modulus == (1, 1, 1)  # x^2 + x + 1

    def test_prime_field_has_no_modulus(self):
        assert FiniteField(5).modulus is None

    def test_gf9_modulus_matches_enumeration(self):
        # Oracle: list all monic quadratics over GF(3) in lex order and
        # keep the first one without a root.
        first = None
        for c0 in range(3):
            for c1 in range(3):
                if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                    first = (c0, c1, 1)
                    break
            if first:
                break
        assert FiniteField(9).modulus == first == (1, 0, 1)

    def test_not_prime_power_rejected(self):
        with pytest.raises(NotPrimePower):
            FiniteField(12)

    def test_order_above_max_rejected(self):
        with pytest.raises(ParameterOutOfRange, match=f"^field order 8192 > {MAX_ORDER} unsupported$"):
            FiniteField(8192)

    def test_deterministic_reconstruction(self):
        for q in (4, 8, 9, 16, 27, 32, 64):
            a, b = FiniteField(q), FiniteField(q)
            assert a.modulus == b.modulus
            assert np.array_equal(a.mul_table, b.mul_table)


class TestArithmetic:
    def test_gf5_add(self):
        assert FiniteField(5).add(3, 4) == 2

    def test_gf4_square_of_x(self):
        # element 2 is x; x*x = x+1 mod x^2+x+1, i.e. element 3
        assert FiniteField(4).mul(2, 2) == 3

    def test_gf7_inverse(self):
        assert FiniteField(7).inv(3) == 5

    def test_inv_zero_raises(self):
        with pytest.raises(DivisionByZero):
            FiniteField(7).inv(0)

    def test_out_of_range_element(self):
        with pytest.raises(ParameterOutOfRange):
            FiniteField(4).add(4, 0)

    def test_enumerate(self):
        assert list(FiniteField(2).elements()) == [0, 1]
        assert list(FiniteField(4).elements()) == [0, 1, 2, 3]
        assert len(set(FiniteField(9).elements())) == 9

    def test_sub_neg_pow(self):
        f = FiniteField(9)
        for a in f.elements():
            assert f.add(a, f.neg(a)) == 0
            for b in f.elements():
                assert f.add(f.sub(a, b), b) == a
        assert f.pow(0, 0) == 1
        for a in f.elements():
            if a:
                assert f.pow(a, -1) == f.inv(a)


def exhaustive_axioms(f):
    """Vectorized field-axiom sweep over all pairs/triples."""
    add, mul = f.add_table.astype(np.int64), f.mul_table.astype(np.int64)
    q = f.q
    assert np.array_equal(add, add.T), "addition not commutative"
    assert np.array_equal(mul, mul.T), "multiplication not commutative"
    assert np.array_equal(add[add], add[:, add]), "addition not associative"
    assert np.array_equal(mul[mul], mul[:, mul]), "multiplication not associative"
    lhs = mul[:, add]                       # a * (b + c)
    rhs = add[mul[:, :, None], mul[:, None, :]]  # a*b + a*c
    assert np.array_equal(lhs, rhs), "distributivity fails"
    assert np.array_equal(add[0], np.arange(q)), "0 is not the additive identity"
    assert np.array_equal(mul[1], np.arange(q)), "1 is not the multiplicative identity"
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_axioms_spot(q):
    exhaustive_axioms(FiniteField(q))


@pytest.mark.parametrize("q", [4, 9, 27, 32, 49, 64])
def test_frobenius(q):
    f = FiniteField(q)
    for a in f.elements():
        assert f.pow(a, q) == a


@pytest.mark.parametrize("q", [q for q in range(2, 258) if is_prime_power(q)])
def test_tables_match_pair_loop_oracle(q):
    f = FiniteField(q)
    assert f.modulus == (None if f.m == 1 else smallest_irreducible_by_products(f.p, f.m))
    tables = (f.add_table, f.mul_table, f._neg_table, f._inv_table)
    for got, want in zip(tables, pair_loop_tables(q)):
        assert got.dtype == want.dtype == np.int16
        assert np.array_equal(got, want)


@pytest.mark.parametrize("orders", ["q<=1024", "q=2048", "q=4096"])
def test_tables_match_the_polynomial_generator_walk(orders):
    # the "times g" map walk gives the same generator and antilog list as
    # one polynomial product per power, so every table is byte-identical
    qs = {"q<=1024": [q for q in range(2, 1025) if is_prime_power(q)],
          "q=2048": [2048], "q=4096": [4096]}[orders]
    for q in qs:
        f = FiniteField(q)
        with mock.patch.object(fields, "_generator_powers",
                               lambda p, modulus, add: generator_powers_by_polynomials(p, modulus)):
            oracle = FiniteField(q)
        for got, want in zip((f.add_table, f.mul_table, f._neg_table, f._inv_table),
                             (oracle.add_table, oracle.mul_table, oracle._neg_table,
                              oracle._inv_table)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), q


def test_max_order_build_memory():
    tracemalloc.start()
    try:
        FiniteField(MAX_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**20


@pytest.mark.parametrize("q", [4096, 4093, 2187])
def test_large_field_axioms_sampled(q):
    f = FiniteField(q)
    add, mul = f.add_table, f.mul_table
    a = np.arange(q)
    assert np.all(add[a, f._neg_table] == 0)
    assert np.all(mul[a[1:], f._inv_table[1:]] == 1)
    rng = np.random.default_rng(q)
    x, y, z = rng.integers(0, q, size=(3, 10**4))
    assert np.array_equal(mul[x, add[y, z]], add[mul[x, y], mul[x, z]])
    for e in [0, 1, *rng.integers(2, q, size=30).tolist()]:
        assert f.pow(e, q) == e
