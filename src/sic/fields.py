"""Exact arithmetic in finite fields GF(p^m), q = p^m <= MAX_ORDER.

Field elements are plain integers in [0, q).  The base-p digits of an
element, least significant digit first, are the coefficients of its
polynomial representative.  Arithmetic is served from precomputed q-by-q
int16 tables, so each field instance is immutable after construction and
safe to share between threads.

The reducing modulus is canonical: x for a prime field, otherwise the
lexicographically smallest (coefficients compared low degree first) monic
irreducible polynomial of degree m over GF(p), found by exhaustive search
with trial division.  Addition is digit-wise mod p.  Multiplication comes
from log/antilog tables of the powers of the smallest generator g of the
multiplicative group, a*b = g^(log a + log b).  The field is unique up to
its modulus, so two constructions of the same order agree bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DivisionByZero, NotPrimePower, ParameterOutOfRange

# Table-based arithmetic keeps every op O(1); the cap bounds each q*q int16
# table at 32 MiB.  The build is O(q^2) numpy work plus an O(q) power walk.
MAX_ORDER = 4096


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p**m and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    p = _smallest_prime_factor(q)
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    return (p, m) if n == 1 else None


def _poly_rem(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num modulo the monic den over GF(p), as len(den) - 1
    coefficients (low degree first); num's coefficients lie in [0, p)."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
    return rem[:dd]


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Irreducibility by trial division against every monic polynomial of
    degree 1..m//2, which is exact at the degrees used here.
    """
    divisors = []
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisors.append((*tail, 1))
    for low in itertools.product(range(p), repeat=m):
        cand = (*low, 1)
        if all(any(_poly_rem(cand, d, p)) for d in divisors):
            return cand
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")  # unreachable


def _generator_powers(p: int, modulus: tuple[int, ...]) -> list[int]:
    """[g^0, ..., g^(q-2)] for the smallest element g of order q - 1, by
    repeated polynomial multiplication by g reduced by the monic `modulus`."""
    weights = [p**j for j in range(len(modulus) - 1)]
    q = p * weights[-1]
    for g in range(1, q):
        g_digits = [g // w % p for w in weights]
        power, powers = [1] + [0] * (len(weights) - 1), [1]
        while True:
            power = _poly_rem((np.convolve(power, g_digits) % p).tolist(), modulus, p)
            x = sum(c * w for c, w in zip(power, weights))
            if x == 1:
                break
            powers.append(x)
        if len(powers) == q - 1:
            return powers
    raise AssertionError(f"GF({q}) has no generator")  # unreachable


class FiniteField:
    """Arithmetic context for GF(q), q = p^m a prime power.

    Elements are the integers 0..q-1; 0 and 1 are the additive and
    multiplicative identities.  `modulus` is None for prime fields and the
    canonical monic irreducible coefficient tuple (low degree first)
    otherwise.
    """

    def __init__(self, q: int):
        pm = is_prime_power(q)
        if pm is None:
            raise NotPrimePower(f"{q} is not a prime power")
        if q > MAX_ORDER:
            raise ParameterOutOfRange(f"field order {q} > {MAX_ORDER} unsupported")
        self.p, self.m = pm
        self.q = q
        self.modulus = None if self.m == 1 else _smallest_irreducible(self.p, self.m)
        self._build_tables()

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        # Addition and negation act digit-wise mod p: each round appends one
        # base-p digit below the digits already tabulated.
        digit = np.arange(p, dtype=np.int16)
        add, neg = np.zeros((1, 1), dtype=np.int16), np.zeros(1, dtype=np.int16)
        for _ in range(self.m):
            k = len(neg) * p
            add = (add[:, None, :, None] * p + (digit[:, None, None] + digit) % p).reshape(k, k)
            neg = (neg[:, None] * p + -digit % p).reshape(k)
        # Multiplication adds discrete logarithms to the base of a generator;
        # a prime field is the same walk modulo the polynomial x.
        antilog = np.array(_generator_powers(p, self.modulus or (0, 1)), dtype=np.int16)
        log = np.zeros(q, dtype=np.int16)
        log[antilog] = np.arange(q - 1)
        exponents = log[1:, None] + log[1:]
        exponents %= q - 1
        mul = np.pad(antilog[exponents], (1, 0))
        inv = np.pad(antilog[-log[1:] % (q - 1)], (1, 0), constant_values=-1)
        self.add_table, self.mul_table, self._neg_table, self._inv_table = add, mul, neg, inv
        for t in (add, mul, neg, inv):
            t.setflags(write=False)

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise ParameterOutOfRange(f"{a} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self._neg_table[a])

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, self._neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return int(self._inv_table[a])

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = int(self.mul_table[result, base])
            base = int(self.mul_table[base, base])
            e >>= 1
        return result

    def elements(self) -> range:
        """All q elements in value order."""
        return range(self.q)

    def __repr__(self) -> str:
        return f"FiniteField(q={self.q})"
