"""Construction of q-ary and binary superimposed codes.

The pipeline: build the singly extended Reed-Solomon code over GF(q)
(evaluations at every field element in value order, then the leading
message coefficient as the extension position), shorten it on a prefix of
evaluation points, and expand each q-ary symbol into the weight-1 binary
indicator column of length q.  The result is a binary constant-weight code
whose maximum pairwise column intersection equals the q-ary coincidence.

Every step works on whole arrays.  The encoder appends one message digit
at a time to every partial value by one gather of rows of the addition
table (Horner's rule).  `rs_extended` encodes when its symbols are first read,
and `shorten` of such a code encodes only the q^(k-r) codewords it keeps,
so a shortened code never allocates its parent's (q+1) x q^k array.

Codes are immutable value objects; every constructor is deterministic, so
identical parameters always give bit-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDimension, InvalidShortening, ParameterOutOfRange
from .fields import FiniteField, is_prime_power

# The most symbols (or bits) a code's array may hold when it is materialized;
# larger ones are refused before they are allocated.
MAX_MATERIALIZED_SYMBOLS = 200_000_000


@dataclass(frozen=True)
class RSMeta:
    k: int  # dimension of the parent code
    r: int  # shortening depth applied so far
    d: int  # design distance q - k + 2


@dataclass(frozen=True, eq=False)
class QaryCode:
    """n x t matrix of symbols in [0, q); columns are codewords."""

    q: int
    symbols: np.ndarray
    meta: RSMeta | None = None

    @property
    def n(self) -> int:
        return self.symbols.shape[0]

    @property
    def t(self) -> int:
        return self.symbols.shape[1]


@dataclass(frozen=True, eq=False)
class BinaryCode:
    """N x t binary incidence matrix; columns are codewords."""

    bits: np.ndarray
    weight: int | None = None  # constant column weight, when guaranteed

    @property
    def N(self) -> int:
        return self.bits.shape[0]

    @property
    def t(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class CodeParams:
    """Parameter set of a binary-expanded shortened RS code."""

    q: int
    k: int
    r: int
    lam: int  # coincidence bound k - r - 1
    n: int    # q-ary length = binary weight
    w: int
    N: int
    t: int
    s: int    # target strength
    l: int    # target threshold


def rs_extended(field: FiniteField, k: int) -> QaryCode:
    """Singly extended Reed-Solomon code of length q+1, size q^k.

    Column j encodes the message whose base-q digits (least significant
    first) are the polynomial coefficients; row a < q holds the evaluation
    at field element a and the last row holds the leading coefficient.
    Minimum distance is exactly q - k + 2.

    The symbols are encoded when first read, so that `shorten` of this
    code encodes only the codewords it keeps.
    """
    if not 2 <= k <= field.q + 1:
        raise InvalidDimension(f"k={k} outside [2, {field.q + 1}] for q={field.q}")
    return _Unencoded(field, k)


class _Unencoded(QaryCode):
    """The code of rs_extended(field, k) before its symbols are read."""

    def __init__(self, field: FiniteField, k: int):
        for name, value in (("q", field.q), ("meta", RSMeta(k=k, r=0, d=field.q - k + 2)),
                            ("field", field)):
            object.__setattr__(self, name, value)

    @cached_property
    def symbols(self) -> np.ndarray:
        return _encode(self.field, self.meta.k, 0)

    @property
    def n(self) -> int:
        return self.q + 1

    @property
    def t(self) -> int:
        return self.q ** self.meta.k

    def __repr__(self) -> str:
        return f"rs_extended({self.field!r}, {self.meta.k})"


def _encode(field: FiniteField, k: int, r: int) -> np.ndarray:
    """Symbols of rs_extended(field, k) shortened on the points 0..r-1,
    encoded without the codewords that shortening drops.

    The kept messages are the polynomials f that vanish at 0..r-1.  Their
    high digits c_r..c_{k-1} are free and run in column order; their low r
    digits, the r x r Vandermonde solve at 0..r-1, are those of
    -sum_i c_i (x^i mod P), P = x (x - 1) ... (x - (r-1)).  So row a holds
    sum_i c_i g_i(a) with g_i = x^i - (x^i mod P).  Row a keeps its partial
    values as scale * acc, starting from the leading digit, and appends
    each lower digit c, so that the least significant one varies fastest:
    for g_i(a) != 0 by one row gather acc -> add_table[mul_table[scale /
    g_i(a), acc]], which is Horner's rule when g_i(a) = a^i (r = 0), and
    for g_i(a) = 0 by repeating acc.  One gather applies the last scale.
    """
    q = field.q
    t = q ** (k - r)
    if t * (q + 1 - r) > MAX_MATERIALIZED_SYMBOLS:
        raise ParameterOutOfRange(f"code with {t} codewords is too large to materialize")
    add, mul, neg = field.add_table, field.mul_table, field._neg_table
    P = np.ones(1, dtype=np.int16)
    for b in range(r):  # P = P * (x - b)
        P = np.append(add[np.append(0, P[:-1]), mul[neg[b], P]], 1)
    low = np.zeros((k - r, r), dtype=np.int16)  # low[i - r] = x^i mod P, low degree first
    if r:
        low[0] = neg[P[:r]]
        for i in range(1, k - r):  # x^i = x * x^(i-1), with x^r replaced by low[0]
            low[i] = add[np.append(0, low[i - 1, :-1]), mul[low[i - 1, -1], low[0]]]
    points = np.arange(r, q)
    rem = np.zeros((k - r, q - r), dtype=np.int16)  # (x^i mod P)(a), by Horner
    for coeff in low.T[::-1]:
        rem = add[mul[rem, points], coeff[:, None]]
    power = np.ones(q - r, dtype=np.int16)
    for _ in range(r):
        power = mul[power, points]
    gen = np.empty((k - r, q - r), dtype=np.int16)  # g_i(a)
    for i in range(k - r):
        gen[i] = add[power, neg[rem[i]]]
        power = mul[power, points]
    inv, digits = field._inv_table, np.arange(q)
    symbols = np.empty((q + 1 - r, t), dtype=np.uint8 if q <= 256 else np.uint16)
    for row, g in zip(symbols, gen.T):
        acc, scale = digits, g[-1]  # the partial values are scale * acc
        for gi in g[-2::-1]:
            if gi:  # scale * acc + gi * c = gi * (acc * scale / gi + c)
                acc, scale = add[mul[mul[scale, inv[gi]], acc]].ravel(), gi
            else:
                acc = np.repeat(acc, q)
        row[:] = acc if scale == 1 else mul[scale, acc]
    symbols[-1] = np.repeat(np.arange(q), t // q)
    return symbols


def shorten(code: QaryCode, r: int) -> QaryCode:
    """Keep codewords with 0 in the first r positions and delete those rows.

    A code straight from `rs_extended` is encoded on the kept codewords
    only; any other code is encoded already and is masked.
    """
    if code.meta is None:
        raise InvalidShortening("code carries no RS metadata")
    k = code.meta.k
    total = code.meta.r + r
    if r < 0 or total > k - 1:
        raise InvalidShortening(f"shortening depth {r} outside [0, {k - 1 - code.meta.r}]")
    if r == 0:
        return code
    if isinstance(code, _Unencoded):
        symbols = _encode(code.field, k, r)
    else:
        keep = (code.symbols[:r] == 0).all(axis=0)
        symbols = np.ascontiguousarray(code.symbols[r:, keep])
    return QaryCode(q=code.q, symbols=symbols, meta=RSMeta(k=k, r=total, d=code.meta.d))


def binary_expand(code: QaryCode) -> BinaryCode:
    """Replace each symbol v by the length-q indicator column with a 1 in row v.

    Row i*q+v of the output is 1 exactly where q-ary row i equals v, so the
    dot product of two binary columns equals the q-ary agreement count.
    A symbol outside [0, q), or an output of more than
    MAX_MATERIALIZED_SYMBOLS bits, raises ParameterOutOfRange.
    """
    q, n, t = code.q, code.n, code.t
    if n * q * t > MAX_MATERIALIZED_SYMBOLS:
        raise ParameterOutOfRange(
            f"binary expansion with {n * q} rows and {t} columns is too large to materialize")
    symbols = code.symbols
    if symbols.size and not (0 <= symbols.min() and symbols.max() < q):
        raise ParameterOutOfRange(f"symbols must lie in [0, {q})")
    values = np.arange(q, dtype=np.min_scalar_type(q - 1))  # RS symbol width: a fast compare
    bits = (symbols[:, None, :] == values[:, None]).reshape(n * q, t).view(np.uint8)
    return BinaryCode(bits=bits, weight=n)


def strength_feasible(q: int, k: int, r: int, s: int, l: int) -> bool:
    """Whether RS parameters (q, k, r) certify strength (s, l).

    True iff s*((k-1)-r) <= l*(q+1-r) - 1, i.e. the code's coincidence
    bound times s stays below l times its weight.
    """
    if is_prime_power(q) is None:
        raise ParameterOutOfRange(f"q={q} is not a prime power")
    if not 2 <= k <= q + 1:
        raise ParameterOutOfRange(f"k={k} outside [2, {q + 1}]")
    if not 0 <= r <= k - 1:
        raise ParameterOutOfRange(f"r={r} outside [0, {k - 1}]")
    if not 1 <= l < s:
        raise ParameterOutOfRange(f"need 1 <= l < s, got l={l}, s={s}")
    return s * ((k - 1) - r) <= l * (q + 1 - r) - 1


def _params(q: int, lam: int, s: int) -> CodeParams:
    w = s * lam + 1
    r = q + 1 - w
    return CodeParams(q=q, k=lam + r + 1, r=r, lam=lam, n=w, w=w,
                      N=w * q, t=q ** (lam + 1), s=s, l=1)


def search_params(s: int, m: int, q_max: int = 64) -> CodeParams | None:
    """Minimum-length strength-s parameters with size in [2^m, 2^(m+1)).

    Scans prime powers q <= q_max and coincidences lam >= 1, taking the
    minimal admissible weight w = s*lam + 1; returns the feasible set
    minimizing N = w*q (ties: smaller q, then smaller lam), or None.  The
    scan ends at the first q with q^2 >= 2^(m+1), past which t = q^(lam+1)
    is too large for every lam.
    """
    if s < 2 or m < 1 or q_max < 2:
        raise ParameterOutOfRange(f"need s >= 2, m >= 1, q_max >= 2, got {(s, m, q_max)}")
    lo, hi = 2**m, 2 ** (m + 1)
    best = None
    best_key = None
    for q in range(2, q_max + 1):
        if q * q >= hi:  # no lam fits, here or at any larger q
            break
        if is_prime_power(q) is None:
            continue
        lam = 1
        # w = s*lam + 1 grows with lam, so no lam past w > q + 1 is admissible
        while s * lam + 1 <= q + 1 and q ** (lam + 1) < hi:
            t = q ** (lam + 1)
            w = s * lam + 1
            if t >= lo:
                key = (w * q, q, lam)
                if best_key is None or key < best_key:
                    best_key = key
                    best = _params(q, lam, s)
            lam += 1
    return best


def random_code(N: int, t: int, beta: float, seed: int) -> BinaryCode:
    """Binary matrix with i.i.d. Bernoulli(beta) entries from a seeded generator."""
    if N < 1 or t < 1:
        raise ParameterOutOfRange(f"need N, t >= 1, got {(N, t)}")
    if not 0.0 < beta < 1.0:
        raise ParameterOutOfRange(f"need 0 < beta < 1, got {beta}")
    rng = np.random.default_rng(seed)
    bits = (rng.random((N, t)) < beta).astype(np.uint8)
    return BinaryCode(bits=bits, weight=None)
