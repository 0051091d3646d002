"""Construction of q-ary and binary superimposed codes.

The pipeline: build the singly extended Reed-Solomon code over GF(q)
(evaluations at every field element in value order, then the leading
message coefficient as the extension position), shorten it on a prefix of
evaluation points, and expand each q-ary symbol into the weight-1 binary
indicator column of length q.  The result is a binary constant-weight code
whose maximum pairwise column intersection equals the q-ary coincidence.

Every step works on whole arrays.  The encoder applies Horner's rule by
rows of the addition table: row x of add_table is x + c for every next
digit c, so one gather appends a digit to every partial value at once.

Codes are immutable value objects; every constructor is deterministic, so
identical parameters always give bit-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidShortening, ParameterOutOfRange
from .fields import FiniteField, is_prime_power

# rs_extended materializes the full (q+1) x q^k symbol matrix; refuse sizes
# that cannot sensibly live in memory.
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

    Row a starts from the leading digits and takes k - 1 Horner steps
    acc -> add_table[mul_table[a, acc]].ravel(), each appending the next
    lower digit so that the least significant one varies fastest.
    """
    q = field.q
    if not 2 <= k <= q + 1:
        raise InvalidDimension(f"k={k} outside [2, {q + 1}] for q={q}")
    t = q**k
    if t * (q + 1) > MAX_MATERIALIZED_SYMBOLS:
        raise ParameterOutOfRange(f"code with {t} codewords is too large to materialize")
    add, mul = field.add_table, field.mul_table
    symbols = np.empty((q + 1, t), dtype=np.uint8 if q <= 256 else np.uint16)
    for a in range(q):
        acc = np.arange(q)  # partial values = the leading digit
        for _ in range(k - 1):
            acc = add[mul[a, acc]].ravel()
        symbols[a] = acc
    symbols[q] = np.repeat(np.arange(q), q ** (k - 1))
    return QaryCode(q=q, symbols=symbols, meta=RSMeta(k=k, r=0, d=q - k + 2))


def shorten(code: QaryCode, r: int) -> QaryCode:
    """Keep codewords with 0 in the first r positions and delete those rows."""
    if code.meta is None:
        raise InvalidShortening("code carries no RS metadata")
    k = code.meta.k
    total = code.meta.r + r
    if r < 0 or total > k - 1:
        raise InvalidShortening(f"shortening depth {r} outside [0, {k - 1 - code.meta.r}]")
    if r == 0:
        return code
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
    q, n, t, symbols = code.q, code.n, code.t, code.symbols
    if n * q * t > MAX_MATERIALIZED_SYMBOLS:
        raise ParameterOutOfRange(
            f"binary expansion with {n * q} rows and {t} columns is too large to materialize")
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
