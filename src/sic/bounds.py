"""Numerical rate bounds for superimposed codes and group-testing designs.

All rates are in bits per test (logarithms base 2).  The module computes:

* the recurrent upper-bound sequence on (z,1)-code rates and its closed
  form companion;
* the two-parameter upper bound obtained by recursively applying the
  (i,j)-splitting inequality to the recurrent base row;
* random-coding lower bounds (a closed formula for (z,u), a 2-D
  maximization for (z,1), and the max-min bound for threshold designs);
* the universal upper bound for saturating-outcome designs;
* leading-order asymptotic forms of the above.

Optimizers are deterministic: a whole-array numpy pass over a 1e-3 grid
(re-checked with the scalar objective where rounding could change the
argmax, or pruned to the grid points that can hold it) followed by
golden-section or zoom refinement, so repeated calls give bit-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, DomainError, ParameterOutOfRange, UnknownKind

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2

# Upper bound on the (2,2) rate, sourced from published tabulations; the
# splitting inequality alone only gives 0.2 here, so the two-parameter
# table is seeded with this constant (flagged in the result note).
SEEDED_UPPER_2_2 = 0.1610

# The coarse grid of both grid-then-refine optimizers.
_GRID = np.arange(1e-3, 1.0, 1e-3)
_GRID.flags.writeable = False
_STEPS = np.arange(61.0)  # the steps of lower_z1's 61-point zoom axes
_STEPS.flags.writeable = False


@dataclass(frozen=True)
class RateBound:
    """A computed bound with its optimizer witness.

    `optimizer` re-evaluates to `value` through the producing objective;
    `note` flags seeded or exact special cases.
    """

    kind: str
    value: float
    z: int | None = None
    u: int | None = None
    s: int | None = None
    l: int | None = None
    optimizer: dict | None = None
    note: str | None = None


def binary_entropy(a: float) -> float:
    """Entropy of a Bernoulli(a) bit; defined on the open interval (0, 1)."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"entropy needs 0 < a < 1, got {a}")
    return -a * math.log2(a) - (1.0 - a) * math.log2(1.0 - a)


def recurrence_objective(z: int, a: float) -> float:
    """h(a/z) - a*h(1/z); its maximum (z=2) and fixed points (z>=3) define
    the recurrent upper bound.  h(1/1) is taken as its limit 0."""
    if z < 1:
        raise ParameterOutOfRange(f"need z >= 1, got {z}")
    if not 0.0 < a < 1.0:
        raise DomainError(f"need 0 < a < 1, got {a}")
    h_unit = 0.0 if z == 1 else binary_entropy(1.0 / z)
    return binary_entropy(a / z) - a * h_unit


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


_RECURRENT = [1.0]  # entry z-1 is the bound at z, filled in order of z


def _recurrent(z: int) -> float:
    while len(_RECURRENT) < z:
        _RECURRENT.append(_next_recurrent(len(_RECURRENT) + 1, _RECURRENT[-1]))
    return _RECURRENT[z - 1]


def _next_recurrent(z: int, prev: float) -> float:
    """The bound at z >= 2, given the bound `prev` at z - 1."""
    if z == 2:
        return _golden_max(lambda a: recurrence_objective(2, a), 1e-12, 1 - 1e-12, 1e-12)[1]

    def g(r: float) -> float:
        return recurrence_objective(z, 1.0 - r / prev) - r

    lo, hi = 1e-15, prev * (1.0 - 1e-15)
    if not (g(lo) > 0.0 > g(hi)):
        raise ConvergenceFailure(f"no sign change bracketing the rate at z={z}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def recurrent_upper(z_max: int) -> list[float]:
    """Upper bounds on the (z,1) rate for z = 1..z_max.

    The z=2 entry maximizes the objective; each later entry is the unique
    positive fixed point R = f(1 - R/previous), found by bisection to
    absolute tolerance 1e-12.
    """
    if z_max < 1:
        raise ParameterOutOfRange(f"need z_max >= 1, got {z_max}")
    _recurrent(z_max)
    return _RECURRENT[:z_max]


def nonrecurrent_upper(z: int) -> float:
    """Closed-form upper bound 2*log2(e(z+1)/2) / z**2 on the (z,1) rate."""
    if z < 2:
        raise ParameterOutOfRange(f"need z >= 2, got {z}")
    return 2.0 * math.log2(math.e * (z + 1) / 2.0) / z**2


@lru_cache(maxsize=4096)  # every split of tables up to z = u = 64
def _split_penalty(i: int, j: int) -> float:
    return (i + j) ** (i + j) / (i**i * j**j)


# Split evaluations that one upper_zu entry may take.  z = u = 60 takes
# 1.5*10^6 of them, about 3 s on a 2-vCPU VM; z = u = 990 would take 10^11.
_MAX_SPLITS = 10**8
_UPPER_ZU: dict[tuple[int, int], tuple[float, tuple[int, int] | None, str | None]] = {}


def _upper_zu_splits(z: int, u: int) -> int:
    """Split evaluations of the entry (z, u) and of the rows 2..u-1 it
    reads: (a - 1)(b - 1) for each entry (a, b) with b <= a < z, plus
    (z - 1)(u - 1); the count stops once it exceeds _MAX_SPLITS."""
    splits = (z - 1) * (u - 1)
    for b in range(2, u):
        splits += (b - 1) * ((z - 1) * (z - 2) - (b - 1) * (b - 2)) // 2  # a = b..z-1
        if splits > _MAX_SPLITS:
            break
    return splits


def _upper_zu(z: int, u: int) -> tuple[float, tuple[int, int] | None, str | None]:
    """The table entry (z, u), z >= u >= 1.  A split of an entry (a, b)
    reads rows below b only, at columns below a, so the rows 2..u-1 are
    filled up to column z - 1 in order of b, and then (z, u) itself."""
    if (z, u) not in _UPPER_ZU:
        if _upper_zu_splits(z, u) > _MAX_SPLITS:
            raise ParameterOutOfRange(
                f"upper-zu at {(z, u)} needs more than {_MAX_SPLITS} split evaluations")
        for b in range(2, u):
            for a in range(b, z):
                if (a, b) not in _UPPER_ZU:
                    _UPPER_ZU[a, b] = _upper_zu_entry(a, b)
        _UPPER_ZU[z, u] = _upper_zu_entry(z, u)
    return _UPPER_ZU[z, u]


def _upper_zu_entry(z: int, u: int) -> tuple[float, tuple[int, int] | None, str | None]:
    # z >= u >= 1, with the rows 2..u-1 in the table up to column z - 1
    if u == 1:
        return _recurrent(z), None, "recurrent base row" if z > 1 else "trivial rate 1"
    if (z, u) == (2, 2):
        return SEEDED_UPPER_2_2, None, "seeded constant, not derived from the splitting inequality"
    best = None
    arg = None
    for i in range(1, z):
        for j in range(1, u):
            zz, uu = z - i, u - j
            if zz < uu:
                zz, uu = uu, zz
            base = _recurrent(zz) if uu == 1 else _UPPER_ZU[zz, uu][0]
            cand = base / (base + _split_penalty(i, j))
            if best is None or cand < best - 1e-15:
                best, arg = cand, (i, j)
    return best, arg, None


def upper_zu(z: int, u: int) -> RateBound:
    """Upper bound on the (z,u) rate via the splitting inequality.

    Built as a dynamic program over the recurrent base row; symmetric in
    (z, u).  The optimizer records the minimizing split (i, j).  A table
    that needs more than _MAX_SPLITS split evaluations raises
    ParameterOutOfRange before it is filled.
    """
    if z < 1 or u < 1:
        raise ParameterOutOfRange(f"need z, u >= 1, got {(z, u)}")
    a, b = (z, u) if z >= u else (u, z)
    value, arg, note = _upper_zu(a, b)
    opt = None if arg is None else {"i": arg[0], "j": arg[1]}
    return RateBound(kind="upper-zu", value=value, z=z, u=u, optimizer=opt, note=note)


def lower_zu(z: int, u: int) -> float:
    """Random-coding lower bound on the (z,u) rate (closed formula)."""
    if z < 1 or u < 1:
        raise ParameterOutOfRange(f"need z, u >= 1, got {(z, u)}")
    if z == 1 and u == 1:
        return 1.0
    if u > z:
        z, u = u, z
    ratio = math.exp(z * math.log(z) + u * math.log(u) - (z + u) * math.log(z + u))
    if ratio < 2.0**-53:  # 1 - ratio rounds to 1
        return -math.log1p(-ratio) * LOG2E / (z + u - 1)
    return -math.log2(1.0 - ratio) / (z + u - 1)


def _lower_z1_objective(z: int, a, q):
    # works on scalars and numpy arrays alike
    main = -(1.0 - q) * np.log2(1.0 - a**z)
    fit = q * np.log2(a / q) + (1.0 - q) * np.log2((1.0 - a) / (1.0 - q))
    return main + z * fit


def _zoom_axis(centre: float, radius: float) -> np.ndarray:
    """np.linspace(lo, hi, 61) from lo = max(centre - radius, 1e-12) to hi =
    min(centre + radius, 1 - 1e-12), built as numpy builds it, so bit for
    bit the same, without its call overhead."""
    lo, hi = max(centre - radius, 1e-12), min(centre + radius, 1 - 1e-12)
    axis = _STEPS * ((hi - lo) / 60)
    axis += lo
    axis[-1] = hi
    return axis


def lower_z1(z: int) -> RateBound:
    """Random-coding lower bound on the (z,1) rate via 2-D maximization.

    Takes the first row-major maximum of the grid with step 1e-3 over the
    open unit square, then zooms nested grids around the incumbent down to
    parameter scale 1e-9 (well past the 1e-8 target); fully deterministic.
    The objective is strictly concave in Q with its peak at
    Q*(a) = a*c / (a*c + 1 - a), c = (1 - a**z)**(1/z), so each alpha row is
    evaluated only at the grid point nearest Q*(a) and two on either side.
    """
    if z < 1:
        raise ParameterOutOfRange(f"need z >= 1, got {z}")
    if z == 1:
        return RateBound(kind="lower-z1", value=1.0, z=1, note="exact")
    c = (1.0 - _GRID**z) ** (1.0 / z)
    peak = _GRID * c / (_GRID * c + 1.0 - _GRID)
    cols = np.rint(peak / 1e-3).astype(np.intp)[:, None] + np.arange(-3, 2)  # grid[i] = (i+1)e-3
    np.clip(cols, 0, _GRID.size - 1, out=cols)
    vals = _lower_z1_objective(z, _GRID[:, None], _GRID[cols])
    ia, j = np.unravel_index(np.argmax(vals), vals.shape)
    a, q = float(_GRID[ia]), float(_GRID[cols[ia, j]])
    radius = 2e-3
    while radius > 1e-9:
        axis_a, axis_q = _zoom_axis(a, radius), _zoom_axis(q, radius)
        box = _lower_z1_objective(z, axis_a[:, None], axis_q[None, :])
        ja, jq = divmod(int(box.argmax()), 61)
        a, q = float(axis_a[ja]), float(axis_q[jq])
        radius *= 0.3
    best = float(_lower_z1_objective(z, a, q))
    if not math.isfinite(best) or best <= 0.0:
        raise ConvergenceFailure(f"maximization degenerated at z={z}")
    return RateBound(kind="lower-z1", value=best / z, z=z,
                     optimizer={"alpha": a, "Q": q})


def universal_upper(l: int, s: int) -> float:
    """min(log2(l+1)/s, recurrent bound at floor((s-1)/l)) for saturating designs."""
    if not 1 <= l < s:
        raise ParameterOutOfRange(f"need 1 <= l < s, got {(l, s)}")
    return min(math.log2(l + 1) / s, _recurrent((s - 1) // l))


def threshold_lower_simple(u: int, s: int) -> float:
    """Random-coding lower bound on threshold-design rates at strength s.

    Equals the (s-u+1, u) random-coding bound written with denominator s.
    """
    if not 1 <= u < s:
        raise ParameterOutOfRange(f"need 1 <= u < s, got {(u, s)}")
    return lower_zu(s - u + 1, u)


def _hit(count: int, beta, u: int, misses: int):
    """count * beta**u * (1 - beta)**misses, for a float beta or a beta array.

    A count beyond the float range is taken through its logarithm; every
    other count keeps the plain product.
    """
    try:
        count = float(count)
    except OverflowError:
        return np.exp(math.log(count) + u * np.log(beta) + misses * np.log1p(-beta))
    return count * beta**u * (1.0 - beta) ** misses


def threshold_rc_term(beta: float, u: int, group: int, extra: int) -> float:
    """One term of the exact-hit random-coding bound: group size `group`
    (>= u) and `extra` blockers (0 <= extra <= group).  Degenerate
    denominator returns +inf."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"need 0 < beta < 1, got {beta}")
    denom = group + extra - 1
    if denom == 0:
        return math.inf
    hit = _hit(math.comb(group - 1, u - 1), beta, u, group + extra - u)
    if hit < 2.0**-26:  # 1 - hit would drop most of hit's digits
        return -math.log1p(-hit) * LOG2E / denom
    return -math.log2(1.0 - hit) / denom


@lru_cache(maxsize=16)  # one threshold_lower(u, s) evaluates at one (u, s)
def _threshold_terms(u: int, s: int) -> tuple[tuple[float | None, int, int], ...]:
    """(comb(g - 1, u - 1) as a float, misses 2g - u, denominator 2g - 1)
    of each diagonal term g = u..s; the count is None where it overflows a
    float."""
    terms = []
    for g in range(u, s + 1):
        try:
            count = float(math.comb(g - 1, u - 1))
        except OverflowError:
            count = None
        terms.append((count, 2 * g - u, 2 * g - 1))
    return tuple(terms)


def threshold_objective(beta: float, u: int, s: int) -> float:
    """min over group sizes u..s of the diagonal (extra = group) term.

    Each term is threshold_rc_term(beta, u, g, g) bit for bit: the same
    product, in the same order, with beta**u and 1 - beta taken once; a
    count beyond the float range takes threshold_rc_term itself."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"need 0 < beta < 1, got {beta}")
    hit_u, miss = beta**u, 1.0 - beta
    values = []
    for g, (count, misses, denom) in enumerate(_threshold_terms(u, s), u):
        if count is None:
            values.append(threshold_rc_term(beta, u, g, g))
            continue
        hit = count * hit_u * miss**misses
        if hit < 2.0**-26:  # as in threshold_rc_term
            values.append(-math.log1p(-hit) * LOG2E / denom)
        else:
            values.append(-math.log2(1.0 - hit) / denom)
    return min(values)


# Group sizes per block of the whole-array threshold scan (bounds its memory).
_GROUP_BLOCK = 256
# The scalar objective's rounding of 1 - hit costs at most 2^-27 relative
# (hit >= 2^-26 there) and the array side's error is a few ulps, so every
# grid point whose scalar value can be the maximum lies within this band.
_RECHECK_BAND = 2.0**-20


def _threshold_grid_objective(u: int, s: int) -> np.ndarray:
    """threshold_objective at every grid point, to within a few ulps."""
    low = np.full(_GRID.size, np.inf)
    for start in range(u, s + 1, _GROUP_BLOCK):
        stop = min(start + _GROUP_BLOCK, s + 1)
        g = np.arange(start, stop)[:, None]
        counts = [math.comb(k - 1, u - 1) for k in range(start, stop)]
        try:
            hit = np.array(counts, dtype=float)[:, None] * _GRID**u * (1.0 - _GRID) ** (2 * g - u)
        except OverflowError:  # a count beyond the float range: row by row
            hit = np.array([_hit(c, _GRID, u, 2 * k - u) for k, c in enumerate(counts, start)])
        terms = -np.log1p(-hit) * LOG2E / (2 * g - 1)
        np.minimum(low, terms.min(axis=0), out=low)
    return low


def threshold_lower(u: int, s: int) -> RateBound:
    """Max-min random-coding lower bound for threshold designs.

    Maximizes over the bit density beta (grid step 1e-3, golden-section
    refinement to 1e-8) the worst group-size term; the optimizer records
    beta and the minimizing group size.  The grid is scanned as one array,
    and the scalar objective re-checks the points within a relative band
    of its maximum, so the first grid maximum is the scalar scan's.
    """
    if not 1 <= u < s:
        raise ParameterOutOfRange(f"need 1 <= u < s, got {(u, s)}")
    approx = _threshold_grid_objective(u, s)
    top = approx.max()
    if not top > 0.0:  # the bound is below the float range on the whole grid
        raise ConvergenceFailure(f"degenerate threshold bound at {(u, s)}")
    best_i = 0
    best_v = -math.inf
    for i in np.flatnonzero(approx >= top - _RECHECK_BAND * abs(top)).tolist():
        v = threshold_objective(float(_GRID[i]), u, s)
        if v > best_v:
            best_v, best_i = v, i
    lo = _GRID[best_i] - 1e-3 if best_i > 0 else 1e-12
    hi = _GRID[best_i] + 1e-3 if best_i < _GRID.size - 1 else 1.0 - 1e-12
    beta, value = _golden_max(lambda b: threshold_objective(b, u, s), lo, hi, 1e-8)
    if not math.isfinite(value) or value <= 0.0:
        raise ConvergenceFailure(f"degenerate threshold bound at {(u, s)}")
    argmin = min(range(u, s + 1), key=lambda g: threshold_rc_term(beta, u, g, g))
    return RateBound(kind="threshold-lower", value=float(value), u=u, s=s,
                     optimizer={"beta": float(beta), "group": argmin})


# Leading-order formula of each asymptotic kind, with the parameters it
# needs in the order they are checked.
_ASYMPTOTIC = {
    "upper-z1": (("z",), lambda z, u, s: 2.0 * math.log2(z) / z**2),
    "upper-zu": (("z", "u"), lambda z, u, s:
                 (u + 1) ** (u + 1) / (2.0 * math.e ** (u - 1)) * math.log2(z) / z ** (u + 1)),
    "lower-zu": (("z", "u"), lambda z, u, s: math.exp(-u) * u**u * LOG2E / z ** (u + 1)),
    "lower-z1": (("z",), lambda z, u, s: LN2 / z**2),
    "threshold-lower": (("u", "s"), lambda z, u, s: math.exp(-u) * u**u * LOG2E / s ** (u + 1)),
    "exact-size-lower": (("s",), lambda z, u, s: 2.0 * LN2 / s**2),
    "exact-size-upper": (("s",), lambda z, u, s: 4.0 * math.log2(s) / s**2),
}

ASYMPTOTIC_KINDS = tuple(_ASYMPTOTIC)


def asymptotic_rate(kind: str, z: int | None = None, u: int | None = None,
                    s: int | None = None) -> float:
    """Leading-order term of the named asymptotic bound (no o(1) factor)."""
    if kind not in _ASYMPTOTIC:
        raise UnknownKind(f"unknown asymptotic kind {kind!r}")
    needs, formula = _ASYMPTOTIC[kind]
    params = {"z": z, "u": u, "s": s}
    for name in needs:
        val = params[name]
        if val is None:
            raise ParameterOutOfRange(f"asymptotic kind {kind!r} needs {name}")
        if val < 1:
            raise ParameterOutOfRange(f"{name} must be >= 1, got {val}")
    try:
        return formula(z, u, s)
    except OverflowError:
        raise DomainError(f"asymptotic kind {kind!r} overflows a float at "
                          + ", ".join(f"{n}={params[n]}" for n in needs)) from None
