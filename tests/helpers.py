"""Independent oracles used by the test suite.

Everything here recomputes results along a different path from the library
code it checks: brute-force pairwise statistics, explicit polynomial
evaluation, rank computations over the field tables, the per-pair
polynomial construction of the field tables, the field generator's powers
by one polynomial product per power, the unpruned parameter
search, the element-wise construct path (Reed-Solomon encoding by digit
arrays, shortening by evaluating and masking, binary expansion by scatter, the matrix reader by per-line loop),
the bound optimizers' unpruned grid scans, the checkers' subset
enumeration as a merge of Python tuples packed by `np.fromiter`, the
checkers' packed row kernel by a byte gather summed to counts
(`byte_hits`), the d-code scan over every S with it, the design check by
a dict of `bytes` keys, the threshold pair scans by one
loop iteration per outer set, the cover-free and m-code checks by one loop
iteration per U over the rows that U selects, the (z, u) upper-bound
table by recursion through `lru_cache`, and `sic bounds` output from every
row collected into a list before any is printed.
"""

import heapq
import io
import json
import math
from functools import lru_cache, partial
from itertools import chain, combinations, islice, product, repeat
from math import comb
from operator import add

import numpy as np

import sic.bounds
from sic.bounds import (SEEDED_UPPER_2_2, RateBound, _golden_max, _lower_z1_objective,
                        _recurrent, threshold_objective, threshold_rc_term)
from sic.cli import BOUND_AXES, build_parser
from sic.codes import BinaryCode, QaryCode, RSMeta
from sic.errors import BudgetExceeded, MalformedFile, ParameterOutOfRange
from sic.fields import FiniteField, _poly_rem, is_prime_power
from sic.subsets import lex_batches, lex_count, lex_tuples
from sic.verify import OutcomeFunction, VerificationReport, _batch_size, _bits, _subset


def _poly_mul_mod(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def smallest_irreducible_by_products(p: int, m: int) -> tuple[int, ...]:
    """The lex-smallest (low degree first) monic degree-m polynomial over
    GF(p) that is no product of two monic polynomials of positive degree."""
    reducible = set()
    for d in range(1, m // 2 + 1):
        for lo in product(range(p), repeat=d):
            for hi in product(range(p), repeat=m - d):
                reducible.add(tuple(_poly_mul_mod([*lo, 1], [*hi, 1], p)))
    return next(c for c in ((*low, 1) for low in product(range(p), repeat=m))
                if c not in reducible)


def generator_powers_by_polynomials(p: int, modulus: tuple[int, ...]) -> list[int]:
    """[g^0, ..., g^(q-2)] for the smallest element g of order q - 1, by
    repeated polynomial multiplication by g reduced by the monic `modulus`:
    one `np.convolve` and one remainder per power."""
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
    raise AssertionError(f"GF({q}) has no generator")


def pair_loop_tables(q: int) -> tuple[np.ndarray, ...]:
    """(add, mul, neg, inv) int16 tables of GF(q), inv[0] = -1.

    Prime fields by integer arithmetic mod q; extension fields by one
    polynomial product per pair of elements, reduced by the canonical
    modulus.  Negatives and inverses by scanning the tables for 0 and 1.
    """
    p, m = is_prime_power(q)
    if m == 1:
        a = np.arange(q, dtype=np.int64)
        add = (a[:, None] + a[None, :]) % q
        mul = (a[:, None] * a[None, :]) % q
    else:
        mod = smallest_irreducible_by_products(p, m)
        powers = p ** np.arange(m, dtype=np.int64)
        digits = (np.arange(q, dtype=np.int64)[:, None] // powers) % p  # (q, m)
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ powers
        mul = np.zeros((q, q), dtype=np.int64)
        digit_lists = digits.tolist()
        for x in range(q):
            for y in range(x, q):
                prod = _poly_mul_mod(digit_lists[x], digit_lists[y], p)
                for i in range(len(prod) - 1, m - 1, -1):
                    c = prod[i]
                    if c:
                        for j in range(m + 1):
                            prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
                mul[x, y] = mul[y, x] = sum(prod[j] * int(powers[j]) for j in range(m))
    add, mul = add.astype(np.int16), mul.astype(np.int16)
    neg = np.argmax(add == 0, axis=1).astype(np.int16)
    inv = np.full(q, -1, dtype=np.int16)
    for x in range(1, q):
        inv[x] = np.flatnonzero(mul[x] == 1)[0]
    return add, mul, neg, inv


def pairwise_min_distance(symbols: np.ndarray) -> int:
    """Exhaustive minimum pairwise Hamming distance between columns."""
    n, t = symbols.shape
    best = n + 1
    block = max(1, 4_000_000 // (n * t + 1))
    for a in range(0, t, block):
        b = min(a + block, t)
        diff = (symbols[:, a:b, None] != symbols[:, None, :]).sum(axis=0)
        for i in range(a, b):
            diff[i - a, i] = n + 1  # ignore self-comparisons
        best = min(best, int(diff.min()))
    return best


def qary_agreement_matrix(symbols: np.ndarray) -> np.ndarray:
    """t x t matrix of pairwise agreement-position counts."""
    n, t = symbols.shape
    agree = np.zeros((t, t), dtype=np.int32)
    for i in range(n):
        row = symbols[i]
        agree += row[:, None] == row[None, :]
    return agree


def search_params_unpruned(s: int, m: int, q_max: int = 64):
    """(q, lam) of the minimum-length strength-s parameters with size in
    [2^m, 2^(m+1)), or None, by trying every lam with q^(lam+1) < 2^(m+1)
    for every prime power q <= q_max."""
    lo, hi = 2**m, 2 ** (m + 1)
    best_key = None
    for q in range(2, q_max + 1):
        if is_prime_power(q) is None:
            continue
        lam = 1
        while q ** (lam + 1) < hi:
            w = s * lam + 1
            if q ** (lam + 1) >= lo and w <= q + 1:
                key = (w * q, q, lam)
                if best_key is None or key < best_key:
                    best_key = key
            lam += 1
    return None if best_key is None else best_key[1:]


def rs_extended_by_digits(field: FiniteField, k: int) -> QaryCode:
    """`sic.codes.rs_extended` by k base-q digit arrays of the column index
    and an element-wise Horner step add[mul[acc, a], digit]."""
    q = field.q
    t = q**k
    idx = np.arange(t, dtype=np.int64)
    digits = [((idx // q**i) % q).astype(np.int16) for i in range(k)]
    add, mul = field.add_table, field.mul_table
    symbols = np.empty((q + 1, t), dtype=np.uint8 if q <= 256 else np.uint16)
    for a in range(q):
        mul_by_a = mul[:, a]
        acc = digits[k - 1]
        for i in range(k - 2, -1, -1):
            acc = add[mul_by_a[acc], digits[i]]
        symbols[a] = acc
    symbols[q] = digits[k - 1]
    return QaryCode(q=q, symbols=symbols, meta=RSMeta(k=k, r=0, d=q - k + 2))


def shortened_by_mask(field: FiniteField, k: int, r: int) -> np.ndarray:
    """The symbols of `shorten(rs_extended(field, k), r)` by evaluating
    messages with digit arrays and masking: the value at point 0 is the
    lowest digit, so for r >= 1 only the messages with lowest digit 0 are
    evaluated at 1..r-1; those that vanish there are kept and evaluated at
    every other point, element by element."""
    q = field.q
    idx = np.arange(q ** k if r == 0 else q ** (k - 1), dtype=np.int64) * (1 if r == 0 else q)
    add, mul = field.add_table, field.mul_table

    def evaluate(idx, a):
        digits = [((idx // q**i) % q).astype(np.int16) for i in range(k)]
        acc = digits[k - 1]
        for i in range(k - 2, -1, -1):
            acc = add[mul[acc, a], digits[i]]
        return acc

    for a in range(1, r):
        idx = idx[evaluate(idx, a) == 0]
    symbols = np.empty((q + 1 - r, len(idx)), dtype=np.uint8 if q <= 256 else np.uint16)
    for a in range(r, q):
        symbols[a - r] = evaluate(idx, a)
    symbols[-1] = idx // q ** (k - 1)
    return symbols


def binary_expand_by_scatter(code: QaryCode) -> BinaryCode:
    """`sic.codes.binary_expand` by scattering a 1 into row i*q + v of a zero
    matrix for each symbol v in row i."""
    q, n, t = code.q, code.n, code.t
    bits = np.zeros((n * q, t), dtype=np.uint8)
    rows = np.arange(n, dtype=np.int64)[:, None] * q + code.symbols
    cols = np.broadcast_to(np.arange(t, dtype=np.int64), (n, t))
    bits[rows.ravel(), cols.ravel()] = 1
    return BinaryCode(bits=bits, weight=n)


def threshold_lower_by_loop(u: int, s: int) -> RateBound:
    """`sic.bounds.threshold_lower` with the scalar objective at every one of
    the 999 grid points, keeping the first maximum."""
    grid = np.arange(1e-3, 1.0, 1e-3)
    best_i = 0
    best_v = -math.inf
    for i, b in enumerate(grid):
        v = threshold_objective(float(b), u, s)
        if v > best_v:
            best_v, best_i = v, i
    lo = grid[best_i] - 1e-3 if best_i > 0 else 1e-12
    hi = grid[best_i] + 1e-3 if best_i < len(grid) - 1 else 1.0 - 1e-12
    beta, value = _golden_max(lambda b: threshold_objective(b, u, s), lo, hi, 1e-8)
    argmin = min(range(u, s + 1), key=lambda g: threshold_rc_term(beta, u, g, g))
    return RateBound(kind="threshold-lower", value=float(value), u=u, s=s,
                     optimizer={"beta": float(beta), "group": argmin})


def threshold_objective_full(beta: float, u: int, s: int) -> float:
    """Full double minimum over group sizes and blocker counts."""
    return min(threshold_rc_term(beta, u, g, x)
               for g in range(u, s + 1) for x in range(0, g + 1))


@lru_cache(maxsize=None)
def upper_zu_by_recursion(z: int, u: int) -> tuple[float, tuple[int, int] | None, str | None]:
    """`sic.bounds._upper_zu` by recursion through `lru_cache` (z >= u >= 1)."""
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
            base = upper_zu_by_recursion(zz, uu)[0]
            cand = base / (base + (i + j) ** (i + j) / (i**i * j**j))  # the split penalty
            if best is None or cand < best - 1e-15:
                best, arg = cand, (i, j)
    return best, arg, None


def lower_z1_full_grid(z: int) -> RateBound:
    """`sic.bounds.lower_z1` with the objective on the whole 999 x 999 grid."""
    grid = np.arange(1e-3, 1.0, 1e-3)
    vals = _lower_z1_objective(z, grid[:, None], grid[None, :])
    ia, iq = np.unravel_index(np.argmax(vals), vals.shape)
    a, q = float(grid[ia]), float(grid[iq])
    radius = 2e-3
    while radius > 1e-9:
        axis_a = np.linspace(max(a - radius, 1e-12), min(a + radius, 1 - 1e-12), 61)
        axis_q = np.linspace(max(q - radius, 1e-12), min(q + radius, 1 - 1e-12), 61)
        box = _lower_z1_objective(z, axis_a[:, None], axis_q[None, :])
        ja, jq = np.unravel_index(np.argmax(box), box.shape)
        a, q = float(axis_a[ja]), float(axis_q[jq])
        radius *= 0.3
    best = float(_lower_z1_objective(z, a, q))
    return RateBound(kind="lower-z1", value=best / z, z=z, optimizer={"alpha": a, "Q": q})


def read_matrix_by_lines(path) -> BinaryCode:
    """`sic.matrixfile.read_matrix` checking and converting one line at a time."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MalformedFile("line 1: empty file")
    fields = lines[0].split()
    if len(fields) not in (4, 5) or fields[0] != "SIC" or fields[1] != "v1":
        raise MalformedFile(f"line 1: expected 'SIC v1 N t [w]', got {lines[0]!r}")
    try:
        nums = [int(x) for x in fields[2:]]
    except ValueError:
        raise MalformedFile(f"line 1: non-integer header fields in {lines[0]!r}") from None
    N, t = nums[0], nums[1]
    w = nums[2] if len(nums) == 3 else None
    if N < 1 or t < 1 or (w is not None and not 0 <= w <= N):
        raise MalformedFile(f"line 1: inconsistent dimensions N={N} t={t} w={w}")
    if len(lines) < 1 + N:
        raise MalformedFile(f"line {len(lines) + 1}: expected {N} data rows, file ends early")
    rows = np.empty((N, t), dtype=np.uint8)
    for i in range(N):
        line = lines[1 + i]
        if len(line) != t or set(line) - {"0", "1"}:
            raise MalformedFile(f"line {i + 2}: expected {t} characters from 0/1")
        rows[i] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
    for extra, line in enumerate(lines[1 + N:], start=N + 2):
        if line and not line.startswith("#"):
            raise MalformedFile(f"line {extra}: unexpected content after data rows")
    if w is not None:
        weights = rows.sum(axis=0)
        bad = np.flatnonzero(weights != w)
        if bad.size:
            raise MalformedFile(
                f"column {int(bad[0])} has weight {int(weights[bad[0]])}, header says {w}")
    return BinaryCode(bits=rows, weight=w)


def gf_rank(f: FiniteField, mat) -> int:
    """Rank of a matrix over GF(q) by Gaussian elimination on the field tables."""
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = f.inv(m[rank][c])
        m[rank] = [f.mul(inv, x) for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c] != 0:
                factor = m[r][c]
                m[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _poly_mul_field(f: FiniteField, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return out


def _eval_poly(f: FiniteField, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, x), c)
    return acc


def rs_min_distance_structural(field: FiniteField, k: int) -> int:
    """Exact minimum distance of the extended RS code, no materialization.

    The code is linear, so the minimum distance is the minimum nonzero
    codeword weight.  A nonzero codeword with >= k zero positions would
    make some k-subset of the (q+1) evaluation columns linearly dependent;
    checking every k-subset for full rank proves d >= q-k+2 exhaustively
    over zero patterns.  The polynomial with roots at the first k-1 field
    elements then witnesses d <= q-k+2.
    """
    q = field.q
    gen = [[0] * (q + 1) for _ in range(k)]
    for a in range(q):
        for i in range(k):
            gen[i][a] = field.pow(a, i)
    gen[k - 1][q] = 1  # extension column carries the leading coefficient
    for subset in combinations(range(q + 1), k):
        sub = [[gen[i][c] for c in subset] for i in range(k)]
        if gf_rank(field, sub) < k:
            raise AssertionError(f"dependent columns {subset}: codeword with >= {k} zeros")
    # witness of weight exactly q-k+2
    poly = [1]
    for root in range(k - 1):
        poly = _poly_mul_field(field, poly, [field.neg(root), 1])
    word = [_eval_poly(field, poly, a) for a in range(q)] + [poly[-1]]
    weight = sum(1 for c in word if c != 0)
    assert weight == q - k + 2, f"witness weight {weight} != {q - k + 2}"
    return q - k + 2


def byte_columns(bits: np.ndarray) -> np.ndarray:
    """Columns of `bits` as rows of bytes, plus the all-zero row selected by -1."""
    cols = np.zeros((bits.shape[1] + 1, bits.shape[0]), dtype=np.uint8)
    cols[:-1] = bits.T
    return cols


def byte_hits(cols: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """(subsets, rows) count of each subset's columns that each row hits,
    by one (width, subsets, rows) byte gather of `byte_columns`: the byte
    kernel that `sic.words.at_least` replaced in the checkers."""
    return cols[batch.T].sum(axis=0, dtype=np.int32)


def lex_subsets(items, lo: int, hi: int) -> list[tuple]:
    """Subsets with sizes in [lo, hi] in the order documented in `sic.verify`
    (Python orders a tuple before its extensions)."""
    return sorted(S for k in range(lo, hi + 1) for S in combinations(items, k))


def lex_by_merge(items, lo: int, hi: int):
    """Subsets of `items` with sizes in [lo, hi] in lexicographic order, as
    hi-tuples padded with -1: the rows of `sic.subsets.lex_batches`."""
    if lo == hi:
        return combinations(items, hi)  # a merge of one iterable, without its per-item cost
    return heapq.merge(*(map(add, combinations(items, k), repeat((-1,) * (hi - k)))
                         for k in range(lo, hi + 1)))


def batches_by_fromiter(subsets, width: int, size: int):
    """(size, width) index arrays of consecutive padded subsets (the last
    one shorter); nothing for width 0."""
    flat = chain.from_iterable(subsets)
    while True:
        batch = np.fromiter(islice(flat, size * width), dtype=np.intp)
        if not batch.size:
            return
        yield batch.reshape(-1, width)


def brute_report(prop: str, bits, params: dict):
    """(satisfied, witness, tuples_checked) of a `sic.verify` checker, by plain
    loops over the definition in the order documented in `sic.verify`.

    `prop` is one of cover_free (z, u), d_code (s, l), m_code (s, u),
    design (values, s, mode), threshold and threshold_bar (u, s).  Tuples
    are counted as the checkers count them, up to and including the first
    counterexample.
    """
    rows = np.asarray(bits, dtype=np.uint8).tolist()
    t = np.shape(bits)[1]
    p = params
    checked = 0

    def hits(row, cols):
        return sum(row[c] for c in cols)

    if prop == "cover_free":
        for U in combinations(range(t), p["u"]):
            for Z in combinations([c for c in range(t) if c not in U], p["z"]):
                checked += 1
                if not any(hits(r, U) == len(U) and hits(r, Z) == 0 for r in rows):
                    return False, {"U": U, "Z": Z}, checked
    elif prop == "d_code":
        for S in combinations(range(t), p["s"]):
            for j in range(t):
                if j in S:
                    continue
                checked += 1
                if not any(r[j] and hits(r, S) <= p["l"] - 1 for r in rows):
                    return False, {"S": S, "j": j}, checked
    elif prop == "m_code":
        for U in lex_subsets(range(t), p["u"], p["s"]):
            rest = [c for c in range(t) if c not in U]
            for Z in lex_subsets(rest, 0, len(U)):
                for j in U:
                    checked += 1
                    if not any(r[j] and hits(r, U) == p["u"] and hits(r, Z) == 0 for r in rows):
                        return False, {"U": U, "Z": Z, "j": j}, checked
    elif prop == "design":
        values, s = p["values"], p["s"]
        l = len(values) - 1
        threshold = len(set(values[:-1])) == 1
        lo = s if p["mode"] == "exactly" else (l if threshold else 0)
        first_with: dict[tuple, tuple] = {}
        for P in lex_subsets(range(t), lo, s):
            checked += 1
            outcome = tuple(values[min(hits(r, P), l)] for r in rows)
            if outcome in first_with:
                return False, {"P": first_with[outcome], "Pprime": P}, checked
            first_with[outcome] = P
    elif prop in ("threshold", "threshold_bar"):
        sets = lex_subsets(range(t), p["u"], p["s"])
        fires = {P: {i for i, r in enumerate(rows) if hits(r, P) >= p["u"]} for P in sets}
        for P in sets:
            for Q in sets:
                if P == Q:
                    continue
                if prop == "threshold_bar" and set(P) <= set(Q):
                    continue
                if prop == "threshold" and len(P) < len(Q):
                    continue
                checked += 1
                if not fires[P] - fires[Q]:
                    return False, {"P": P, "Pprime": Q}, checked
    else:
        raise ValueError(f"unknown property {prop!r}")
    return True, None, checked


def d_code_by_hits(X, s: int, l: int, budget: int | None = None) -> VerificationReport:
    """`sic.verify.check_d_code` by its BLAS scan over every s-subset, with
    the rows each S leaves usable counted by `byte_hits`, no translate
    reduction and no multicover decision."""
    bits = _bits(X)
    N, t = bits.shape
    if not 1 <= l < s < t:
        raise ParameterOutOfRange(f"need 1 <= l < s < t, got {(l, s, t)}")
    _check_scans(comb(t, s) * (t - s) * N, budget)
    cols = byte_columns(bits)
    float_bits = bits.astype(np.float32)
    offset = 0
    for batch in lex_batches(t, s, s, _batch_size(max(N * s, t))):
        covered = (byte_hits(cols, batch) <= l - 1).astype(np.float32) @ float_bits
        np.put_along_axis(covered, batch, 1.0, axis=1)  # members of S exempt
        bad = covered < 0.5
        if bad.any():
            r = int(np.flatnonzero(bad.any(axis=1))[0])
            j = int(np.flatnonzero(bad[r])[0])
            checked = (offset + r) * (t - s) + j + 1 - int((batch[r] < j).sum())
            return VerificationReport(False, {"S": _subset(batch[r]), "j": j}, checked)
        offset += len(batch)
    return VerificationReport(True, None, comb(t, s) * (t - s))


def _check_scans(scans: int, budget: int | None) -> None:
    """The documented row-scan budget, 10^9 unless given, restated so that
    the oracles share no cost code with the checkers they test."""
    limit = 10**9 if budget is None else budget
    if scans > limit:
        raise BudgetExceeded(f"{scans} row scans exceed budget {limit}")


def design_by_dict(X, F: OutcomeFunction, s: int, mode: str = "at-most",
                   budget: int | None = None) -> VerificationReport:
    """`sic.verify.check_design` with one `bytes` key per candidate in a
    dict from key to the enumeration index of its first subset."""
    bits = _bits(X)
    N, t = bits.shape
    if not 1 <= F.l <= s < t:
        raise ParameterOutOfRange(f"need 1 <= l <= s < t, got l={F.l}, s={s}, t={t}")
    # the documented domain: sizes s..s exactly, 0..s at most, l..s at most
    # for a threshold map
    if mode == "exactly":
        lo = s
    elif mode == "at-most":
        lo = F.l if len(set(F.values[:-1])) == 1 else 0
    else:
        raise ParameterOutOfRange(f"mode must be 'at-most' or 'exactly', got {mode!r}")
    _check_scans(sum(comb(t, k) for k in range(lo, s + 1)) * N, budget)
    # outcome vectors are equal iff their vectors of label indices are
    labels = np.unique(F.values, return_inverse=True)[1].astype(np.min_scalar_type(F.l))
    cols = byte_columns(bits)
    seen: dict[bytes, int] = {}  # outcome key -> enumeration index of its first subset
    size = _batch_size(N * s)
    for batch in lex_batches(t, lo, s, size):
        outcomes = labels[np.minimum(byte_hits(cols, batch), F.l)]
        for r, key in enumerate(map(bytes, outcomes)):
            n = len(seen)
            prev = seen.setdefault(key, n)
            if prev != n:
                for block in lex_batches(t, lo, s, size):  # to subset number prev
                    if prev < len(block):
                        break
                    prev -= len(block)
                return VerificationReport(False, {"P": _subset(block[prev]),
                                                  "Pprime": _subset(batch[r])}, n + 1)
    return VerificationReport(True, None, len(seen))


def threshold_pairs_by_loop(X, u: int, s: int, bar: bool,
                            budget: int | None = None) -> VerificationReport:
    """`sic.verify._check_threshold_pairs` with one Python iteration per
    outer set over bit-packed rows and a (sets, t + 1) bool membership."""
    bits = _bits(X)
    N, t = bits.shape
    if not (1 <= u < s and 2 * s < t):
        raise ParameterOutOfRange(f"need 1 <= u < s < t/2, got {(u, s, t)}")
    n_sets = sum(comb(t, i) for i in range(u, s + 1))
    _check_scans(n_sets * n_sets * N, budget)  # every ordered pair compared, P' = P too
    cols = byte_columns(bits)
    batches = list(lex_batches(t, u, s, _batch_size(N * s)))
    sets = np.concatenate(batches)
    # bit-packed rows: fire[i] marks the rows with >= u hits in set i
    fire = np.concatenate([np.packbits(byte_hits(cols, b) >= u, axis=1) for b in batches])
    silent = ~fire
    if bar:
        member = np.zeros((n_sets, t + 1), dtype=bool)
        np.put_along_axis(member, sets, True, axis=1)
        member = np.packbits(member[:, :t], axis=1)
        outside = ~member
    else:
        sizes = (sets >= 0).sum(axis=1)
    checked = 0
    for i in range(n_sets):
        if bar:
            applies = (member[i] & outside).any(axis=1)  # P is not a subset of P'
        else:
            applies = sizes <= sizes[i]
        applies[i] = False
        bad = applies & ~(fire[i] & silent).any(axis=1)  # no row fires on P but not on P'
        if bad.any():
            j = int(np.argmax(bad))
            witness = {"P": _subset(sets[i]), "Pprime": _subset(sets[j])}
            return VerificationReport(False, witness, checked + int(applies[:j + 1].sum()))
        checked += int(applies.sum())
    return VerificationReport(True, None, checked)


def cover_free_by_rows(X, z: int, u: int, budget: int | None = None) -> VerificationReport:
    """`sic.verify.check_cover_free` with one loop iteration per U over the
    rows that are 1 on all of U, enumerating Z as indices into the columns
    outside U and mapping the witness back."""
    bits = _bits(X)
    N, t = bits.shape
    if z < 1 or u < 1 or z + u > t:
        raise ParameterOutOfRange(f"need z, u >= 1 and z + u <= t, got {(z, u, t)}")
    _check_scans(comb(t, u) * comb(t, z) * N, budget)  # every pair compared, disjoint or not
    cols = byte_columns(bits)
    checked = 0
    for U in lex_tuples(t, u, u):
        rows = cols[:, cols[list(U)].all(axis=0)]  # the rows that are 1 on all of U
        rest = np.array([c for c in range(t) if c not in U] + [-1])
        rows = rows[rest]  # Z indexes the columns outside U, then the zero column
        for batch in lex_batches(t - u, z, z, _batch_size(rows.shape[1] * z)):
            blocked = rows[batch].any(axis=1).all(axis=1)
            if blocked.any():
                r = int(np.argmax(blocked))
                Z = _subset(rest[batch[r]])
                return VerificationReport(False, {"U": U, "Z": Z}, checked + r + 1)
            checked += len(batch)
    return VerificationReport(True, None, checked)


def m_code_by_rows(X, s: int, u: int, budget: int | None = None) -> VerificationReport:
    """`sic.verify.check_m_code` with one loop iteration per U over the rows
    with exactly u hits in U, enumerating Z as indices into the columns
    outside U and mapping the witness back."""
    bits = _bits(X)
    N, t = bits.shape
    if not (1 <= u < s and 2 * s < t):
        raise ParameterOutOfRange(f"need 1 <= u < s < t/2, got {(u, s, t)}")
    # s slots per U against every Z of at most s columns, whether it applies or not
    _check_scans(lex_count(t, u, s) * s * lex_count(t, 0, s) * N, budget)
    cols = byte_columns(bits)
    checked = 0
    for U in lex_tuples(t, u, s):
        rows = cols[:, cols[list(U)].sum(axis=0) == u]  # the rows with exactly u hits in U
        at_j = rows[list(U)].T.astype(bool)              # (rows, |U|): row is 1 at j
        rest = np.array([c for c in range(t) if c not in U] + [-1])
        rows = rows[rest]  # Z indexes the columns outside U, then the zero column
        for batch in lex_batches(t - len(U), 0, len(U), _batch_size(rows.shape[1] * len(U))):
            avoid = ~rows[batch].any(axis=1)                              # (batch, rows): 0 on Z
            bad = np.flatnonzero(~(avoid[:, :, None] & at_j).any(axis=1))  # over (Z, j) pairs
            if bad.size:
                r, pos = divmod(int(bad[0]), len(U))
                witness = {"U": U, "Z": _subset(rest[batch[r]]), "j": U[pos]}
                return VerificationReport(False, witness, checked + int(bad[0]) + 1)
            checked += batch.size
    return VerificationReport(True, None, checked)


def _fmt_witness(opt: dict | None) -> str:
    return ";".join(f"{key}={val:.12g}" if isinstance(val, float) else f"{key}={val}"
                    for key, val in (opt or {}).items())


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2), file=out)
        return
    if fmt == "csv":
        print("kind,z,u,s,l,value,witness,note", file=out)
        for r in rows:
            cells = [r["kind"]]
            for key in ("z", "u", "s", "l"):
                cells.append("" if r.get(key) is None else str(r[key]))
            cells.append(f"{r['value']:.12g}")
            cells.append(_fmt_witness(r.get("optimizer")))
            cells.append(r.get("note") or "")
            print(",".join(cells), file=out)
        return
    for r in rows:
        parts = [r["kind"]]
        for key in ("z", "u", "s", "l"):
            if r.get(key) is not None:
                parts.append(f"{key}={r[key]}")
        parts.append(f"value={r['value']:.6f}")
        if r.get("reciprocal") is not None:
            parts.append(f"reciprocal={r['reciprocal']:.4f}")
        wit = _fmt_witness(r.get("optimizer"))
        if wit:
            parts.append(f"witness[{wit}]")
        if r.get("note"):
            parts.append(f"({r['note']})")
        print(" ".join(parts), file=out)


def _rate_row(kind, value, *, z=None, u=None, s=None, l=None, optimizer=None,
              note=None, reciprocal=None):
    row = {"kind": kind, "z": z, "u": u, "s": s, "l": l, "value": value,
           "optimizer": optimizer, "note": note}
    if reciprocal is not None:
        row["reciprocal"] = reciprocal
    return row


def bounds_by_list(argv: list[str]) -> str:
    """stdout of `sic bounds <argv>` for a grid whose every point succeeds,
    built by collecting every row into a list, then printing the list."""
    args = build_parser().parse_args(["bounds", *argv])
    kind = args.kind
    rows = []
    if kind == "recurrent-upper":
        for z, val in enumerate(sic.bounds.recurrent_upper(17 if args.z_max is None else args.z_max), start=1):
            rows.append(_rate_row(kind, val, z=z, reciprocal=1.0 / val))
    else:
        if kind == "asymptotic":
            axes = tuple(name for name in ("z", "u", "s") if getattr(args, name) is not None)
            kind, bound = f"asymptotic:{args.form}", partial(sic.bounds.asymptotic_rate, args.form)
        else:
            axes, bound = BOUND_AXES[kind], getattr(sic.bounds, kind.replace("-", "_"))
        grids = []
        for name in axes:
            lo, _, hi = getattr(args, name).partition(":")
            grids.append(list(range(int(lo), int(hi or lo) + 1)))
        for point in product(*grids):
            params = dict(zip(axes, point))
            value = bound(**params)
            if isinstance(value, RateBound):
                params.update(optimizer=value.optimizer, note=value.note)
                value = value.value
            rows.append(_rate_row(kind, value, **params))
    out = io.StringIO()
    _emit_rows(rows, args.format, out)
    return out.getvalue()
