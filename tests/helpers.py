"""Independent oracles used by the test suite.

Everything here recomputes results along a different path from the library
code it checks: brute-force pairwise statistics, explicit polynomial
evaluation, rank computations over the field tables, the per-pair
polynomial construction of the field tables, the unpruned parameter
search, and the element-wise construct path (Reed-Solomon encoding by digit
arrays, binary expansion by scatter, the matrix reader by per-line loop).
"""

from itertools import combinations, product

import numpy as np

from sic.codes import BinaryCode, QaryCode, RSMeta
from sic.errors import MalformedFile
from sic.fields import FiniteField, is_prime_power


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


def binary_expand_by_scatter(code: QaryCode) -> BinaryCode:
    """`sic.codes.binary_expand` by scattering a 1 into row i*q + v of a zero
    matrix for each symbol v in row i."""
    q, n, t = code.q, code.n, code.t
    bits = np.zeros((n * q, t), dtype=np.uint8)
    rows = np.arange(n, dtype=np.int64)[:, None] * q + code.symbols
    cols = np.broadcast_to(np.arange(t, dtype=np.int64), (n, t))
    bits[rows.ravel(), cols.ravel()] = 1
    return BinaryCode(bits=bits, weight=n)


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


def lex_subsets(items, lo: int, hi: int) -> list[tuple]:
    """Subsets with sizes in [lo, hi] in the order documented in `sic.verify`
    (Python orders a tuple before its extensions)."""
    return sorted(S for k in range(lo, hi + 1) for S in combinations(items, k))


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
