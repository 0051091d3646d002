"""Property definitions used to check checker outputs independently of `sic`.

`domain_size` counts the tuples a checker enumerates when the property
holds, from the domains documented in `sic.verify`.  `witness_problem`
re-checks a counterexample against the property's definition and returns
None when the witness is valid, else a one-line reason.
"""

from __future__ import annotations

from math import comb

import numpy as np


def domain_size(prop: str, t: int, p: dict) -> int:
    if prop == "cover_free":
        return comb(t, p["u"]) * comb(t - p["u"], p["z"])
    if prop == "d_code":
        return comb(t, p["s"]) * (t - p["s"])
    if prop == "m_code":
        return sum(comb(t, a) * a * sum(comb(t - a, b) for b in range(a + 1))
                   for a in range(p["u"], p["s"] + 1))
    if prop == "design":
        lo, hi = _design_sizes(p)
        return sum(comb(t, i) for i in range(lo, hi + 1))
    sizes = range(p["u"], p["s"] + 1)
    if prop == "threshold":
        # ordered pairs P != P' with |P| >= |P'|
        return sum(comb(t, a) * comb(t, b) for a in sizes for b in sizes if a >= b) \
            - sum(comb(t, a) for a in sizes)
    if prop == "threshold_bar":
        # ordered pairs P != P' minus those with P a proper subset of P'
        n = sum(comb(t, a) for a in sizes)
        return n * (n - 1) - sum(comb(t, b) * comb(b, a) for a in sizes for b in sizes if a < b)
    raise ValueError(f"unknown property {prop!r}")


def _design_sizes(p: dict) -> tuple[int, int]:
    values = p["values"]
    if p["mode"] == "exactly":
        return p["s"], p["s"]
    is_threshold = all(v == values[0] for v in values[:-1])
    return (len(values) - 1 if is_threshold else 0), p["s"]


def _valid_set(cols, t: int) -> bool:
    return list(cols) == sorted(set(cols)) and all(0 <= c < t for c in cols)


def witness_problem(prop: str, bits: np.ndarray, p: dict, w: dict) -> str | None:
    bits = np.asarray(bits, dtype=np.int64)
    t = bits.shape[1]
    sets = [w[k] for k in ("U", "Z", "S", "P", "Pprime") if k in w]
    if not all(_valid_set(c, t) for c in sets):
        return f"witness {w} is not a set of column indices"

    def rows(cols):
        return bits[:, list(cols)].sum(axis=1)

    if prop == "cover_free":
        U, Z = w["U"], w["Z"]
        if len(U) != p["u"] or len(Z) != p["z"] or set(U) & set(Z):
            return f"witness {w} outside the domain"
        private = (rows(U) == len(U)) & (rows(Z) == 0)
        return f"row {int(np.argmax(private))} is private to U" if private.any() else None
    if prop == "d_code":
        S, j = w["S"], w["j"]
        if len(S) != p["s"] or j in S or not 0 <= j < t:
            return f"witness {w} outside the domain"
        good = (bits[:, j] == 1) & (rows(S) <= p["l"] - 1)
        return f"row {int(np.argmax(good))} covers j" if good.any() else None
    if prop == "m_code":
        U, Z, j = w["U"], w["Z"], w["j"]
        if not (p["u"] <= len(U) <= p["s"] and len(Z) <= len(U)) or set(U) & set(Z) or j not in U:
            return f"witness {w} outside the domain"
        good = (bits[:, j] == 1) & (rows(U) == p["u"]) & (rows(Z) == 0)
        return f"row {int(np.argmax(good))} hits j exactly" if good.any() else None
    P, Q = w["P"], w["Pprime"]
    if P == Q:
        return f"witness {w} repeats a set"
    if prop == "design":
        lo, hi = _design_sizes(p)
        if not (lo <= len(P) <= hi and lo <= len(Q) <= hi):
            return f"witness {w} outside the domain"
        values = np.asarray(p["values"])
        l = len(values) - 1
        same = (values[np.minimum(rows(P), l)] == values[np.minimum(rows(Q), l)]).all()
        return None if same else "outcome vectors differ"
    if not (p["u"] <= len(P) <= p["s"] and p["u"] <= len(Q) <= p["s"]):
        return f"witness {w} outside the domain"
    if prop == "threshold" and len(P) < len(Q):
        return f"witness {w} has |P| < |P'|"
    if prop == "threshold_bar" and set(P) <= set(Q):
        return f"witness {w} has P inside P'"
    fires = (rows(P) >= p["u"]) & (rows(Q) < p["u"])
    return f"row {int(np.argmax(fires))} separates P from P'" if fires.any() else None
