"""Command-line front end.

Subcommands: `bounds` (rate-bound tables), `construct` (build and save a
binary-expanded shortened RS code), `verify` (run a property checker on a
matrix file), `search` (minimum-length parameter search), and `examples`
(three built-in construction/verification walkthroughs).  Each subparser
carries its `_cmd_*` function.  Bound kinds and verify properties select
from tables (`BOUND_AXES`, `VERIFY_CHECKERS`) whose keys are the parser's
choices and whose functions are looked up by name at call time.

Exit codes: 0 success/satisfied, 1 property fails or search infeasible,
2 usage, file or out-of-range parameter errors, 3 enumeration budget
exceeded.  Data goes to stdout, diagnostics to stderr.  All output is
deterministic for identical invocations; SIC_BUDGET overrides the default
row-scan budget.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import bounds as B
from . import verify as V
from .codes import binary_expand, rs_extended, search_params, shorten, strength_feasible
from .errors import BudgetExceeded, SicError
from .fields import FiniteField
from .matrixfile import read_matrix, write_matrix

# Parameter axes of each grid-valued bound kind, in loop order.  The bound
# function is sic.bounds.<kind with '-' as '_'>, looked up at call time so
# that a wrapper installed on sic.bounds sees CLI calls too.
BOUND_AXES = {
    "nonrecurrent-upper": ("z",), "upper-zu": ("z", "u"), "lower-zu": ("z", "u"),
    "lower-z1": ("z",), "universal-upper": ("l", "s"),
    "threshold-lower-simple": ("u", "s"), "threshold-lower": ("u", "s"),
}

BOUND_KINDS = ("recurrent-upper", *BOUND_AXES, "asymptotic")

# Checker of each `verify` property, named in sic.verify and looked up at
# call time like the bound functions.  Every property takes two leading
# integers; d-cert and design also have their own output and parameters.
VERIFY_CHECKERS = {
    "cover-free": "check_cover_free", "d-code": "check_d_code",
    "d-cert": "check_d_certificate", "m-code": "check_m_code",
    "design": "check_design", "threshold": "check_threshold_design",
    "threshold-bar": "check_threshold_bar_design",
}

EXAMPLE_SPECS = (
    (5, 5, 2, 125, 20, 4, [(3, 2)], []),
    (7, 6, 3, 343, 35, 5, [(4, 2)], []),
    (8, 5, 2, 512, 56, 7, [(6, 2), (10, 3)], [(11, 3)]),
)


def _parse_range(text: str, name: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise SicError(f"bad {name} range {text!r}; use an int or LO:HI") from None


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


def _cmd_bounds(args) -> int:
    kind = args.kind
    rows: list[dict] = []
    if kind == "recurrent-upper":
        seq = B.recurrent_upper(args.z_max)
        for z, val in enumerate(seq, start=1):
            rows.append(_rate_row(kind, val, z=z, reciprocal=1.0 / val))
    elif kind == "asymptotic":
        if args.form is None:
            raise SicError("kind 'asymptotic' needs --form")
        params = {name: None if getattr(args, name) is None
                  else _parse_range(getattr(args, name), name)[0] for name in ("z", "u", "s")}
        value = B.asymptotic_rate(args.form, **params)
        rows.append(_rate_row(f"asymptotic:{args.form}", value, **params))
    else:
        axes = BOUND_AXES[kind]
        grids = []
        for name in axes:
            flag = getattr(args, name)
            if flag is None:
                raise SicError(f"kind {kind!r} needs --{name}")
            grids.append(_parse_range(flag, name))
        bound = getattr(B, kind.replace("-", "_"))
        for point in itertools.product(*grids):
            params = dict(zip(axes, point))
            value = bound(*point)
            if isinstance(value, B.RateBound):
                params.update(optimizer=value.optimizer, note=value.note)
                value = value.value
            rows.append(_rate_row(kind, value, **params))
    _emit_rows(rows, args.format, sys.stdout)
    return 0


def _cmd_construct(args) -> int:
    field = FiniteField(args.q)
    qary = shorten(rs_extended(field, args.k), args.r)
    code = binary_expand(qary)
    lam = args.k - args.r - 1
    try:
        write_matrix(code, args.out,
                     comments=[f"q={args.q} k={args.k} r={args.r} lambda={lam}"])
    except OSError as exc:
        raise SicError(f"cannot write {args.out}: {exc}") from None
    print(f"t={code.t} N={code.N} w={code.weight} lambda={lam}")
    return 0


def _format_witness_indices(witness: dict) -> str:
    def fmt(val):
        if isinstance(val, tuple):
            return ",".join(map(str, val)) if val else "-"
        return str(val)

    names = {"Pprime": "P'"}
    return " ".join(f"{names.get(k, k)}={fmt(v)}" for k, v in witness.items())


def _cmd_verify(args) -> int:
    budget = _budget(args)
    try:
        code = read_matrix(args.path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SicError(f"cannot read {args.path}: {exc}") from None
    prop, params = args.prop, args.params
    if len(params) < 2:
        raise SicError(f"property {prop!r} needs 2 integer parameters")
    try:
        a, b = map(int, params[:2])
    except ValueError:
        raise SicError(f"bad integer parameters {params[:2]}") from None
    check = getattr(V, VERIFY_CHECKERS[prop])
    if prop == "d-cert":
        ok = check(code, a, b)
        print("certified" if ok else "not certified")
        return 0 if ok else 1
    if prop == "design":
        if len(params) < 3:
            raise SicError("design needs: l s mode [labels...]")
        mode, labels = params[2], params[3:]
        if labels:
            try:
                F = V.OutcomeFunction(values=tuple(int(x) for x in labels))
            except ValueError:
                raise SicError(f"bad outcome labels {labels}") from None
            if F.l != a:
                raise SicError(f"{len(labels)} labels inconsistent with l={a}")
        else:
            F = V.OutcomeFunction.saturating(a)
        report = check(code, F, b, mode=mode, budget=budget)
    else:
        report = check(code, a, b, budget=budget)

    if report.satisfied:
        print(f"satisfied (tuples checked: {report.tuples_checked})")
        return 0
    print("not satisfied")
    print(f"witness: {_format_witness_indices(report.witness)}")
    return 1


def _cmd_search(args) -> int:
    params = search_params(args.s, args.m, q_max=args.q_max)
    if params is None:
        print(f"no feasible parameters for s={args.s} m={args.m} q_max={args.q_max}")
        return 1
    print(f"q={params.q} lambda={params.lam} N={params.N} "
          f"w={params.w} r={params.r} k={params.k} t={params.t}")
    return 0


def _cmd_examples(args) -> int:
    budget = _budget(args)
    all_ok = True
    confirmed = []
    for num, (q, k, r, t, N, w, pairs, negatives) in enumerate(EXAMPLE_SPECS, start=1):
        qary = shorten(rs_extended(FiniteField(q), k), r)
        code = binary_expand(qary)
        lam = k - r - 1
        params_ok = (code.t, code.N, code.weight) == (t, N, w)
        coin = V.coincidence(qary)
        coin_ok = coin == lam
        all_ok &= params_ok and coin_ok
        print(f"code {num}: q={q} k={k} r={r} -> t={code.t} N={code.N} "
              f"w={code.weight} coincidence={coin} "
              f"[{'ok' if params_ok and coin_ok else 'MISMATCH'}]")
        for s, l in pairs:
            feas = strength_feasible(q, k, r, s, l)
            cert = V.check_d_certificate(code, s, l)
            all_ok &= feas and cert
            print(f"  feasibility s={s} l={l}: {'ok' if feas else 'VIOLATED'}; "
                  f"certificate: {'PASS' if cert else 'FAIL'}")
            scans = V.d_code_scans(code.t, s, code.N)
            if scans <= budget:
                rep = V.check_d_code(code, s, l, budget=budget)
                all_ok &= rep.satisfied
                print(f"  exhaustive d-code s={s} l={l}: "
                      f"{'PASS' if rep.satisfied else 'FAIL'} "
                      f"({rep.tuples_checked} tuples)")
            else:
                print(f"  exhaustive d-code s={s} l={l}: SKIPPED "
                      f"({scans} row scans over budget)")
            confirmed.append(f"t({code.N},{s},{l})>={code.t}")
        for s, l in negatives:
            cert = V.check_d_certificate(code, s, l)
            all_ok &= not cert
            print(f"  certificate s={s} l={l}: "
                  f"{'FAIL (expected)' if not cert else 'PASS (unexpected)'}")
    print("size bounds confirmed: " + " ".join(confirmed))
    print("all checks passed" if all_ok else "CHECKS FAILED")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sic",
        description="Constant-weight superimposed codes and group-testing "
                    "designs: construction, verification, rate bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="compute rate bounds")
    p_bounds.set_defaults(run=_cmd_bounds)
    p_bounds.add_argument("kind", choices=BOUND_KINDS)
    for name in ("z", "u", "s", "l"):
        p_bounds.add_argument(f"--{name}", help="int or LO:HI")
    p_bounds.add_argument("--z-max", type=int, default=17,
                          help="last z of the recurrent sequence")
    p_bounds.add_argument("--form", choices=B.ASYMPTOTIC_KINDS,
                          help="formula selector for kind=asymptotic")
    p_bounds.add_argument("--format", choices=("table", "csv", "json"),
                          default="table")

    p_con = sub.add_parser("construct", help="build a binary-expanded shortened RS code")
    p_con.set_defaults(run=_cmd_construct)
    p_con.add_argument("q", type=int)
    p_con.add_argument("k", type=int)
    p_con.add_argument("r", type=int)
    p_con.add_argument("out")

    p_ver = sub.add_parser("verify", help="check a property of a stored matrix")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("path")
    p_ver.add_argument("prop", choices=tuple(VERIFY_CHECKERS))
    p_ver.add_argument("params", nargs="*",
                       help="property parameters, e.g. 'cover-free 2 1', "
                            "'design 2 3 at-most [labels...]'")
    p_ver.add_argument("--budget", type=int, default=None,
                       help="row-scan budget (default SIC_BUDGET or 10^9)")

    p_search = sub.add_parser("search", help="minimum-length parameter search")
    p_search.set_defaults(run=_cmd_search)
    p_search.add_argument("s", type=int)
    p_search.add_argument("m", type=int)
    p_search.add_argument("--q-max", type=int, default=64)

    p_ex = sub.add_parser("examples", help="built-in construction walkthroughs")
    p_ex.set_defaults(run=_cmd_examples)
    p_ex.add_argument("--budget", type=int, default=None)

    return parser


def _budget(args) -> int:
    """Row-scan budget from --budget, else SIC_BUDGET, else the default."""
    budget = args.budget
    if budget is None:
        env = os.environ.get("SIC_BUDGET")
        if env is None:
            return V.DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise SicError(f"SIC_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise SicError(f"budget must be >= 0, got {budget}")
    return budget


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse before Python 3.12 parses a positional given as a second
        # '--' to [], skipping its type and choices checks
        if any(val == [] for name, val in vars(args).items() if name != "params"):
            parser.error("'--' is not a parameter value")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
