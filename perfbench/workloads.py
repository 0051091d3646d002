"""The benchmark's workloads: inputs built from the seed, the timed
operations, and a check of every output.

A workload is constructed in the worker's set-up phase (everything its
operations need is built there) and then `run` against a `Bench`, which
times each operation, checks its output outside the timing and counts
failures.  A wrong result, an unexpected exception or a wrong exit code
is a failed operation; it does not stop the round.

Expected outputs are either known values (tuple counts of full domains,
coincidences k - r - 1) or digests in expected.json, recorded from the
library by record.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import runpy
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from oracle import domain_size, witness_problem
from sic import cli, codes, fields, matrixfile, verify

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def tables_digest(field) -> str:
    return digest(field.add_table.tobytes() + field.mul_table.tobytes())


def report_digest(report) -> str:
    witness = None if report.witness is None else sorted(
        (k, list(v) if isinstance(v, tuple) else v) for k, v in report.witness.items())
    return digest(json.dumps([report.satisfied, witness, report.tuples_checked]).encode())


class Expected:
    """Recorded digests; with record=True, `match` stores values instead."""

    def __init__(self, table: dict, record: bool = False):
        self.table = table
        self.record = record

    @classmethod
    def load(cls) -> "Expected":
        return cls(json.loads(EXPECTED_PATH.read_text()))

    def match(self, key: str, value: str) -> str | None:
        if self.record:
            self.table[key] = value
            return None
        want = self.table.get(key)
        return None if value == want else f"{key}: digest {value}, recorded {want}"


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


_TUPLE_LINES = re.compile(r"tuples checked: (\d+)|\((\d+) tuples\)")


def tuples_of(result) -> int:
    """Tuples checked by a verify operation, from its report or CLI stdout."""
    if isinstance(result, verify.VerificationReport):
        return result.tuples_checked
    if isinstance(result, CliResult):
        return sum(int(a or b) for a, b in _TUPLE_LINES.findall(result.out))
    return 0


class Bench:
    """Times operations, checks their outputs and counts failures."""

    def __init__(self, tracer, expected: Expected):
        self.tracer = tracer
        self.expected = expected
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.tuples = 0
        self.failures: list[dict] = []

    def timed(self, fn):
        """Untallied timed work, such as generating a screen matrix."""
        start = time.perf_counter()
        result = fn()
        self.wall_s += time.perf_counter() - start
        return result

    def op(self, name: str, fn, check, known_defect: str | None = None):
        """One operation: `check(result)` returns None or what is wrong."""
        start = time.perf_counter()
        try:
            result = fn()
            problem = None
        except Exception as exc:  # a raising operation is a failed one; keep going
            result, problem, known_defect = None, f"raised {exc!r}", None
        elapsed = time.perf_counter() - start
        self.wall_s += elapsed
        self.latencies.append(elapsed)
        if problem is None:
            with self.tracer.paused():
                problem = check(result)
        if problem is None:
            self.tuples += tuples_of(result)
        else:
            self.failures.append({"op": name, "problem": problem, "known_defect": known_defect})
        return result

    def cli(self, argv: list[str], files: tuple[str, ...] = ()):
        """`sic <argv>` in-process: exit code 0 and recorded stdout (and file) digests."""
        name = "sic " + " ".join(argv)

        def call():
            out, err = io.StringIO(), io.StringIO()
            with self.tracer.span(f"cli.{argv[0]}"), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return CliResult(rc, out.getvalue(), err.getvalue())

        def check(result):
            rc, out, err = result
            if rc != 0:
                return f"exit code {rc}: {err.strip()[-200:]}"
            problems = [self.expected.match(name, digest(out.encode()))]
            problems += [self.expected.match(f"file {f} of {name}", file_digest(f)) for f in files]
            return next((p for p in problems if p), None)

        return self.op(name, call, check)

    def script(self, path: Path, args: list[str]):
        """A repository script run in-process, with recorded stdout digest."""
        name = f"{path.name} {' '.join(args)}"

        def call():
            out = io.StringIO()
            saved, sys.argv = sys.argv, [str(path), *args]
            try:
                with contextlib.redirect_stdout(out):
                    runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = saved
            return out.getvalue()

        return self.op(name, call, lambda out: self.expected.match(name, digest(out.encode())))


def run_checker(prop: str, X, p: dict):
    """Call the checker for `prop` through its module attribute (so tracing sees it)."""
    if prop == "cover_free":
        return verify.check_cover_free(X, p["z"], p["u"])
    if prop == "d_code":
        return verify.check_d_code(X, p["s"], p["l"])
    if prop == "m_code":
        return verify.check_m_code(X, p["s"], p["u"])
    if prop == "design":
        F = verify.OutcomeFunction(values=p["values"])
        return verify.check_design(X, F, p["s"], mode=p["mode"])
    if prop == "threshold":
        return verify.check_threshold_design(X, p["u"], p["s"])
    return verify.check_threshold_bar_design(X, p["u"], p["s"])


def report_problem(prop: str, bits: np.ndarray, p: dict, report) -> str | None:
    """Check a report against the definition: full count if satisfied, else a valid witness."""
    full = domain_size(prop, bits.shape[1], p)
    if report.satisfied:
        if report.witness is not None or report.tuples_checked != full:
            return f"satisfied with witness {report.witness}, {report.tuples_checked} of {full} tuples"
        return None
    if not 1 <= report.tuples_checked <= full:
        return f"{report.tuples_checked} tuples checked, domain has {full}"
    return witness_problem(prop, bits, p, report.witness)


def _permuted(rng, bits: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(bits[rng.permutation(bits.shape[0])][:, rng.permutation(bits.shape[1])])


class Exhaustive:
    """Checkers on inputs that satisfy their property, so each enumerates its
    whole domain.  The seed permutes rows and columns, which keeps every
    verdict and tuple count."""

    IDENTITY_CHECKS = (
        ("cover_free", 60, {"z": 3, "u": 1}),
        ("d_code", 80, {"s": 3, "l": 1}),
        ("m_code", 16, {"s": 3, "u": 1}),
        ("design", 64, {"values": (0, 1), "s": 3, "mode": "at-most"}),
        ("threshold", 40, {"u": 1, "s": 2}),
        ("threshold_bar", 40, {"u": 1, "s": 2}),
    )

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        self.inputs = [(prop, _permuted(rng, np.eye(n, dtype=np.uint8)), p)
                       for prop, n, p in self.IDENTITY_CHECKS]
        ex1 = codes.binary_expand(codes.shorten(codes.rs_extended(fields.FiniteField(5), 5), 2))
        matrixfile.write_matrix(codes.BinaryCode(bits=_permuted(rng, ex1.bits), weight=ex1.weight),
                                "ex1.sic")

    def run(self, bench: Bench) -> None:
        bench.cli(["verify", "ex1.sic", "d-code", "3", "2"])
        bench.cli(["examples"])
        for prop, X, p in self.inputs:
            bench.op(f"{prop} on a {len(X)}x{len(X)} permutation matrix",
                     lambda: run_checker(prop, X, p),
                     lambda r: report_problem(prop, X, p, r) or (
                         None if r.satisfied else f"not satisfied: {r.witness}"))


class Screen:
    """MATRICES seeded random matrices through every checker at small
    strength; most calls stop early at a witness.  The seed shuffles the
    matrices and the rows of each.  Neither changes any verdict, witness or
    tuple count, so the work and the recorded digests are the same for
    every seed."""

    MATRICES = 128
    SHAPE = (40, 30, 0.25)
    CHECKS = (
        ("cover_free", {"z": 2, "u": 1}),
        ("d_code", {"s": 2, "l": 1}),
        ("m_code", {"s": 2, "u": 1}),
        ("design", {"values": (0, 1), "s": 2, "mode": "at-most"}),
        ("threshold", {"u": 1, "s": 2}),
        ("threshold_bar", {"u": 1, "s": 2}),
    )

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        self.inputs = [(int(ms), rng.permutation(self.SHAPE[0]))
                       for ms in rng.permutation(self.MATRICES)]

    def run(self, bench: Bench) -> None:
        N, t, beta = self.SHAPE
        for ms, rows in self.inputs:
            X = bench.timed(lambda: codes.random_code(N, t, beta, seed=ms)).bits[rows]
            for prop, p in self.CHECKS:
                key = f"screen {ms} {prop}"
                bench.op(key, lambda: run_checker(prop, X, p),
                         lambda r: report_problem(prop, X, p, r)
                         or bench.expected.match(key, report_digest(r)))


class Construct:
    """Field tables, RS encoding, shortening, one-hot expansion and matrix
    files, with almost no enumeration.  The seed permutes the columns of the
    q=64 code handed to coincidence."""

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        q64 = codes.shorten(codes.rs_extended(fields.FiniteField(64), 3), 1)
        self.q64 = codes.QaryCode(q=64, meta=q64.meta, symbols=np.ascontiguousarray(
            q64.symbols[:, rng.permutation(q64.t)]))

    def run(self, bench: Bench) -> None:
        for q in (128, 512):
            bench.op(f"FiniteField({q})", lambda: fields.FiniteField(q),
                     lambda f: bench.expected.match(f"tables of GF({q})", tables_digest(f)))
        bench.cli(["construct", "64", "3", "1", "q64.sic"], files=("q64.sic",))
        bench.op("read_matrix q64.sic", lambda: matrixfile.read_matrix("q64.sic"),
                 lambda code: _code_problem(code, 4096, 4096, 64)
                 or bench.expected.match("bits of q=64 k=3 r=1", digest(code.bits.tobytes())))
        bench.op("coincidence q=64 k=3 r=1", lambda: verify.coincidence(self.q64),
                 lambda c: None if c == 1 else f"coincidence {c}, expected 1")
        bench.op("GF(256) k=2 r=1 encode, shorten, expand", _expand_256, _check_256(bench))
        bench.cli(["construct", "27", "3", "1", "q27.sic"], files=("q27.sic",))
        bench.cli(["verify", "q27.sic", "d-cert", "2", "1"])
        bench.op("coincidence q=257 k=2 r=1", _coincidence_257, _check_257,
                 known_defect="rs_extended stores symbols as uint8, so q > 256 wraps")


def _code_problem(code, N: int, t: int, w: int) -> str | None:
    if code.bits.shape != (N, t) or code.weight != w or (code.bits.sum(axis=0) != w).any():
        return f"shape {code.bits.shape} weight {code.weight}, expected ({N}, {t}) weight {w}"
    return None


def _expand_256():
    field = fields.FiniteField(256)
    qary = codes.shorten(codes.rs_extended(field, 2), 1)
    return field, qary, codes.binary_expand(qary)


def _check_256(bench: Bench):
    def check(result):
        field, qary, code = result
        coin = verify.coincidence(qary)
        return (bench.expected.match("tables of GF(256)", tables_digest(field))
                or _code_problem(code, 256 * 256, 256, 256)
                or (None if coin == 0 else f"coincidence {coin}, expected 0"))
    return check


def _coincidence_257():
    qary = codes.shorten(codes.rs_extended(fields.FiniteField(257), 2), 1)
    return qary.symbols.shape, verify.coincidence(qary)


def _check_257(result):
    shape, coin = result
    if shape != (257, 257) or coin != 0:
        return f"shape {shape} coincidence {coin}, expected (257, 257) and 0"
    return None


class Bounds:
    """Every bound kind through `sic bounds --format csv` on fixed grids, plus
    the rate_tables script, each once in a fresh worker, so every lru_cache
    starts cold as it does for a CLI user.  The seed shuffles their order."""

    GRIDS = (
        ["recurrent-upper", "--z-max", "60"],
        ["nonrecurrent-upper", "--z", "2:60"],
        ["upper-zu", "--z", "1:24", "--u", "1:12"],
        ["lower-zu", "--z", "1:40", "--u", "1:10"],
        ["lower-z1", "--z", "2:32"],
        ["universal-upper", "--l", "1:6", "--s", "7:40"],
        ["threshold-lower-simple", "--u", "1:6", "--s", "7:40"],
        ["threshold-lower", "--u", "1:5", "--s", "6:18"],
        ["asymptotic", "--form", "upper-z1", "--z", "10"],
        ["asymptotic", "--form", "upper-zu", "--z", "10", "--u", "2"],
        ["asymptotic", "--form", "lower-zu", "--z", "10", "--u", "2"],
        ["asymptotic", "--form", "lower-z1", "--z", "10"],
        ["asymptotic", "--form", "threshold-lower", "--u", "2", "--s", "5"],
        ["asymptotic", "--form", "exact-size-lower", "--s", "5"],
        ["asymptotic", "--form", "exact-size-upper", "--s", "5"],
    )
    RATE_TABLES_ARGS = ["--z-max", "30", "--s-max", "12"]

    def __init__(self, seed: int, root: Path):
        self.script = root / "scripts" / "rate_tables.py"
        self.order = np.random.default_rng(seed).permutation(len(self.GRIDS) + 1).tolist()

    def run(self, bench: Bench) -> None:
        for i in self.order:
            if i == len(self.GRIDS):
                bench.script(self.script, self.RATE_TABLES_ARGS)
            else:
                bench.cli(["bounds", *self.GRIDS[i], "--format", "csv"])


class Pipeline:
    """The exhaustive, construct and bounds operations, one after another in
    each round: every layer at the sizes users run, in one workload, so a
    run is long enough to be steady."""

    PARTS = (Exhaustive, Construct, Bounds)

    def __init__(self, seed: int, root: Path):
        self.parts = [part(seed, root) for part in self.PARTS]

    def run(self, bench: Bench) -> None:
        for part in self.parts:
            part.run(bench)


WORKLOADS = {"pipeline": Pipeline, "screen": Screen}
