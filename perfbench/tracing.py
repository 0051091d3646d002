"""Spans around the public calls into each `sic` layer, and the per-layer
metrics computed from them.

Tracing wraps functions from outside: each wrapper replaces a module
attribute at the name its caller looks up (`sic.cli` imports
`FiniteField`, `rs_extended`, `shorten`, `binary_expand`, `read_matrix` and
`write_matrix` by name, so those are wrapped in `sic.cli` as well as in
their home modules).  Spans stay in memory until the round ends and are
written out by run.py.  The library itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

from sic import bounds, cli, codes, fields, matrixfile, verify

CHECKERS = {
    "cover_free": "check_cover_free", "d_code": "check_d_code",
    "m_code": "check_m_code", "design": "check_design",
    "threshold": "check_threshold_design",
    "threshold_bar": "check_threshold_bar_design",
}
BOUND_FUNCTIONS = (
    "recurrent_upper", "nonrecurrent_upper", "upper_zu", "lower_zu", "lower_z1",
    "universal_upper", "threshold_lower_simple", "threshold_lower", "asymptotic_rate",
)
OBJECTIVES = ("recurrence_objective", "threshold_objective", "threshold_rc_term")
CLI_COMMANDS = ("bounds", "construct", "verify", "examples")
LAYERS = ("fields", "codes", "verify", "matrixfile", "bounds", "cli")


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, home module, attribute, also looked up by name in sic.cli, work counter)
LAYER_CALLS = [
    ("fields.build", fields, "FiniteField", True, lambda a, k, r: {"entries": 2 * r.q * r.q}),
    ("codes.rs_extended", codes, "rs_extended", True, lambda a, k, r: {"symbols": r.symbols.size}),
    ("codes.shorten", codes, "shorten", True, None),
    ("codes.binary_expand", codes, "binary_expand", True, lambda a, k, r: {"bits": r.bits.size}),
    ("codes.random_code", codes, "random_code", False, None),
    ("verify.coincidence", verify, "coincidence", False, None),
    ("verify.d_certificate", verify, "check_d_certificate", False, None),
    ("matrixfile.write", matrixfile, "write_matrix", True, _written_bytes),
    ("matrixfile.read", matrixfile, "read_matrix", True, _read_bytes),
] + [
    (f"verify.{c}", verify, fn, False, lambda a, k, r: {"tuples": r.tuples_checked})
    for c, fn in CHECKERS.items()
] + [(f"bounds.{fn}", bounds, fn, False, None) for fn in BOUND_FUNCTIONS]


class NullTracer:
    """Stands in for Tracer in untraced rounds."""

    def span(self, name):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    """Records [name, parent index, start, end, counters] spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.evals: Counter = Counter()
        self._stack = [-1]
        self._paused = False

    @contextlib.contextmanager
    def span(self, name):
        if self._paused:
            yield {}
            return
        record = [name, self._stack[-1], time.perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record[4]
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Output checks run paused, so their calls into sic leave no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _timed(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as counters:
                result = fn(*args, **kwargs)
                if work is not None:
                    counters.update(work(args, kwargs, result))
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._paused:
                self.evals[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name; the worker process exits without unwrapping."""
        for name, module, attr, in_cli, work in LAYER_CALLS:
            wrapped = self._timed(name, getattr(module, attr), work)
            setattr(module, attr, wrapped)
            if in_cli:
                setattr(cli, attr, wrapped)
        for attr in OBJECTIVES:
            setattr(bounds, attr, self._counted(f"bounds.{attr}", getattr(bounds, attr)))


def layer_metrics(spans: list[list], evals: dict) -> dict[str, float]:
    """Per-layer totals of one traced round (times in seconds, rates per second).

    Per-function times include nested traced calls; `<layer>.self_s` is the
    time in a layer's spans minus the traced calls they make.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: dict[tuple, int] = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, parent, start, end, counters in spans:
        busy[name] += end - start
        calls[name] += 1
        for key, val in counters.items():
            work[name, key] += val
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end, _) in enumerate(spans):
        self_time[name.split(".")[0]] += end - start - child_time[i]

    def rate(name, key, scale=1.0):
        return work[name, key] / scale / busy[name] if busy[name] else 0.0

    m = {
        "fields.build_s": busy["fields.build"],
        "fields.builds": calls["fields.build"],
        "fields.table_entries_per_s": rate("fields.build", "entries"),
        "codes.rs_extended_s": busy["codes.rs_extended"],
        "codes.rs_symbols_per_s": rate("codes.rs_extended", "symbols"),
        "codes.shorten_s": busy["codes.shorten"],
        "codes.binary_expand_s": busy["codes.binary_expand"],
        "codes.expand_bits_per_s": rate("codes.binary_expand", "bits"),
        "codes.random_code_s": busy["codes.random_code"],
        "verify.coincidence_s": busy["verify.coincidence"],
        "verify.d_certificate_s": busy["verify.d_certificate"],
        "matrixfile.write_s": busy["matrixfile.write"],
        "matrixfile.write_MBps": rate("matrixfile.write", "bytes", 2**20),
        "matrixfile.read_s": busy["matrixfile.read"],
        "matrixfile.read_MBps": rate("matrixfile.read", "bytes", 2**20),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    for c in CHECKERS:
        name = f"verify.{c}"
        m[f"{name}.s"] = busy[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.tuples"] = work[name, "tuples"]
        m[f"{name}.tuples_per_s"] = rate(name, "tuples")
    for fn in BOUND_FUNCTIONS:
        m[f"bounds.{fn}.s"] = busy[f"bounds.{fn}"]
        m[f"bounds.{fn}.calls"] = calls[f"bounds.{fn}"]
    for attr in OBJECTIVES:
        m[f"bounds.{attr}.evals"] = evals.get(f"bounds.{attr}", 0)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = busy[f"cli.{cmd}"]
    return m
