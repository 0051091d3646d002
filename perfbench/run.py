"""Run the sic benchmark and print its metrics; see perfbench/README.md.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each round is one fresh worker process
(worker.py) that sets up the workload's inputs from the seed, runs its
operations once and checks every output; rounds run one after another
until --seconds have passed (at least MIN_ROUNDS).  Only that one worker
runs at a time, with OpenBLAS and OpenMP limited to the usable CPUs.

--trace 0 reports the end-to-end metrics over untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, plus the tracing overhead (traced minus untraced wall_s);
the spans of its last traced round go to perfbench/_out/.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pipeline", "screen")
MIN_ROUNDS = {0: 3, 1: 4}
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def run_round(root: Path, work: Path, workload: str, seed: int, traced: bool, timeout: float) -> dict:
    work.mkdir(parents=True)
    out = work / "result.json"
    cpus = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=cpus, OMP_NUM_THREADS=cpus)
    t0 = time.monotonic()
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
           "--t0", repr(t0), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(out.read_text())
    result["round_s"] = time.monotonic() - t0
    result["traced"] = traced
    shutil.rmtree(work)
    return result


def run_rounds(root: Path, workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    work = root / "perfbench" / "_work"
    shutil.rmtree(work, ignore_errors=True)
    rounds: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            longest = max((r["round_s"] for r in rounds), default=0.0)
            if len(rounds) >= MIN_ROUNDS[trace] and elapsed >= seconds:
                break
            if rounds and elapsed + 1.5 * longest > DEADLINE_S:
                break
            traced = trace == 1 and len(rounds) % 2 == 1
            rounds.append(run_round(root, work / f"round{len(rounds)}", workload, seed,
                                    traced, DEADLINE_S - elapsed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rounds


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    plain = [r for r in rounds if not r["traced"]]
    # every round runs the same operations in the same order
    op_ms = [1e3 * statistics.median(lat) for lat in zip(*(r["latencies_s"] for r in plain))]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": p90(op_ms),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "tuples_per_s": statistics.median(r["tuples"] / r["wall_s"] for r in plain),
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["verify.blas_threads"] = traced[0]["blas_threads"]
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - end_to_end(rounds)["wall_s"])
    return metrics


# Printed in the report on these workloads only, and not in BENCHMARK.json,
# whose end-to-end metrics must be non-zero and steady on every workload.
REPORTED_ON = {
    "op_p50_ms": ("screen",),
    "op_p90_ms": ("screen",),
    "tuples_per_s": ("pipeline", "screen"),
}


def report(workload: str, seed: int, rounds: list[dict], trace: int, spec: dict) -> dict:
    attempted = sum(len(r["latencies_s"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    unexpected = [f for f in failures if f["known_defect"] is None]
    e2e = end_to_end(rounds)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(op_p50_ms="ms", op_p90_ms="ms", tuples_per_s="1/s", fail_ratio="")
    plain = sum(not r["traced"] for r in rounds)
    print(f"== {workload} seed={seed}: {len(rounds)} rounds ({plain} untraced), "
          f"{len(rounds[0]['latencies_s'])} operations per round, "
          f"OpenBLAS threads {rounds[0]['blas_threads']}")
    shown = {name: value for name, value in e2e.items()
             if workload in REPORTED_ON.get(name, WORKLOADS)}
    shown["fail_ratio"] = len(failures) / attempted
    for name, value in shown.items():
        print(f"  {name:14s} {value:14.6g} {units[name]}")
    for f in {f["op"]: f for f in failures}.values():
        tag = f"known defect ({f['known_defect']})" if f["known_defect"] else "FAILED"
        print(f"  {tag}: {f['op']}: {f['problem']}")
    if trace:
        layers = per_layer(rounds)
        for name, value in layers.items():
            print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")
        names = [m["name"] for m in spec["per_layer"]]
        values = layers
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = e2e
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the benchmark does not measure: {missing}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def write_spans(root: Path, workload: str, seed: int, rounds: list[dict]) -> None:
    out = root / "perfbench" / "_out"
    out.mkdir(exist_ok=True)
    spans = [r for r in rounds if r["traced"]][-1]["spans"]
    (out / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sic" / "__init__.py").is_file():
        print("error: run from the root of a sic checkout (src/sic not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            rounds = run_rounds(root, workload, args.seed, seconds, args.trace)
            result = report(workload, args.seed, rounds, args.trace, spec)
            if args.trace:
                write_spans(root, workload, args.seed, rounds)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
