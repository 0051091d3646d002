"""Compare two sic trees on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH.json \
        [--pairs 10] [--seconds 20] [--seed 1] [--workload pipeline ...] \
        [--bytecode remove|compile]

Each pair runs `python3 perfbench/run.py --trace 0` once in each tree (from
that tree's root, with its own perfbench), on the same fresh seed: seed,
seed + 1, ...  The side that runs first alternates from pair to pair, so a
drift in machine speed falls on both sides alike.  Before the first run
both trees are put in the same bytecode state, because .pyc files alone
move a worker's peak RSS: `remove` (the default, as in a fresh checkout)
deletes the .pyc files of src/ and perfbench/, `compile` writes them.

The JSON written to --out holds every run's result and, per workload and
end-to-end metric of the change tree's BENCHMARK.json: each side's median
and quartiles, the number of pairs in which the change is better, and
whether a gain claim would hold (better in at least 90% of the pairs, and
the medians apart by more than the parent's interquartile range).  It also
records the Python and numpy versions, the usable CPUs and each tree's
bytecode state before and after the runs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def bytecode_files(tree: Path) -> int:
    """The .pyc files under the tree's src/ and perfbench/."""
    return sum(len(list((tree / d).rglob("*.pyc"))) for d in ("src", "perfbench"))


def set_bytecode(tree: Path, mode: str) -> None:
    for d in ("src", "perfbench"):
        if mode == "compile":
            compileall.compile_dir(tree / d, quiet=1)
        else:
            for cache in (tree / d).rglob("__pycache__"):
                shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last stdout line (a JSON object) and its seconds."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: perfbench exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's summary, the pairs the change wins, and the
    gain rule."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: summary(values) for side, values in sides.items()}
        gap = stats["parent"]["median"] - stats["change"]["median"]
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            **stats,
            "change_wins": wins,
            "pairs": len(runs),
            "relative_change": -gap / stats["parent"]["median"],
            "gain_holds": wins >= 0.9 * len(runs) and (gap if lower else -gap) > spread,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=("pipeline", "screen"))
    ap.add_argument("--bytecode", choices=("remove", "compile"), default="remove")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workload or ["pipeline", "screen"]
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    for tree in trees.values():
        set_bytecode(tree, args.bytecode)
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "seconds_per_run": args.seconds,
        "bytecode_mode": args.bytecode,
        "trees": {side: {"name": tree.name, "pyc_files_before": bytecode_files(tree)}
                  for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.4f}" for side in SIDES),
                file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "runs": runs,
            "all_correct": all(r[side]["correct"] and r[side]["failed"] == 0
                               for r in runs for side in SIDES),
            "metrics": compare(runs, metrics),
        }
    for side, tree in trees.items():
        record["trees"][side]["pyc_files_after"] = bytecode_files(tree)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, result in record["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"({m['relative_change']:+.1%}), change better in {m['change_wins']} of "
                  f"{m['pairs']}, gain holds: {m['gain_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
