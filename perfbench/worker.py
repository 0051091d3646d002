"""One benchmark round in a fresh process, started by run.py.

Sets up the workload's inputs in the current directory, runs its timed
operations (traced or not), checks every output, and writes one JSON
result to --out.  --t0 is the parent's time.monotonic() just before the
spawn, so setup_s covers interpreter start-up, imports and input set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path


def blas_threads() -> int:
    """Threads OpenBLAS runs the float32 matmul of check_d_code on (0 if unknown)."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(args.root / "src"))

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.root)
    setup_s = time.monotonic() - args.t0

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    bench = workloads.Bench(tracer, workloads.Expected.load())
    workload.run(bench)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": bench.wall_s,
        "latencies_s": bench.latencies,
        "tuples": bench.tuples,
        "failures": bench.failures,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.evals)
        result["spans"] = tracer.spans
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
