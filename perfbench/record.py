"""Re-record expected.json, the digests the benchmark's output checks use.

    python3 perfbench/record.py        (from the repository root)

Run it only after a change that is meant to alter outputs, and review the
diff of expected.json like a change to a test.  It runs every workload
once at seed 0, in perfbench/_work/record, which it removes afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import tracing
    import workloads

    table: dict[str, str] = {}
    expected = workloads.Expected(table, record=True)
    work = root / "perfbench" / "_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    unexpected = []
    try:
        os.chdir(work)
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0, root)
            bench = workloads.Bench(tracing.NullTracer(), expected)
            workload.run(bench)
            unexpected += [f for f in bench.failures if f["known_defect"] is None]
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    if unexpected:
        print(f"not recorded, {len(unexpected)} failures: {unexpected[:3]}", file=sys.stderr)
        return 1
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
