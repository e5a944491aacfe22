"""Short self-test of the benchmark harness.

Usage (from the repository root)::

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at reduced reps for one second,
with tracing off and on, and checks that each run exits 0, ends with
the result object, is correct, and reports every metric BENCHMARK.json
names for that mode with its unit.  Takes under a minute on 2 cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMOKE_REPS = {"validate-torus-dense": 100, "validate-sphere-streams": 2000, "pickands-window": 1000}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--reps", str(SMOKE_REPS[name])]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{name} trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct ({result['failed']}/{result['attempted']} failed)")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in declared}:
                problems.append(f"{where}: metrics differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']!r}, declared {m['unit']!r}")
                value = got["value"]
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"{where}: {m['name']} value {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: end-to-end {m['name']} is {value}, must be positive")
            print(f"{'ok' if len(problems) == before else 'FAIL'}  {where}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
