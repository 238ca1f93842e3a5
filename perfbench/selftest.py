#!/usr/bin/env python3
"""Self-test of the benchmark: trace every workload once and check the instrument.

    python3 perfbench/selftest.py

Asserts that every traced run is correct with no failed command, which
includes the in-process replays printing byte for byte what the processes
printed; that every per-layer metric of BENCHMARK.json is reported on every
workload and is non-zero on at least one; and that `spread` proves the
flagship A_2(5,4;2) = 9 in exactly 1,822,462 nodes.  Takes about three
minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# Counts that are zero on a healthy run, or differences that may be zero.
MAY_BE_ZERO = {"error_rate", "trace.overhead_s"}
SPREAD_NODES = 1_822_462
SEED = 1


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer"]]
    seen: dict[str, list] = {m: [] for m in wanted}
    errors = []
    # spread is traced too: it is not gated, but it proves the flagship.
    for name in workloads.WHY:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
             "--seconds", "1", "--trace", "1"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=200)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"{name}: rc {proc.returncode}, no result\n{proc.stderr[-2000:]}")
            continue
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            errors.append(f"{name}: correct {res['correct']}, failed {res['failed']}\n"
                          f"{proc.stderr[-2000:]}")
        metrics = res["metrics"]
        if set(metrics) != set(wanted):
            errors.append(f"{name}: metrics differ from BENCHMARK.json: "
                          f"{sorted(set(metrics) ^ set(wanted))}")
        for m in wanted:
            if m in metrics:
                seen[m].append(metrics[m]["value"])
        if name == "spread" and metrics.get("search.nodes", {}).get("value") != SPREAD_NODES:
            errors.append(f"spread: search.nodes = {metrics.get('search.nodes')}, "
                          f"expected {SPREAD_NODES}")
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
    never = [m for m, vals in seen.items() if m not in MAY_BE_ZERO and not any(vals)]
    if never:
        errors.append(f"per-layer metrics zero on every workload: {never}")
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
