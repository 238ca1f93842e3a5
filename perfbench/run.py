#!/usr/bin/env python3
"""Benchmark of the lattice-sb command line.

    python3 perfbench/run.py --workload spread|dense|survey --seed N --seconds S --trace 0|1

Run from the root of a lattice-sb checkout; the program is run from ./src.
One client in a closed loop runs the workload's command list, one command at
a time, each command a fresh `python -m lattice_sb` process, pass after pass
for as long as the next pass is expected to end within S seconds (at least
two passes).  Every output is checked against independently derived values
(oracle.py).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: wall_s, setup_s, cpu_s and
peak_rss_mb, the times scaled to a reference machine speed (see REF_S).
--trace 1 runs the command list once as processes and then replays it
in-process (replay.py) to report per-layer self times and counts.
Only the benchmark's own processes are timed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import replay
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170.0  # every run ends well inside 180 s, whatever hangs
# A single pass of a long command list is a poor sample: each run measures
# at least two.
MIN_PASSES = 2

# The shared machine's speed drifts by tens of percent within a minute, for
# the benchmark and the program alike.  A fixed pure-Python loop that never
# touches lattice_sb is timed in this process before and after every child
# process, and the end-to-end times are scaled by REF_S over its median: they
# read as seconds on a machine where REF_ITERATIONS of the loop take REF_S
# (about its median on a 2-core Xeon VM with Python 3.11).
REF_S = 0.045
REF_ITERATIONS = 20000
CPUS = sorted(os.sched_getaffinity(0))
RSS_POLL_S = 0.01

# A fresh interpreter that imports lattice_sb and builds the given lattices
# through the public constructors.
SETUP_PROBE = """
import json, sys
from lattice_sb import fq, lattice
for kind, *args in json.loads(sys.argv[1]):
    if kind == "json":
        with open(args[0], encoding="utf-8") as fh:
            lattice.from_json(fh.read())
    else:
        getattr(fq, f"build_{kind}_lattice")(*args)
"""

KIND_METRICS = {"search": "search_s", "check": "check_s", "bounds": "bounds_s", "scheme": "scheme_s"}
LAYER_SPANS = sorted({span for _, _, span in replay.TRACED}
                     | {f"lattice.{p}" for p in replay.PREDICATES} | {"cli.main"})
LAYER_COUNTS = ["lattice.elements", "lattice.table_cells", "search.nodes",
                "search.window_vertices", "search.graph_edges"]


def _loop(n: int) -> float:
    start = time.perf_counter()
    counts: dict[int, int] = {}
    seen = set()
    bits = 0
    for i in range(n):
        k = (i * 2654435761) & 0xFFFF
        counts[k] = counts.get(k, 0) + 1
        seen.add(k ^ (k >> 3))
        bits += bin(k).count("1")
    sorted(counts, key=lambda k: (counts[k], k))
    return time.perf_counter() - start


def reference_loop() -> float:
    """Seconds per REF_ITERATIONS of a fixed mix of integer, dict, set and
    sort work, averaged over every CPU this process may use.  The CPUs drift
    apart and a child may run on any of them, so the loop runs a share on
    each in turn rather than wherever the scheduler puts it."""
    per_cpu = max(2000, REF_ITERATIONS // len(CPUS))
    elapsed = 0.0
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            elapsed += _loop(per_cpu)
    finally:
        os.sched_setaffinity(0, CPUS)  # children inherit it
    return elapsed * REF_ITERATIONS / (per_cpu * len(CPUS))


class Child:
    """One finished child process: exit code, output, wall and rusage."""

    def __init__(self, argv, cwd: Path, timeout_s: float, outputs=()):
        env = {k: v for k, v in os.environ.items() if k != "LATTICE_SB_MAX_ELEMENTS"}
        env["PYTHONPATH"] = str(SRC)
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        for name in outputs:  # a stale file must not pass for this run's output
            (cwd / name).unlink(missing_ok=True)
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)

            def kill():
                killed.set()
                proc.kill()

            # The rusage max-RSS of a child includes this process's RSS at the
            # fork, so the peak is read from the child's own VmHWM instead.
            # Popen returns after the exec, so every reading is the program's.
            peak_kib = [0]
            done = threading.Event()

            def watch_rss():
                while not done.wait(RSS_POLL_S):
                    try:
                        with open(f"/proc/{proc.pid}/status") as fh:
                            hwm = [line for line in fh if line.startswith("VmHWM:")]
                    except OSError:
                        return
                    if hwm:
                        peak_kib[0] = max(peak_kib[0], int(hwm[0].split()[1]))

            timer = threading.Timer(max(timeout_s, 0.0), kill)
            watcher = threading.Thread(target=watch_rss)
            timer.start()
            watcher.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                done.set()
                watcher.join()
        self.rc = proc.returncode
        self.timed_out = killed.is_set() and self.rc < 0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = peak_kib[0] / 1024
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        self.files = {n: (cwd / n).read_text(encoding="utf-8") if (cwd / n).exists() else None
                      for n in outputs}


class Runner:
    def __init__(self, workload, workdir, deadline):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.nodes: dict[str, int] = {}
        self.reference: list[float] = []  # reference_loop() around each child

    def fail(self, what: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self, argv, timeout_s: float, outputs=()) -> Child:
        self.reference.append(reference_loop())
        child = Child(argv, self.workdir, timeout_s, outputs)
        self.reference.append(reference_loop())
        return child

    def command(self, cmd) -> Child:
        """Run one command as a fresh process and check its output."""
        self.attempted += 1
        child = self.child([sys.executable, "-m", "lattice_sb", *cmd.argv],
                           min(cmd.timeout_s, self.remaining()), cmd.outputs)
        if child.timed_out:
            self.fail(f"{' '.join(cmd.argv)}: timed out")
        else:
            problems = cmd.check(child.rc, child.stdout, child.files)
            if problems:
                self.fail(f"{' '.join(cmd.argv)}: " + "; ".join(problems)
                          + (f"\nstderr: {child.stderr[-500:]}" if child.stderr else ""))
        if cmd.kind == "search":
            try:
                self.nodes[" ".join(cmd.argv)] = json.loads(child.stdout)["nodes"]
            except (ValueError, KeyError, TypeError):
                pass
        return child

    def setup_probe(self) -> float:
        child = self.child([sys.executable, "-c", SETUP_PROBE, json.dumps(self.workload.lattices)],
                           self.remaining())
        self.attempted += 1
        if child.rc != 0:
            self.fail(f"set-up probe exit code {child.rc}: {child.stderr[-500:]}")
        return child.wall_s


def measure(r: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: passes over the command list, each after one
    set-up probe, while the next pass, taking as long as the last, ends
    within `seconds` (at least MIN_PASSES passes); one more probe at the end.
    Values are medians, times scaled to the reference speed; `values` holds
    the unscaled samples."""
    r.setup_probe()  # untimed: byte-compiles and warms the file cache
    setups, walls, cpus, rsss = [], [], [], []
    start = last_end = time.perf_counter()
    while True:
        setups.append(r.setup_probe())
        children = [r.command(cmd) for cmd in r.workload.commands]
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rsss.append(max(c.rss_mb for c in children))
        now = time.perf_counter()
        last, last_end = now - last_end, now
        if r.remaining() < 1.5 * last:
            break
        if len(walls) >= MIN_PASSES and now + last - start > seconds:
            break
    setups.append(r.setup_probe())
    scale = REF_S / statistics.median(r.reference)
    metrics = {
        "wall_s": statistics.median(walls) * scale,
        "setup_s": statistics.median(setups) * scale,
        "cpu_s": statistics.median(cpus) * scale,
        "peak_rss_mb": statistics.median(rsss),
    }
    return metrics, {"wall_s": walls, "setup_s": setups, "cpu_s": cpus, "peak_rss_mb": rsss}


def trace(r: Runner) -> dict:
    """Per-layer metrics: one pass of processes, then the in-process replay
    (untraced and traced), whose outputs must match the processes' byte for
    byte."""
    cmds = r.workload.commands
    procs = [r.command(cmd) for cmd in cmds]
    spec = r.workdir / ".replay-spec.json"
    spec.write_text(json.dumps({"commands": [{"argv": c.argv, "outputs": c.outputs} for c in cmds]}))
    out = r.workdir / ".replay-out.json"
    child = Child([sys.executable, str(HERE / "replay.py"), str(spec), str(out)], r.workdir,
                  r.remaining())
    if child.rc != 0:
        r.attempted += 2 * len(cmds)
        r.fail(f"replay exit code {child.rc} (timed out: {child.timed_out}): {child.stderr[-1000:]}")
        return {}
    rep = json.loads(out.read_text())
    for name in ("untraced", "traced"):
        for cmd, proc, run in zip(cmds, procs, rep[name]["runs"]):
            r.attempted += 1
            if (run["rc"], run["stdout"], run["files"]) != (proc.rc, proc.stdout, proc.files):
                r.fail(f"{name} replay of {' '.join(cmd.argv)} differs from the process run: "
                       f"rc {run['rc']} vs {proc.rc}; {run['stderr'][-500:]}")

    spans = rep["spans"]
    counts = rep["counts"]
    metrics = {m: 0.0 for m in KIND_METRICS.values()}
    for cmd, proc in zip(cmds, procs):
        metrics[KIND_METRICS[cmd.kind]] += proc.wall_s
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = spans.get(name, {}).get("self_s", 0.0)
    metrics["fq.build_projective_lattice.calls"] = spans.get(
        "fq.build_projective_lattice", {}).get("calls", 0)
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0)
    search_self = metrics["search.max_code.self_s"]
    metrics["search.nodes_per_s"] = metrics["search.nodes"] / search_self if search_self else 0.0
    untraced, traced = rep["untraced"], rep["traced"]
    metrics["process.startup_s"] = sum(
        p.wall_s - u["main_s"] for p, u in zip(procs, untraced["runs"]))
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    # Top-level cli.main spans against the traced replay's wall time; the
    # rest is the replay loop itself.
    metrics["trace.coverage"] = spans["cli.main"]["total_s"] / traced["wall_s"]
    if metrics["trace.coverage"] < 0.98:
        r.fail(f"cli.main spans cover only {metrics['trace.coverage']:.4f} of the replay")
    metrics["error_rate"] = r.failed / r.attempted
    return metrics


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lattice_sb" / "cli.py").is_file():
        print(f"error: no lattice_sb sources under {SRC}; run from a lattice-sb checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind as on Ctrl-C: the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        r = Runner(wl, workdir, deadline)
        if args.trace:
            metrics, values = trace(r), {}
        else:
            metrics, values = measure(r, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "commands": len(wl.commands),
        "samples": {m: len(values.get(m, [v])) for m, v in metrics.items()},
        "values": values, "reference_s": r.reference, "search_nodes": r.nodes,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
    }
    print(json.dumps({"meta": meta}))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in bench[key]}
    for p in r.problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": r.failed == 0 and bool(metrics),
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
