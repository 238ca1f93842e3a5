"""In-process replay of a workload through lattice_sb.cli.main, with spans.

    python perfbench/replay.py SPEC OUT

SPEC is a JSON file {"commands": [{"argv": [...], "outputs": [...]}, ...]};
the replay runs from the work directory that holds the commands' inputs, with
lattice_sb importable.  It runs every command twice in this interpreter:
first untouched, then with a span around each call into the public entry
points of the fq, lattice, bounds, schemes, search and cli modules.  The
program's code is not modified: functions are re-bound on their modules (and
on every module that imported them by value, or the span would silently go
missing) and restored afterwards.  Hot inner helpers such as distance, join,
meet and iter_bits are never wrapped.  OUT receives every command's exit
code and output from both passes, per-span call counts and self times, and
the sizes the benchmark records.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

# (module, function, span name).  Several functions may share a span name.
TRACED = [
    ("fq", "build_projective_lattice", "fq.build_projective_lattice"),
    ("fq", "build_powerset_lattice", "fq.build_powerset_lattice"),
    ("lattice", "build_lattice", "lattice.build_lattice"),
    ("lattice", "from_json", "lattice.from_json"),
    ("lattice", "sublattice_closure", "lattice.sublattice_closure"),
    ("search", "max_code", "search.max_code"),
    ("bounds", "gv_lower_for_lattice", "bounds.gv_lower_for_lattice"),
    ("bounds", "lsb_for_lattice", "bounds.lsb_for_lattice"),
    ("bounds", "lsb", "bounds.closed_form"),
    ("bounds", "lsb_windowed", "bounds.closed_form"),
    ("bounds", "gv_lower", "bounds.closed_form"),
    ("bounds", "render_report_csv", "bounds.closed_form"),
    ("schemes", "parse_scheme_text", "schemes.parse_scheme_text"),
    ("schemes", "puncture", "schemes.puncture"),
    ("schemes", "puncture_project", "schemes.puncture"),
    ("schemes", "make_scheme", "schemes.make_scheme"),
]
# Structure predicates, wrapped on the Lattice class.
PREDICATES = ("is_modular", "is_distributive", "has_jordan_dedekind", "is_geometric")


class Tracer:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.searches: list = []  # SearchProblem of every max_code call

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self._open[-1] if self._open else -1, time.perf_counter(), None])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def on_lattice(self, args, lat):
        self.counts["lattice.elements"] += len(lat)
        self.counts["lattice.table_cells"] += len(lat) ** 2

    def on_search(self, args, result):
        self.counts["search.nodes"] += result.nodes
        self.searches.append(args[0])

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, and self seconds (duration
        minus the time covered by its direct children)."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[i]
        return dict(agg)


@contextmanager
def installed(tracer: Tracer):
    """Re-bind every traced function wherever lattice_sb holds a reference."""
    import lattice_sb  # noqa: F401  (loads every submodule)

    mods = {name: mod for name, mod in sys.modules.items()
            if name == "lattice_sb" or name.startswith("lattice_sb.")}
    after = {"lattice.build_lattice": tracer.on_lattice, "search.max_code": tracer.on_search}
    saved = []
    try:
        for mod_name, fn_name, span in TRACED:
            orig = getattr(mods[f"lattice_sb.{mod_name}"], fn_name)
            wrapped = tracer.wrap(span, orig, after.get(span))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        cls = mods["lattice_sb.lattice"].Lattice
        for meth in PREDICATES:
            orig = cls.__dict__[meth]
            saved.append((cls, meth, orig))
            setattr(cls, meth, tracer.wrap(f"lattice.{meth}", orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def replay(main, commands) -> dict:
    """Run each command through main(argv); the loop itself is the only
    work here that is not inside main."""
    runs = []
    t0 = time.perf_counter()
    for cmd in commands:
        for name in cmd["outputs"]:
            Path(name).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(list(cmd["argv"]))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # record and go on: the benchmark counts it as failed
                traceback.print_exc(file=err)
                rc = "exception"
        main_s = time.perf_counter() - start
        files = {p: Path(p).read_text(encoding="utf-8") if Path(p).exists() else None
                 for p in cmd["outputs"]}
        runs.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                     "files": files, "main_s": main_s})
    return {"wall_s": time.perf_counter() - t0, "runs": runs}


def graph_sizes(problems) -> dict[str, int]:
    """Window vertices and distance-graph edges of each search, counted
    through the public Lattice API, outside every span."""
    vertices = edges = 0
    for p in problems:
        lat = p.lattice
        lo, hi = p.window if p.window else (0, lat.total_height())
        ids = [x for x in range(len(lat)) if lo <= lat.height(x) <= hi]
        vertices += len(ids)
        edges += sum(1 for i, a in enumerate(ids) for b in ids[i + 1:] if lat.distance(a, b) >= p.d)
    return {"search.window_vertices": vertices, "search.graph_edges": edges}


def main(spec_path: str, out_path: str) -> int:
    commands = json.loads(Path(spec_path).read_text())["commands"]
    from lattice_sb import cli

    untraced = replay(cli.main, commands)
    tracer = Tracer()
    with installed(tracer):
        traced = replay(tracer.wrap("cli.main", cli.main), commands)
    result = {
        "untraced": untraced,
        "traced": traced,
        "spans": tracer.self_times(),
        "counts": {**tracer.counts, **graph_sizes(tracer.searches)},
    }
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
