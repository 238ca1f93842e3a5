"""Command-line front end: check, bounds, fig5, scheme, search, export-dot.

Exit codes: 0 success, 2 input error, 3 budget-inconclusive search.  All CSV
and JSON output is byte-stable for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import re
import sys

# not `from . import`: the package's lazy __getattr__ loads these unseen by -X importtime
import lattice_sb.bounds as bnd
import lattice_sb.schemes as sch
import lattice_sb.search as srch

from . import counting
from . import fq
from . import lattice as lt

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(text: str, output: str | None):
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


# --- lattice sources ---------------------------------------------------------


_SOURCES = ("name", "powerset", "projective", "lattice")


def _add_source(p: argparse.ArgumentParser):
    p.add_argument("--name", metavar="NAME", help="named lattice: M3, N5, L1 or L2")
    p.add_argument("--powerset", type=int, nargs="?", const=True, metavar="N",
                   help="power-set lattice on N points (--powerset N or --powerset -n N)")
    p.add_argument("--projective", action="store_true", default=None, help="subspace lattice of F_q^n")
    p.add_argument("-q", type=int, default=2, help="field size (prime, default 2)")
    p.add_argument("-n", type=int, help="ambient dimension / ground-set size")
    p.add_argument("--lattice", metavar="PATH", help="lattice JSON file")


def _pick_source(args) -> str:
    """The one source flag given, out of those of _SOURCES the command takes."""
    offered = [s for s in _SOURCES if hasattr(args, s)]
    picked = [s for s in offered if getattr(args, s) is not None]
    if len(picked) != 1:
        raise lt.LatticeError("pick exactly one of " + ", ".join(f"--{s}" for s in offered))
    return picked[0]


def _family_source(args, source: str) -> tuple[str, int, int | None]:
    """(family, n, q) of a --powerset or --projective source."""
    if source == "powerset":
        bare = args.powerset is True  # N comes from -n
        if bare == (args.n is None):
            raise lt.LatticeError("give N once: --powerset N or --powerset -n N")
        return "powerset", args.n if bare else args.powerset, None
    if args.n is None:
        raise lt.LatticeError("--projective needs -n")
    return "projective", args.n, args.q


def _resolve_source(args) -> lt.Lattice:
    source = _pick_source(args)
    if source == "name":
        return fq.build_named_lattice(args.name, args.max_elements)
    if source == "lattice":
        return lt.from_json(_read(args.lattice), args.max_elements)
    family, n, q = _family_source(args, source)
    if family == "powerset":
        return fq.build_powerset_lattice(n, args.max_elements)
    return fq.build_projective_lattice(n, q, args.max_elements)


# --- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    lat = _resolve_source(args)
    info = lt.classify(lat)
    lines = [
        f"elements: {info['elements']}",
        "lattice_valid: true",
        f"height: {info['height']}",
    ]
    for key in ("jordan_dedekind", "modular", "distributive", "geometric"):
        lines.append(f"{key}: {'true' if info[key] else 'false'}")
    lines.append("whitney: " + ",".join(str(c) for c in counting.whitney(lat)))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# --- bounds and fig5 ------------------------------------------------------------


def _range_values(single: int | None, lo: int | None, hi: int | None, flag: str) -> list[int]:
    """The values of one table axis: [single] (-d), or lo..hi (--d-min/--d-max)."""
    if single is not None:
        if lo is not None or hi is not None:
            raise lt.LatticeError(f"give either -{flag} or a --{flag}-min/--{flag}-max range")
        return [single]
    if lo is None or hi is None:
        raise lt.LatticeError(f"need -{flag} or a valid --{flag}-min/--{flag}-max range")
    if hi < lo:
        raise lt.LatticeError(f"--{flag}-min {lo} is above --{flag}-max {hi}")
    return list(range(lo, hi + 1))


def _family_reports(family: str, q: int | None, n_values, d_values, window=None,
                    max_elements: int | None = None):
    """Yield the rows of a family bound table, one per (n, d) that fits n.

    A row that does not fit its n (lsb raises HeightExceeded: alpha or the
    window's top above n) is skipped with a warning on stderr, and the GV
    cells of an n whose lattice is over the element cap are left blank.  Every
    other error of lsb is an input error and stops the table.  Both axes
    ascend and lsb checks the family, d and the window's order before the
    heights, so an input error is raised by the first row, before any warning.
    """
    m, M = window or (None, None)
    for n in n_values:
        rows = []  # (d, lsb value) of the rows kept for this n
        for d in d_values:
            try:
                rows.append((d, bnd.lsb(family, n, d, q, window)))
            except lt.HeightExceeded as e:
                print(f"warning: skipping n={n} d={d} ({e})", file=sys.stderr)
        if not rows:
            continue
        try:
            gvs = bnd.family_gv_values(family, n, [d for d, _ in rows], q, window, max_elements)
        except lt.CapExceeded:
            gvs = [None] * len(rows)
        for (d, value), gv in zip(rows, gvs):
            yield bnd.BoundReport(family, q, n, d, m, M, value, gv)


def cmd_bounds(args) -> int:
    source = _pick_source(args)
    window = tuple(args.window) if args.window else None
    d_values = _range_values(args.d, args.d_min, args.d_max, "d")
    if source == "lattice":
        if (args.n, args.n_min, args.n_max) != (None, None, None):
            raise lt.LatticeError("--lattice takes no -n, --n-min or --n-max (n is its height)")
        lat = _resolve_source(args)
        m, M = window or (None, None)
        gvs = bnd.gv_lower_values(lat, d_values, window)
        lsbs = bnd.lsb_values(lat, d_values, window)
        reports = [bnd.BoundReport("lattice", None, lat.total_height(), d, m, M, value, gv)
                   for d, value, gv in zip(d_values, lsbs, gvs)]
    else:
        q = args.q if source == "projective" else None
        n_values = _range_values(args.n, args.n_min, args.n_max, "n")
        # listed before rendering, so a trace charges the rows' time to them, not to the CSV
        reports = list(_family_reports(source, q, n_values, d_values, window, args.max_elements))
    _emit(bnd.render_report_csv(reports), args.output)
    return EXIT_OK


_FIG5_COLUMNS = ["n", "lsb_log2", "gv_lower_log2"]  # the overlay's labels follow them


def _load_overlay(path: str) -> dict[str, dict[int, str]]:
    """Overlay CSV: header 'label,n,log2size'; values pass through verbatim.

    A label that names a table column, or a label and n given twice, would
    corrupt the table: the row is refused."""
    lines = [ln for ln in _read(path).splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "label,n,log2size":
        raise lt.LatticeError("overlay file needs the header: label,n,log2size")
    series: dict[str, dict[int, str]] = {}
    for ln in lines[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 3 or not parts[0]:
            raise lt.LatticeError(f"bad overlay row: {ln!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise lt.LatticeError(f"bad overlay n in row: {ln!r}") from None
        if parts[0] in _FIG5_COLUMNS or n in series.get(parts[0], ()):
            raise lt.LatticeError(f"overlay row repeats a table column or a label and n: {ln!r}")
        series.setdefault(parts[0], {})[n] = parts[2]
    return series


def fig5_rows(q: int, d: int, n_lo: int, n_hi: int, max_elements: int | None = None):
    """Yield (n, bound, gv-or-None) rows: the `bounds --projective` rows for one d."""
    for r in _family_reports("projective", q, _range_values(None, n_lo, n_hi, "n"), [d],
                             max_elements=max_elements):
        yield r.n, r.lsb_value, r.gv_value


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Render the bound-comparison figure from {csv}.
import csv

import matplotlib.pyplot as plt

with open({csv!r}) as fh:
    rows = list(csv.DictReader(fh))

ns = [int(r["n"]) for r in rows]
plt.figure(figsize=(7, 5))
plt.plot(ns, [float(r["lsb_log2"]) for r in rows], marker="o", label="size bound")
gv = [(int(r["n"]), float(r["gv_lower_log2"])) for r in rows if r["gv_lower_log2"]]
if gv:
    plt.plot([p[0] for p in gv], [p[1] for p in gv], marker="s", label="GV-type lower")
for label in {labels!r}:
    pts = [(int(r["n"]), float(r[label])) for r in rows if r.get(label)]
    if pts:
        plt.scatter([p[0] for p in pts], [p[1] for p in pts], marker="x", label=label)
plt.xlabel("ambient dimension n")
plt.ylabel("log2 size")
plt.legend()
plt.grid(True, alpha=0.3)
plt.tight_layout()
plt.savefig({png!r}, dpi=150)
print("wrote", {png!r})
"""


def cmd_fig5(args) -> int:
    overlay = _load_overlay(args.overlay) if args.overlay else {}
    rows = fig5_rows(args.q, args.d, args.n_min, args.n_max, args.max_elements)
    labels = sorted(overlay)
    header = _FIG5_COLUMNS + labels
    lines = [",".join(header)]
    for n, bound, gv in rows:
        cells = [str(n), bnd.log2_string(bound), bnd.log2_string(gv)]
        for lab in labels:
            cells.append(overlay[lab].get(n, ""))
        lines.append(",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    _emit(csv_text, args.output)

    if args.output:
        stem = re.sub(r"\.csv$", "", args.output)
        script_path = stem + ".plot.py"
        _write(script_path, _PLOT_SCRIPT.format(csv=args.output, labels=labels, png=stem + ".png"))
        print(f"plot script: {script_path}", file=sys.stderr)
    return EXIT_OK


# --- scheme --------------------------------------------------------------------


def cmd_scheme(args) -> int:
    s = sch.parse_scheme_text(_read(args.file), args.max_elements)
    if args.action == "mindist":
        d = sch.min_distance(s)  # singleton -> ValueError -> exit 2
        out = [
            f"size: {s.size}",
            f"min_distance: {d}",
            f"heights: m={s.min_height} M={s.max_height}",
        ]
        _emit("\n".join(out) + "\n", args.output)
        return EXIT_OK

    if args.w is None:
        raise lt.LatticeError(f"{args.action} needs --w")
    w = sch.parse_element(args.w, s.lattice)
    if args.action == "puncture":
        after = sch.puncture(s, w)
    else:
        after = sch.puncture_project(s, w, policy=args.policy, seed=args.seed)
    before_d = s.min_dist if s.size >= 2 else None
    after_d = sch.punctured_distance(s, after)
    out = [
        f"before: size={s.size} d={_num(before_d)} m={s.min_height} M={s.max_height}",
        f"after:  size={after.size} d={after_d} m={after.min_height} M={after.max_height}",
        f"drop: {_num(before_d - after_d if before_d is not None else None)}",
    ]
    if args.action == "puncture-project":
        out.append(f"policy: {args.policy} seed: {_num(args.seed)}")
    _emit("\n".join(out) + "\n", args.output)
    return EXIT_OK


def _num(v) -> str:
    return "undefined" if v is None else str(v)


# --- search --------------------------------------------------------------------


def cmd_search(args) -> int:
    window = tuple(args.window) if args.window else None
    source = _pick_source(args)
    if source in ("powerset", "projective"):  # the window alone, from masks
        lat = fq.family_window(*_family_source(args, source), window, args.max_elements)
    else:
        lat = _resolve_source(args)
    problem = srch.SearchProblem(lat, args.d, window, args.budget_nodes, args.budget_secs)
    res = srch.max_code(problem)

    lower, upper = bnd.search_bounds(lat, args.d, window, args.max_elements)
    if upper is None:
        sandwich = "SKIPPED (non-modular lattice)"
    elif res.best_size > upper:
        sandwich = "FAIL"  # a scheme above the bound is a bug at any budget
    elif not res.proven_optimal:
        sandwich = "SKIPPED (search not proven)"
    else:
        sandwich = "PASS" if lower <= res.best_size else "FAIL"

    obj = {
        "best_size": res.best_size,
        "proven_optimal": res.proven_optimal,
        "nodes": res.nodes,
        "scheme": [lat.names[x] for x in res.members],
        "gv_lower": lower,
        "bound": upper,
        "sandwich": sandwich,
    }
    import json  # loaded after the search, not at start-up

    _emit(json.dumps(obj, indent=2) + "\n", args.output)
    return EXIT_OK if res.proven_optimal else EXIT_INCONCLUSIVE


# --- export-dot ------------------------------------------------------------------


def cmd_export_dot(args) -> int:
    lat = _resolve_source(args)
    _emit(lt.to_dot(lat), args.output)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


_COMMANDS = {  # subcommand -> (its function, its line in the top-level help)
    "check": (cmd_check, "validate a lattice and print its classification"),
    "bounds": (cmd_bounds, "bound table as CSV"),
    "fig5": (cmd_fig5, "bound-vs-lower-bound curve data (CSV), plus a plot script next to -o"),
    "scheme": (cmd_scheme, "min distance / puncture / puncture-project a scheme file"),
    "search": (cmd_search, "exhaustive maximum-scheme search (JSON report)"),
    "export-dot": (cmd_export_dot, "Hasse diagram as DOT"),
}


def _add_arguments(p: argparse.ArgumentParser, command: str):
    """The options of one subcommand: -o and --max-elements, which every one
    takes, then its own."""
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("--max-elements", type=int, default=None,
                   help=f"materialization cap (default {lt.DEFAULT_MAX_ELEMENTS})")
    if command in ("check", "search", "export-dot"):
        _add_source(p)
    if command == "bounds":
        p.add_argument("--powerset", action="store_true", default=None, help="power-set family")
        p.add_argument("--projective", action="store_true", default=None, help="projective family")
        p.add_argument("--lattice", metavar="PATH", help="explicit lattice JSON")
        p.add_argument("-q", type=int, default=2)
        p.add_argument("-n", type=int)
        p.add_argument("--n-min", type=int)
        p.add_argument("--n-max", type=int)
        p.add_argument("-d", type=int)
        p.add_argument("--d-min", type=int)
        p.add_argument("--d-max", type=int)
        p.add_argument("--window", type=int, nargs=2, metavar=("M_LO", "M_HI"),
                       help="height window for the tightened bound")
    elif command == "fig5":
        p.add_argument("-q", type=int, default=2)
        p.add_argument("-d", type=int, default=4)
        p.add_argument("--n-min", type=int, default=4)
        p.add_argument("--n-max", type=int, default=20)
        p.add_argument("--overlay", metavar="PATH", help="CSV with header label,n,log2size")
    elif command == "scheme":
        p.add_argument("action", choices=["mindist", "puncture", "puncture-project"])
        p.add_argument("file", metavar="SCHEME_FILE")
        p.add_argument("--w", metavar="ELEMENT", help="puncturing element (binary string or subspace rows)")
        p.add_argument("--policy", choices=list(sch.CHOOSER_POLICIES), default="least")
        p.add_argument("--seed", type=int, default=None)
    elif command == "search":
        p.add_argument("-d", type=int, required=True)
        p.add_argument("--window", type=int, nargs=2, metavar=("M_LO", "M_HI"))
        p.add_argument("--budget-nodes", type=int, default=10_000_000)
        p.add_argument("--budget-secs", type=float, default=60.0)


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  Every subcommand is registered, so the top-level
    help and the error for an unknown one list them all, but only the one
    that argv[0] names gets its options, or all of them when it names none:
    building all six costs a short command more than its own work."""
    parser = argparse.ArgumentParser(
        prog="lattice-sb",
        description="Finite-lattice coding workbench: schemes, Singleton-type bounds, exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for command, (func, text) in _COMMANDS.items():
        if named in (None, command):
            p = sub.add_parser(command, help=text)
            _add_arguments(p, command)
            p.set_defaults(func=func)
        else:
            sub.add_parser(command, help=text, add_help=False)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        args.max_elements = lt.element_cap(args.max_elements)  # a bad cap fails every command
        return args.func(args)
    except (ValueError, OSError) as e:  # a LatticeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
