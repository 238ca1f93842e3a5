"""Command-line front end: check, bounds, fig5, scheme, search, export-dot.

Exit codes: 0 success, 2 input error, 3 budget-inconclusive search.  All CSV
and JSON output is byte-stable for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import bounds as bnd
from . import counting
from . import fq
from . import lattice as lt
from . import schemes as sch
from . import search as srch

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


def _add_source(p: argparse.ArgumentParser):
    p.add_argument("--name", metavar="NAME", help="named lattice: M3, N5, L1 or L2")
    p.add_argument("--powerset", type=int, nargs="?", const=True, metavar="N",
                   help="power-set lattice on N points (--powerset N or --powerset -n N)")
    p.add_argument("--projective", action="store_true", default=None, help="subspace lattice of F_q^n")
    p.add_argument("-q", type=int, default=2, help="field size (prime, default 2)")
    p.add_argument("-n", type=int, help="ambient dimension / ground-set size")
    p.add_argument("--lattice", metavar="PATH", help="lattice JSON file")
    p.add_argument("--max-elements", type=int, default=None,
                   help="materialization cap override (also LATTICE_SB_MAX_ELEMENTS)")


def _resolve_source(args) -> tuple[lt.Lattice, str | None, int | None, int | None]:
    """(lattice, family, q, n); family, q and n are None outside the families."""
    picked = [s for s in ("name", "powerset", "projective", "lattice") if getattr(args, s) is not None]
    if len(picked) != 1:
        raise lt.LatticeError("pick exactly one of --name, --powerset, --projective, --lattice")
    if args.name is not None:
        return fq.build_named_lattice(args.name, args.max_elements), None, None, None
    if args.powerset is not None:
        bare = args.powerset is True  # N comes from -n
        if bare == (args.n is None):
            raise lt.LatticeError("give N once: --powerset N or --powerset -n N")
        n = args.n if bare else args.powerset
        return fq.build_powerset_lattice(n, args.max_elements), "powerset", None, n
    if args.projective:
        if args.n is None:
            raise lt.LatticeError("--projective needs -n")
        return (
            fq.build_projective_lattice(args.n, args.q, args.max_elements),
            "projective",
            args.q,
            args.n,
        )
    return _load_json(args), None, None, None


def _load_json(args) -> lt.Lattice:
    return lt.from_json(_read(args.lattice), lt.element_cap(args.max_elements))


# --- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    lat = _resolve_source(args)[0]
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


# --- bounds --------------------------------------------------------------------


def _range_values(args, single: str, lo_flag: str, hi_flag: str, what: str) -> list[int]:
    single_v = getattr(args, single)
    lo = getattr(args, lo_flag)
    hi = getattr(args, hi_flag)
    if single_v is not None:
        if lo is not None or hi is not None:
            raise lt.LatticeError(f"give either -{single} or a --{what}-min/--{what}-max range")
        return [single_v]
    if lo is None or hi is None or hi < lo:
        raise lt.LatticeError(f"need -{single} or a valid --{what}-min/--{what}-max range")
    return list(range(lo, hi + 1))


def cmd_bounds(args) -> int:
    window = tuple(args.window) if args.window else None
    d_values = _range_values(args, "d", "d_min", "d_max", "d")
    reports: list[bnd.BoundReport] = []

    if args.lattice:
        lat = _load_json(args)
        n = lat.total_height()
        for d in d_values:
            r = bnd.BoundReport("lattice", None, n, d)
            r.lsb_value = bnd.lsb_for_lattice(lat, d)
            r.gv_value = bnd.gv_lower_for_lattice(lat, d, window)
            if window:
                r.m, r.M = window
            reports.append(r)
        _emit(bnd.render_report_csv(reports), args.output)
        return EXIT_OK

    if args.powerset:
        family, q = "powerset", None
    elif args.projective:
        family, q = "projective", args.q
    else:
        raise lt.LatticeError("pick a family: --powerset, --projective, or --lattice PATH")
    n_values = _range_values(args, "n", "n_min", "n_max", "n")

    for n in n_values:
        for d in d_values:
            a = bnd.puncture_budget(d, family == "powerset")
            if a > n:
                print(f"warning: skipping n={n} d={d} (puncture budget {a} > n)", file=sys.stderr)
                continue
            r = bnd.BoundReport(family, q, n, d)
            if window:
                m, M = window
                if M > n:
                    print(f"warning: skipping n={n} d={d} (window top {M} > n)", file=sys.stderr)
                    continue
                r.m, r.M = m, M
                r.lsb_value = bnd.lsb_windowed(family, n, d, m, M, q)
                if family == "projective" and m == M and bnd.kks_degenerate(m, d):
                    print(f"warning: degenerate window at n={n} d={d}: bound forced to "
                          f"height {m - a} < 0", file=sys.stderr)
            else:
                r.lsb_value = bnd.lsb(family, n, d, q)
            try:
                r.gv_value = bnd.gv_lower(family, n, d, q, args.max_elements)
            except lt.CapExceeded:
                r.gv_value = None
            reports.append(r)
    _emit(bnd.render_report_csv(reports), args.output)
    return EXIT_OK


# --- fig5 ----------------------------------------------------------------------


def _load_overlay(path: str) -> dict[str, dict[int, str]]:
    """Overlay CSV: header 'label,n,log2size'; values pass through verbatim."""
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
        series.setdefault(parts[0], {})[n] = parts[2]
    return series


def fig5_rows(q: int, d: int, n_lo: int, n_hi: int, max_elements: int | None = None):
    """(n, bound, gv-or-None) rows; gv only where the lattice is materializable."""
    rows = []
    for n in range(n_lo, n_hi + 1):
        bound = bnd.lsb("projective", n, d, q)
        try:
            gv = bnd.gv_lower("projective", n, d, q, max_elements)
        except lt.CapExceeded:
            gv = None
        rows.append((n, bound, gv))
    return rows


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
    rows = fig5_rows(args.q, args.d, args.n_min, args.n_max, args.max_elements)
    overlay = _load_overlay(args.overlay) if args.overlay else {}
    labels = sorted(overlay)
    header = ["n", "lsb_log2", "gv_lower_log2"] + labels
    lines = [",".join(header)]
    for n, bound, gv in rows:
        cells = [str(n), bnd.log2_string(bound), bnd.log2_string(gv)]
        for lab in labels:
            cells.append(overlay[lab].get(n, ""))
        lines.append(",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    _emit(csv_text, args.output)

    script_path = args.plot_script
    if script_path is None and args.output:
        script_path = re.sub(r"\.csv$", "", args.output) + ".plot.py"
    if script_path:
        csv_name = args.output if args.output else "fig5.csv"
        png = re.sub(r"\.csv$", "", csv_name) + ".png"
        _write(script_path, _PLOT_SCRIPT.format(csv=csv_name, labels=labels, png=png))
        print(f"plot script: {script_path}", file=sys.stderr)
    return EXIT_OK


# --- scheme --------------------------------------------------------------------


def _parse_w(text: str, w_desc: str, lat: lt.Lattice):
    """Resolve the puncturing element in the scheme file's lattice."""
    first = next(ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#"))
    m = sch._HEADER_RE.match(first)
    if m:
        q, n = int(m.group(1)), int(m.group(2))
        sub = fq.subspace_from_text(w_desc, n, q)
        return lat.name_to_id[fq.subspace_to_text(sub)]
    n = len(first)
    if len(w_desc) != n or any(ch not in "01" for ch in w_desc):
        raise lt.LatticeError(f"puncturing element {w_desc!r} must be {n} binary digits")
    return sch.support_transform([int(ch) for ch in w_desc])


def cmd_scheme(args) -> int:
    text = _read(args.file)
    s = sch.parse_scheme_text(text, as_code=args.as_code, max_elements=args.max_elements)
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
    w = _parse_w(text, args.w, s.lattice)
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
    lat, family, q, n = _resolve_source(args)
    window = tuple(args.window) if args.window else None
    problem = srch.SearchProblem(lat, args.d, window, args.budget_nodes, args.budget_secs)
    res = srch.max_code(problem)

    lower = bnd.gv_lower_for_lattice(lat, args.d, window)
    if family is not None:
        if window:
            upper = bnd.lsb_windowed(family, n, args.d, window[0], window[1], q)
        else:
            upper = bnd.lsb(family, n, args.d, q)
    else:
        upper = bnd.lsb_for_lattice(lat, args.d) if lat.is_modular() else None
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
    _emit(json.dumps(obj, indent=2) + "\n", args.output)
    return EXIT_OK if res.proven_optimal else EXIT_INCONCLUSIVE


# --- export-dot ------------------------------------------------------------------


def cmd_export_dot(args) -> int:
    lat = _resolve_source(args)[0]
    _emit(lt.to_dot(lat), args.output)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-sb",
        description="Finite-lattice coding workbench: schemes, Singleton-type bounds, exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a lattice and print its classification")
    _add_source(p)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="bound table as CSV")
    p.add_argument("--powerset", action="store_true", help="power-set family")
    p.add_argument("--projective", action="store_true", help="projective family")
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
    p.add_argument("--max-elements", type=int, default=None)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fig5", help="bound-vs-lower-bound curve data (CSV) plus a plot script")
    p.add_argument("-q", type=int, default=2)
    p.add_argument("-d", type=int, default=4)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--overlay", metavar="PATH", help="CSV with header label,n,log2size")
    p.add_argument("--plot-script", metavar="PATH")
    p.add_argument("--max-elements", type=int, default=None)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_fig5)

    p = sub.add_parser("scheme", help="min distance / puncture / puncture-project a scheme file")
    p.add_argument("action", choices=["mindist", "puncture", "puncture-project"])
    p.add_argument("file", metavar="SCHEME_FILE")
    p.add_argument("--w", metavar="ELEMENT", help="puncturing element (binary string or subspace rows)")
    p.add_argument("--as-code", action="store_true",
                   help="read lines as binary codewords (support transform)")
    p.add_argument("--policy", choices=list(sch.CHOOSER_POLICIES), default="least")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-elements", type=int, default=None)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("search", help="exhaustive maximum-scheme search (JSON report)")
    _add_source(p)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--window", type=int, nargs=2, metavar=("M_LO", "M_HI"))
    p.add_argument("--budget-nodes", type=int, default=10_000_000)
    p.add_argument("--budget-secs", type=float, default=60.0)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export-dot", help="Hasse diagram as DOT")
    _add_source(p)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lt.element_cap(args.max_elements)  # a bad cap is an input error on every command
        return args.func(args)
    except (lt.LatticeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
