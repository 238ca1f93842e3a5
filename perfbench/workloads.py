"""The benchmark's workloads: command lists, seeded inputs and output checks.

Each workload is a fixed list of `lattice-sb` commands.  `build()` writes the
seeded input files into a work directory and returns the commands, each with
a check that compares the command's output against values from `oracle`
(which never imports lattice_sb).  Why each workload exists is in WHY and in
README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import oracle as orc

WHY = {
    "spread": "flagship partial line spread A_2(5,4;2)=9: about 1.8M cheap clique-search nodes, "
              "lattice build and bounds under 3%",
    "dense": "five searches with few but costly nodes (large colour classes, cliques up to 155), "
             "one on a relabelled JSON lattice",
    "survey": "interactive check/bounds/fig5/scheme commands without search: lattice builds, "
              "structure predicates and many short processes",
}

# Every command passes --max-elements so that enforcing the element cap on
# every entry path (including --lattice JSON) cannot turn it into a failure.
CAP = "400"


@dataclass(frozen=True)
class Command:
    kind: str  # search, check, bounds (fig5 included) or scheme
    argv: tuple[str, ...]
    timeout_s: float  # the benchmark's own limit, far above the expected time
    check: Callable[[int, str, dict], list[str]]  # (exit code, stdout, files) -> problems
    outputs: tuple[str, ...] = ()  # files the command writes, relative to the work dir


@dataclass(frozen=True)
class Geometry:
    """How to read a reported element name, and the height metric on it."""

    decode: Callable[[str], frozenset]
    height: Callable[[frozenset], int]

    def distance(self, a: frozenset, b: frozenset) -> int:
        return self.height(a) + self.height(b) - 2 * self.height(a & b)


SUBSETS = Geometry(orc.parse_subset, len)


def subspaces(q: int) -> Geometry:
    return Geometry(lambda name: orc.parse_subspace(name, q), lambda s: orc.dim(s, q))


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # Distinct lattices, as constructor calls for the set-up probe:
    # ["projective", n, q, cap], ["powerset", n, cap], ["named", name], ["json", path].
    lattices: list[list]


def build(name: str, seed: int, workdir) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"spread": _spread, "dense": _dense, "survey": _survey}[name](rng, workdir)


# --- spread --------------------------------------------------------------------


def _spread(rng, workdir) -> Workload:
    cmd = Command(
        "search",
        ("search", "--projective", "-n", "5", "-q", "2", "-d", "4", "--window", "2", "2",
         "--max-elements", CAP),
        120.0,
        search_check(9, subspaces(2), 4, (2, 2),
                     bound=orc.lsb("projective", 5, 4, 2, (2, 2)),
                     gv=orc.gv_lower("projective", 5, 4, 2, (2, 2))),
    )
    return Workload("spread", [cmd], [["projective", 5, 2, int(CAP)]])


# --- dense ---------------------------------------------------------------------


def _dense(rng, workdir) -> Workload:
    (workdir / "bool7.json").write_text(relabelled_powerset_json(7, rng))
    cmds = []
    for n, q, d, window, best in (
        (5, 2, 2, (1, 2), orc.qbinom(5, 2, 2)),  # every line: [5,2]_2 = 155
        (4, 3, 2, (1, 2), orc.qbinom(4, 2, 3)),  # every line: [4,2]_3 = 130
        (4, 3, 4, (2, 2), 10),  # line spread of PG(3,3): A_3(4,4;2) = q^2+1 = 10
    ):
        cmds.append(Command(
            "search",
            ("search", "--projective", "-n", str(n), "-q", str(q), "-d", str(d),
             "--window", str(window[0]), str(window[1]), "--max-elements", CAP),
            60.0,
            search_check(best, subspaces(q), d, window,
                         bound=orc.lsb("projective", n, d, q, window),
                         gv=orc.gv_lower("projective", n, d, q, window)),
        ))
    # Extended Hamming code: A(8,4) = 16.
    cmds.append(Command(
        "search", ("search", "--powerset", "-n", "8", "-d", "4", "--max-elements", CAP), 60.0,
        search_check(16, SUBSETS, 4, None,
                     bound=orc.lsb("powerset", 8, 4), gv=orc.gv_lower("powerset", 8, 4)),
    ))
    # Hamming code on a relabelled 2^[7]: A(7,3) = 16, and the bound and GV
    # value of the JSON path equal those of the power-set family.
    cmds.append(Command(
        "search", ("search", "--lattice", "bool7.json", "-d", "3", "--max-elements", CAP), 60.0,
        search_check(16, SUBSETS, 3, None,
                     bound=orc.lsb("powerset", 7, 3), gv=orc.gv_lower("powerset", 7, 3)),
    ))
    lattices = [["projective", 5, 2, int(CAP)], ["projective", 4, 3, int(CAP)],
                ["powerset", 8, int(CAP)], ["json", "bool7.json"]]
    return Workload("dense", cmds, lattices)


# --- survey --------------------------------------------------------------------

# Verdicts from lattice theory, as (height, jordan_dedekind, modular,
# distributive, geometric, whitney).  M3 is the diamond: modular, not
# distributive, atomistic.  N5 is the pentagon: maximal chains of length 2 and
# 3, so neither Jordan-Dedekind nor modular.  L1 is a 4-element chain:
# distributive, but its height-2 element is no join of atoms.  L2 is the
# sublattice of Sub(F_2^3) on 0, <1>, <2>, <3>, <1,3>, <3,5>, V: modular as a
# sublattice of a modular lattice, not distributive since 0, <1>, <2>, <3>,
# <1,3> form an M3, and not geometric since <3,5> lies above the atom <3> only.
NAMED = {
    "M3": (2, True, True, False, True, [1, 3, 1]),
    "N5": (3, False, False, False, False, [1, 2, 1, 1]),
    "L1": (3, True, True, True, False, [1, 1, 1, 1]),
    "L2": (3, True, True, False, False, [1, 3, 2, 1]),
}


def _survey(rng, workdir) -> Workload:
    (workdir / "sub52.json").write_text(relabelled_subspace_json(5, 2, rng))
    code_words, code_w = random_code(8, 12, rng)
    (workdir / "code.txt").write_text("# seeded binary code\n" + "\n".join(code_words) + "\n")
    subs, sub_w = random_subspaces(4, 2, 8, rng)
    (workdir / "subs.txt").write_text(
        "q=2 n=4\n" + "\n".join(_random_basis_text(s, 2, rng) for s in subs) + "\n")

    def check_cmd(src, verdicts):
        return Command("check", ("check", *src, "--max-elements", CAP), 30.0,
                       exact_check(check_text(*verdicts)))

    # Boolean lattices are distributive and atomistic; Sub(F_q^n), n >= 2, is
    # modular and geometric but not distributive.  The relabelled JSON copy
    # must classify exactly like the family lattice.
    sub52 = (5, True, True, False, True, orc.whitney("projective", 5, 2))
    cmds = [
        check_cmd(("--powerset", "8"), (8, True, True, True, True, orc.whitney("powerset", 8))),
        check_cmd(("--projective", "-n", "5", "-q", "2"), sub52),
        check_cmd(("--projective", "-n", "4", "-q", "3"),
                  (4, True, True, False, True, orc.whitney("projective", 4, 3))),
        check_cmd(("--lattice", "sub52.json"), sub52),
    ]
    cmds += [check_cmd(("--name", nm), v) for nm, v in NAMED.items()]
    cmds += [
        bounds_cmd("projective", 2, range(2, 6), range(2, 7)),
        bounds_cmd("projective", 3, range(2, 5), range(2, 5)),
        bounds_cmd("powerset", None, range(1, 21), range(1, 21)),
        Command("bounds", ("bounds", "--lattice", "sub52.json", "--d-min", "2", "--d-max", "4",
                           "--max-elements", CAP), 30.0,
                exact_check(orc.CSV_HEADER + "\n" + "".join(
                    orc.bounds_row("lattice", None, 5, d, orc.lsb("projective", 5, d, 2),
                                   orc.gv_lower("projective", 5, d, 2)) + "\n"
                    for d in range(2, 5)))),
        Command("bounds", ("fig5", "-o", "fig5.csv", "--max-elements", CAP), 30.0,
                fig5_check(int(CAP)), outputs=("fig5.csv", "fig5.plot.py")),
    ]
    for action in ("mindist", "puncture", "puncture-project"):
        w = () if action == "mindist" else ("--w", code_w)
        cmds.append(Command("scheme", ("scheme", action, "code.txt", *w, "--max-elements", CAP),
                            30.0, exact_check(code_scheme_text(action, code_words, code_w))))
    for action in ("mindist", "puncture", "puncture-project"):
        w = () if action == "mindist" else ("--w", orc.subspace_text(sub_w, 2))
        cmds.append(Command("scheme", ("scheme", action, "subs.txt", *w, "--max-elements", CAP),
                            30.0, exact_check(subspace_scheme_text(action, subs, sub_w, 2))))
    lattices = [["powerset", 8, int(CAP)], ["json", "sub52.json"]]
    lattices += [["projective", n, 2, int(CAP)] for n in range(2, 6)]
    lattices += [["projective", n, 3, int(CAP)] for n in range(2, 5)]
    lattices += [["named", nm] for nm in NAMED]
    return Workload("survey", cmds, lattices)


def bounds_cmd(family, q, ns, ds) -> Command:
    argv = ["bounds", f"--{family}"] + (["-q", str(q)] if q else [])
    argv += ["--n-min", str(ns[0]), "--n-max", str(ns[-1]),
             "--d-min", str(ds[0]), "--d-max", str(ds[-1]), "--max-elements", CAP]
    rows = [orc.CSV_HEADER]
    for n in ns:
        for d in ds:
            if orc.puncture_budget(d, family == "powerset") > n:
                continue  # the program skips these rows with a warning
            # The projective GV value needs the lattice built, so the cap
            # blanks it; the power-set value is closed-form.
            fits = family == "powerset" or orc.size(family, n, q) <= int(CAP)
            gv = orc.gv_lower(family, n, d, q) if fits else None
            rows.append(orc.bounds_row(family, q, n, d, orc.lsb(family, n, d, q), gv))
    return Command("bounds", tuple(argv), 30.0, exact_check("\n".join(rows) + "\n"))


# --- checks --------------------------------------------------------------------


def exact_check(expected: str):
    def check(rc, out, files):
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        if out != expected:
            problems.append(f"stdout differs from the expected text:\n{out}\n--- expected ---\n{expected}")
        return problems
    return check


def check_text(height, jd, modular, distributive, geometric, whitney) -> str:
    flags = zip(("jordan_dedekind", "modular", "distributive", "geometric"),
                (jd, modular, distributive, geometric))
    lines = [f"elements: {sum(whitney)}", "lattice_valid: true", f"height: {height}"]
    lines += [f"{key}: {'true' if v else 'false'}" for key, v in flags]
    lines.append("whitney: " + ",".join(map(str, whitney)))
    return "".join(line + "\n" for line in lines)


def fig5_check(cap: int):
    lines = ["n,lsb_log2,gv_lower_log2"]
    for n in range(4, 21):
        gv = orc.gv_lower("projective", n, 4, 2) if orc.size("projective", n, 2) <= cap else None
        lines.append(f"{n},{orc.log2_cell(orc.lsb('projective', n, 4, 2))},{orc.log2_cell(gv)}")
    csv = "\n".join(lines) + "\n"

    def check(rc, out, files):
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        if out:
            problems.append("fig5 -o wrote to stdout")
        if files.get("fig5.csv") != csv:
            problems.append(f"fig5.csv differs:\n{files.get('fig5.csv')}\n--- expected ---\n{csv}")
        if "fig5.csv" not in (files.get("fig5.plot.py") or ""):
            problems.append("fig5.plot.py missing or not reading fig5.csv")
        return problems
    return check


def search_check(best: int, geo: Geometry, d: int, window, bound: int, gv: int):
    """Exact optimum, proof, both bounds, the sandwich verdict, and an
    independent re-check that the reported members form a scheme of
    distance >= d inside the window.  Node counts are not pinned."""
    def check(rc, out, files):
        try:
            res = json.loads(out)
        except ValueError:
            return [f"exit code {rc}; output is not JSON: {out[:200]!r}"]
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        want = {"best_size": best, "proven_optimal": True, "bound": bound,
                "gv_lower": gv, "sandwich": "PASS"}
        problems += [f"{k} = {res.get(k)!r}, expected {v!r}" for k, v in want.items()
                     if res.get(k) != v]
        names = res.get("scheme", [])
        members = [geo.decode(nm) for nm in names]
        if len(set(members)) != len(names) or len(names) != best:
            problems.append(f"scheme has {len(set(members))} distinct members, expected {best}")
        if window and any(not window[0] <= geo.height(x) <= window[1] for x in members):
            problems.append("scheme member outside the height window")
        if any(geo.distance(a, b) < d for a, b in combinations(members, 2)):
            problems.append(f"members at distance below {d}")
        return problems
    return check


# --- scheme outputs --------------------------------------------------------------


def _scheme_report(action, before, after, geo: Geometry) -> str:
    """The program's report for a scheme before and after (project-)puncturing."""
    def d_min(xs):
        return min(geo.distance(a, b) for a, b in combinations(xs, 2)) if len(xs) >= 2 else None
    hs = [geo.height(x) for x in before]
    if action == "mindist":
        return f"size: {len(before)}\nmin_distance: {d_min(before)}\nheights: m={min(hs)} M={max(hs)}\n"
    bd = d_min(before)
    ad = 0 if len(after) < len(before) else (d_min(after) if len(after) >= 2 else 0)
    ah = [geo.height(x) for x in after]
    text = (f"before: size={len(before)} d={bd} m={min(hs)} M={max(hs)}\n"
            f"after:  size={len(after)} d={ad} m={min(ah)} M={max(ah)}\n"
            f"drop: {bd - ad}\n")
    if action == "puncture-project":
        text += "policy: least seed: undefined\n"
    return text


def code_scheme_text(action, words, w) -> str:
    before = {orc.word_set(x) for x in words}
    ws = orc.word_set(w)
    after = set()
    for c in before:
        x = c & ws
        if action == "puncture-project" and x == c and c:
            # c <= w: the least-id lower cover drops the largest point
            x = c - {max(c)}
        after.add(x)
    return _scheme_report(action, before, after, SUBSETS)


def subspace_scheme_text(action, subs, w, q) -> str:
    before = set(subs)
    after = set()
    for c in before:
        x = c & w
        if action == "puncture-project" and x == c and len(c) > 1:
            # c <= w: the least-id hyperplane of c in the program's order
            x = min(orc.hyperplanes(c, q), key=lambda s: orc.id_order_key(s, q))
        after.add(x)
    return _scheme_report(action, before, after, subspaces(q))


# --- seeded inputs -----------------------------------------------------------------


def relabelled_powerset_json(n: int, rng) -> str:
    """2^[n] as lattice JSON with shuffled ids and cover order."""
    sets = [frozenset(i + 1 for i in range(n) if m >> i & 1) for m in range(1 << n)]
    covers = [(m, m | 1 << i) for m in range(1 << n) for i in range(n) if not m >> i & 1]
    return _relabelled([orc.subset_name(s) for s in sets], covers, rng)


def relabelled_subspace_json(n: int, q: int, rng) -> str:
    """Sub(F_q^n) as lattice JSON with shuffled ids and cover order."""
    subs, covers = orc.all_subspaces(n, q)
    return _relabelled([orc.subspace_text(s, q) for s in subs], covers, rng)


def _relabelled(names, covers, rng) -> str:
    perm = list(range(len(names)))
    rng.shuffle(perm)  # old id -> new id
    new_names = [""] * len(names)
    for old, new in enumerate(perm):
        new_names[new] = names[old]
    new_covers = [[perm[a], perm[b]] for a, b in covers]
    rng.shuffle(new_covers)
    return json.dumps({"elements": new_names, "covers": new_covers})


def random_code(n: int, k: int, rng) -> tuple[list[str], str]:
    """k distinct binary words of length n, and a puncturing word."""
    def word(m):
        return "".join("1" if m >> i & 1 else "0" for i in range(n))
    return [word(m) for m in rng.sample(range(1 << n), k)], word(rng.randrange(1 << n))


def random_subspaces(n: int, q: int, k: int, rng) -> tuple[list[frozenset], frozenset]:
    """k distinct subspaces of F_q^n of dimension 1..n-1, and a hyperplane."""
    def random_space(dim):
        while True:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(dim)]
            s = orc.span(rows, q, n)
            if orc.dim(s, q) == dim:
                return s
    subs = set()
    while len(subs) < k:
        subs.add(random_space(rng.randint(1, n - 1)))
    return sorted(subs, key=lambda s: orc.id_order_key(s, q)), random_space(n - 1)


def _random_basis_text(sub: frozenset, q: int, rng) -> str:
    """A random basis of sub in the scheme-file row notation (not reduced)."""
    n = len(next(iter(sub)))
    k = orc.dim(sub, q)
    vecs = sorted(sub)
    while True:
        rows = rng.sample(vecs, k)
        if orc.dim(orc.span(rows, q, n), q) == k:
            return "/".join("".join(map(str, r)) for r in rows)
