"""End-to-end command-line behavior: output shapes, exit codes, byte stability."""

import argparse
import json
import subprocess
import sys
import time

import pytest

from lattice_sb import (
    BOUND_CSV_HEADER,
    BoundReport,
    CapExceeded,
    Lattice,
    SearchProblem,
    build_lattice,
    build_powerset_lattice,
    gv_lower_for_lattice,
    gv_lower_values,
    log2_string,
    lsb,
    lsb_for_lattice,
    make_scheme,
    max_code,
    min_distance,
    puncture_budget,
    render_report_csv,
    to_json,
)
from lattice_sb import bounds as bnd
from lattice_sb import fq
from lattice_sb import schemes as sch
from lattice_sb import search as srch
from lattice_sb import cli
from lattice_sb.cli import main
from lattice_sb.counting import PRIME_LIMIT
from oracles import subspace_intersect


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ---------------------------------------------------------------------------


def test_check_named(capsys):
    code, out, _ = run(capsys, "check", "--name", "M3")
    assert code == 0
    assert "elements: 5" in out
    assert "modular: true" in out
    assert "distributive: false" in out
    assert "whitney: 1,3,1" in out
    # the cap counts the named lattice, not the Sub(F_2^n) it is cut from
    code, out, err = run(capsys, "check", "--name", "N5", "--max-elements", "4")
    assert (code, out) == (2, "")
    assert "named lattice N5 has 5 elements; cap is 4" in err
    code, out, _ = run(capsys, "check", "--name", "L2", "--max-elements", "7")
    assert code == 0
    assert "elements: 7" in out


def test_check_powerset(capsys):
    code, out, _ = run(capsys, "check", "--powerset", "3")
    assert code == 0
    assert "elements: 8" in out
    assert "geometric: true" in out


def test_check_projective(capsys):
    code, out, _ = run(capsys, "check", "--projective", "-n", "3", "-q", "2")
    assert code == 0
    assert "elements: 16" in out
    assert "whitney: 1,7,7,1" in out


def test_check_lattice_file(capsys, tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(to_json(build_powerset_lattice(3)))
    code, out, _ = run(capsys, "check", "--lattice", str(path))
    assert code == 0
    assert "lattice_valid: true" in out


def test_check_atomistic_ungraded_is_not_geometric(capsys, tmp_path):
    path = tmp_path / "ungraded.json"
    path.write_text(json.dumps({
        "elements": ["0", "a", "b", "c", "x", "1"],
        "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 5], [4, 5]],
    }))
    code, out, _ = run(capsys, "check", "--lattice", str(path))
    assert code == 0
    assert "jordan_dedekind: false" in out
    assert "geometric: false" in out


def test_check_requires_one_source(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "check", "--name", "M3", "--powerset", "3")
    assert code == 2


def test_check_unknown_name(capsys):
    code, _, err = run(capsys, "check", "--name", "Z1")
    assert code == 2
    assert "error:" in err


def test_check_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{1,2,3}")
    code, _, err = run(capsys, "check", "--lattice", str(path))
    assert code == 2


def test_check_refuses_boolean_cover_ids(capsys, tmp_path):
    # JSON true and false are Python bools, which isinstance(v, int) lets through
    path = tmp_path / "bools.json"
    path.write_text('{"elements": ["a", "b"], "covers": [[false, true]]}')
    code, out, err = run(capsys, "check", "--lattice", str(path))
    assert code == 2 and out == ""
    assert "bad cover entry: [False, True]" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--lattice", "/nonexistent/x.json")
    assert code == 2


def chain_json(length):
    names = [f"c{i}" for i in range(length)]
    return json.dumps({"elements": names, "covers": [[i, i + 1] for i in range(length - 1)]})


@pytest.mark.parametrize("command", [("check",), ("bounds", "-d", "2"), ("search", "-d", "2")])
def test_lattice_file_enforces_cap(capsys, tmp_path, command):
    path = tmp_path / "chain.json"
    path.write_text(chain_json(130))
    code, out, err = run(capsys, *command, "--lattice", str(path))
    assert code == 2 and out == ""
    assert "130 elements; cap is 128" in err
    code, _, _ = run(capsys, *command, "--lattice", str(path), "--max-elements", "130")
    assert code == 0


def test_negative_cap_is_input_error(capsys):
    code, out, err = run(capsys, "bounds", "--projective", "-q", "2", "--n-min", "3", "--n-max", "4",
                         "--d-min", "2", "--d-max", "2", "--max-elements", "-1")
    assert code == 2 and out == ""
    assert "--max-elements" in err and "must be >= 0" in err


def test_cap_ignores_environment(capsys, monkeypatch):
    # the cap comes from --max-elements or the default, nothing else
    monkeypatch.setenv("LATTICE_SB_MAX_ELEMENTS", "4")
    code, out, _ = run(capsys, "check", "--powerset", "3")
    assert code == 0
    assert "elements: 8\n" in out


# --- bounds --------------------------------------------------------------------------


def test_bounds_powerset_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--powerset", "-n", "4", "-d", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family,q,n,d")
    assert lines[1] == "powerset,,4,3,,,4,2.0000,2,1.0000,"


def test_bounds_range(capsys):
    code, out, _ = run(
        capsys, "bounds", "--projective", "-q", "2", "--n-min", "3", "--n-max", "4", "-d", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("projective,2,3,3")
    assert lines[2].startswith("projective,2,4,3")


def test_bounds_windowed(capsys):
    code, out, _ = run(
        capsys, "bounds", "--projective", "-q", "2", "-n", "4", "-d", "4", "--window", "2", "2"
    )
    assert code == 0
    row = out.strip().split("\n")[1]
    assert row.split(",")[4:7] == ["2", "2", "7"]


def test_bounds_lattice_file(capsys, tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(to_json(build_powerset_lattice(3)))
    code, out, _ = run(capsys, "bounds", "--lattice", str(path), "-d", "2")
    assert code == 0
    row = out.strip().split("\n")[1]
    assert row.startswith("lattice,,3,2")


def test_bounds_skips_overdeep(capsys):
    code, out, err = run(capsys, "bounds", "--powerset", "-n", "2", "-d", "4")
    assert code == 0
    assert len(out.strip().split("\n")) == 1  # header only
    assert "warning" in err


def test_bounds_rejects_inverted_window(capsys, tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(to_json(build_powerset_lattice(3)))
    code, _, err = run(capsys, "bounds", "--lattice", str(path), "-d", "2", "--window", "3", "1")
    assert code == 2
    assert err == "error: need 0 <= m <= M <= n\n"  # the window check of every source


@pytest.mark.parametrize("argv", [("--projective", "-n", "4", "-d", "4", "--window", "2", "1"),
                                  ("--powerset", "-n", "4", "-d", "0"),
                                  ("--projective", "-q", "1", "-n", "3", "-d", "2")])
def test_bounds_family_input_errors_exit_2(capsys, argv):
    # input errors are not rows that fail to fit n: they stop the command
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, error", [
    (("--powerset", "--n-min", "0", "--n-max", "3", "-d", "0", "--window", "2", "2"),
     "minimum distance must be >= 1"),
    (("--projective", "--n-min", "0", "--n-max", "3", "--d-min", "0", "--d-max", "5"),
     "minimum distance must be >= 1"),
    (("--projective", "--n-min", "0", "--n-max", "3", "-d", "9", "--window", "3", "2"),
     "need 0 <= m <= M <= n"),
    (("--projective", "-q", "4", "--n-min", "0", "--n-max", "3", "-d", "9"), "q must be a prime, got 4"),
    (("--projective", "-q", str(2**89 - 1), "--n-min", "0", "--n-max", "3", "-d", "9"),
     f"q must be below {PRIME_LIMIT}, where primality is decided exactly, got {2**89 - 1}"),
])
def test_bounds_input_error_comes_before_any_warning(capsys, argv, error):
    # the first row would not fit n, yet the input error stops the table first
    assert run(capsys, "bounds", *argv) == (2, "", f"error: {error}\n")


def test_bounds_skips_rows_that_do_not_fit_n(capsys):
    code, out, err = run(capsys, "bounds", "--projective", "--n-min", "2", "--n-max", "4",
                         "-d", "4", "--window", "3", "3")
    assert code == 0
    assert err == "warning: skipping n=2 d=4 (need 0 <= m <= M <= n)\n"
    assert [line.split(",")[2] for line in out.strip().split("\n")[1:]] == ["3", "4"]


def test_bounds_degenerate_window_is_one(capsys):
    # alpha = 2 > M = 1: no two atoms are 5 apart, so the optimum is 1
    row = bounds_row(capsys, "--powerset", "-n", "5", "-d", "5", "--window", "1", "1")
    assert (row["lsb"], row["gv_lower"]) == ("1", "1")


@pytest.mark.parametrize("n_args", [("-n", "3"), ("--n-min", "3"), ("--n-min", "1", "--n-max", "3")])
def test_bounds_lattice_takes_no_n(capsys, tmp_path, n_args):
    # the lattice fixes n (its height), so an n flag is an input error, not ignored
    path = tmp_path / "p3.json"
    path.write_text(to_json(build_powerset_lattice(3)))
    code, out, err = run(capsys, "bounds", "--lattice", str(path), *n_args, "-d", "2")
    assert code == 2 and out == ""
    assert err == "error: --lattice takes no -n, --n-min or --n-max (n is its height)\n"


def test_bounds_projective_from_n_0(capsys):
    # Sub(F_q^0) is the one-element lattice, like 2^[0]
    code, out, err = run(capsys, "bounds", "--projective", "--n-min", "0", "--n-max", "2", "-d", "1")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(r[2], r[6], r[8]) for r in rows] == [("0", "1", "1"), ("1", "2", "2"), ("2", "5", "5")]


def test_bounds_powerset_over_20_leaves_gv_blank(capsys):
    # 2^[21] is over every cap: the closed-form row prints, its GV cell is blank
    row = bounds_row(capsys, "--powerset", "-n", "21", "-d", "2", "--window", "1", "1")
    assert (row["lsb"], row["gv_lower"]) == ("21", "")
    code, out, err = run(capsys, "check", "--powerset", "21")
    assert code == 2 and out == ""
    assert err == "error: power-set lattice supported for 0 <= n <= 20\n"


def _digits(v: int) -> str:
    """The decimal digits of v >= 0 without str(), which refuses ints over 4,300 digits."""
    chunks = []
    while v:
        v, r = divmod(v, 10**100)
        chunks.append(r)
    return str(chunks.pop()) + "".join(f"{c:0100d}" for c in reversed(chunks))


def test_bounds_prints_huge_cells_exactly(capsys):
    # d = 3 punctures once: the cell is |Sub(F_2^299)|, 6,729 digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "bounds", "--projective", "-n", "300", "-d", "3")
    assert (code, err) == (0, "")
    galois = [1, 2]  # |Sub(F_2^n)|: G(n+1) = 2 G(n) + (2^n - 1) G(n-1)
    for n in range(1, 299):
        galois.append(2 * galois[n] + (2**n - 1) * galois[n - 1])
    row = out.split("\n")[1].split(",")
    assert row == ["projective", "2", "300", "3", "", "", _digits(galois[299]), log2_string(galois[299]),
                   "", "", ""]
    assert len(row[6]) == 6729
    assert sys.get_int_max_str_digits() == limit  # the interpreter's limit is left alone


def test_fig5_far_above_the_cap_leaves_gv_blank(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "fig5", "--n-min", "300", "--n-max", "300")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out == f"n,lsb_log2,gv_lower_log2\n300,{log2_string(lsb('projective', 300, 4, 2))},\n"


@pytest.mark.parametrize("argv", [("check", "--projective", "-n", "100000", "-q", "2"),
                                  ("check", "--projective", "-n", "200", "-q", "2"),
                                  ("export-dot", "--projective", "-n", "10000000000", "-q", "3"),
                                  ("search", "--projective", "-n", "300", "-d", "3", "--window", "1", "1")])
def test_projective_cap_refusal_is_bounded(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    n, q = argv[argv.index("-n") + 1], argv[argv.index("-q") + 1] if "-q" in argv else "2"
    assert (code, out) == (2, "")
    assert err == f"error: Sub(F_{q}^{n}) has more than 128 elements; cap is 128 (raise via max_elements)\n"


@pytest.mark.parametrize("family", ["--powerset", "--projective"])
@pytest.mark.parametrize("n_args", [("-n", "-1"), ("--n-min", "-2", "--n-max", "3")])
def test_bounds_negative_n_is_input_error(capsys, family, n_args):
    # not a row that fails to fit n: the command stops before any row
    code, out, err = run(capsys, "bounds", family, *n_args, "-d", "2")
    assert code == 2 and out == ""
    assert err == f"error: n must be >= 0, got {n_args[1]}\n"


@pytest.mark.parametrize("window", [(), ("--window", "1", "3")])
def test_bounds_lattice_classifies_once(capsys, tmp_path, monkeypatch, window):
    """One is_modular, and without a window one is_distributive, for all d,
    with the cells lsb_for_lattice gives one d at a time."""
    lat = fq.build_projective_lattice(4, 2)
    path = tmp_path / "sub4.json"
    path.write_text(to_json(lat))
    want = [str(lsb_for_lattice(lat, d, tuple(map(int, window[1:])) or None)) for d in (2, 3, 4)]
    calls = []
    for name in ("is_modular", "is_distributive"):
        real = getattr(Lattice, name)
        monkeypatch.setattr(Lattice, name, lambda self, real=real, name=name: calls.append(name) or real(self))
    code, out, _ = run(capsys, "bounds", "--lattice", str(path), "--d-min", "2", "--d-max", "4", *window)
    assert code == 0
    assert [line.split(",")[6] for line in out.strip().split("\n")[1:]] == want
    assert calls == ["is_modular"] + (["is_distributive"] if not window else [])


def test_bounds_and_fig5_build_no_lattice(capsys, monkeypatch):
    """The family GV cells come from the closed form: bounds and fig5 build no
    lattice, and print the values of each n's built lattice.  Sub(F_2^5) and
    2^[7] are over the cap, so their gv_lower cells stay blank."""
    cap = 100

    def built_gv(family, n, d, window=None):
        try:
            lat = (fq.build_projective_lattice(n, 2, cap) if family == "projective"
                   else build_powerset_lattice(n, cap))
        except CapExceeded:
            return None
        return gv_lower_values(lat, [d], window)[0]

    projective = [BoundReport("projective", 2, n, d, lsb_value=lsb("projective", n, d, 2),
                              gv_value=built_gv("projective", n, d))
                  for n in range(2, 6) for d in range(2, 7) if puncture_budget(d, False) <= n]
    want = render_report_csv(projective)
    assert want.endswith("\nprojective,2,5,6,,,16,4.0000,,,\n")
    want_fig5 = "n,lsb_log2,gv_lower_log2\n" + "".join(
        f"{r.n},{log2_string(r.lsb_value)},{log2_string(r.gv_value)}\n" for r in projective if r.d == 4)
    powerset = [BoundReport("powerset", None, n, 3, 1, 2, lsb("powerset", n, 3, window=(1, 2)),
                            built_gv("powerset", n, 3, (1, 2)))
                for n in range(2, 8)]
    want_powerset = render_report_csv(powerset)
    assert want_powerset.endswith("\npowerset,,7,3,1,2,7,2.8074,,,\n")

    def no_build(*args, **kwargs):
        raise AssertionError("family lattice built")

    monkeypatch.setattr(fq, "build_projective_lattice", no_build)
    monkeypatch.setattr(fq, "build_powerset_lattice", no_build)
    code, out, _ = run(capsys, "bounds", "--projective", "-q", "2", "--n-min", "2", "--n-max", "5",
                       "--d-min", "2", "--d-max", "6", "--max-elements", str(cap))
    assert (code, out) == (0, want)
    code, out, _ = run(capsys, "fig5", "--n-min", "2", "--n-max", "5", "--max-elements", str(cap))
    assert (code, out) == (0, want_fig5)
    code, out, _ = run(capsys, "bounds", "--powerset", "--n-min", "2", "--n-max", "7", "-d", "3",
                       "--window", "1", "2", "--max-elements", str(cap))
    assert (code, out) == (0, want_powerset)


def test_projective_commands_above_q7(capsys):
    code, out, _ = run(capsys, "check", "--projective", "-n", "1", "-q", "11")
    assert code == 0
    assert "elements: 2\n" in out and "whitney: 1,1\n" in out
    code, out, _ = run(capsys, "check", "--projective", "-n", "2", "-q", "11")
    assert code == 0
    assert "whitney: 1,12,1\n" in out and "modular: true\n" in out
    code, out, _ = run(capsys, "bounds", "--projective", "-q", "11", "-n", "2", "-d", "2")
    assert code == 0
    # 14 elements; the largest radius-1 ball (around the bottom or the top) has 13.
    assert out.split("\n")[1] == "projective,11,2,2,,,14,3.8074,2,1.0000,"
    code, out, _ = run(capsys, "search", "--projective", "-n", "2", "-q", "11", "-d", "2",
                       "--window", "1", "1")
    assert code == 0
    res = json.loads(out)
    assert res["best_size"] == 12 and res["sandwich"] == "PASS"
    assert res["scheme"][:2] == ["1,0", "1,1"] and res["scheme"][-1] == "0,1"


def test_bounds_needs_family(capsys):
    code, _, err = run(capsys, "bounds", "-n", "4", "-d", "3")
    assert code == 2


@pytest.mark.parametrize("sources", [("--powerset", "--projective"), ("--lattice", "F.json", "--powerset")])
def test_bounds_needs_exactly_one_source(capsys, tmp_path, monkeypatch, sources):
    # two sources are an input error, not a table of whichever comes first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.json").write_text(to_json(build_powerset_lattice(3)))
    code, out, err = run(capsys, "bounds", *sources, "-n", "3", "-d", "2")
    assert code == 2 and out == ""
    assert err == "error: pick exactly one of --powerset, --projective, --lattice\n"


def test_bounds_rejects_conflicting_d(capsys):
    code, _, err = run(
        capsys, "bounds", "--powerset", "-n", "4", "-d", "3", "--d-min", "1", "--d-max", "2"
    )
    assert code == 2


def bounds_row(capsys, *argv):
    """The single CSV row of a bounds command, as a dict of its cells."""
    code, out, _ = run(capsys, "bounds", *argv)
    assert code == 0
    header, row = out.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("source", [("--powerset", "-n", "5", "-d", "3"),
                                    ("--projective", "-n", "4", "-d", "4")])
def test_bounds_window_applies_to_family_gv(capsys, source):
    # two atoms are at distance 2, so the best scheme in height 1 is one atom
    row = bounds_row(capsys, *source, "--window", "1", "1")
    assert (row["lsb"], row["gv_lower"]) == ("1", "1")


def test_bounds_windowed_powerset_row_takes_windowed_budget(capsys):
    # with a window the power set is punctured floor((d-1)/2) = 2 times, not d-1 = 4
    row = bounds_row(capsys, "--powerset", "-n", "3", "-d", "5", "--window", "2", "3")
    assert (row["lsb"], row["gv_lower"]) == ("2", "1")


def test_bounds_window_blanks_family_gv_over_cap(capsys):
    # a windowed power-set cell needs 2^[8], which is over the default cap
    row = bounds_row(capsys, "--powerset", "-n", "8", "-d", "3", "--window", "1", "1")
    assert (row["lsb"], row["gv_lower"]) == ("1", "")


def test_bounds_window_applies_to_lattice_lsb(capsys, tmp_path):
    path = tmp_path / "p5.json"
    path.write_text(to_json(build_powerset_lattice(5)))
    row = bounds_row(capsys, "--lattice", str(path), "-d", "3", "--window", "1", "1")
    assert (row["lsb"], row["gv_lower"]) == ("1", "1")
    code, out, _ = run(capsys, "search", "--lattice", str(path), "-d", "3", "--window", "1", "1")
    assert code == 0
    assert json.loads(out)["bound"] == 1


@pytest.mark.parametrize("source", [("--powerset", "-n", "5"), ("--projective", "-n", "4"),
                                    ("--lattice", "sub3.json")])
def test_bounds_windowed_rows_are_consistent(capsys, tmp_path, monkeypatch, source):
    """gv_lower <= lsb on every row, degenerate windows (M < alpha) included."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub3.json").write_text(to_json(fq.build_projective_lattice(3, 2)))
    top = 3 if source[0] == "--lattice" else int(source[2])
    for m in range(top + 1):
        for M in range(m, top + 1):
            code, out, _ = run(capsys, "bounds", *source, "--d-min", "1", "--d-max", "5",
                               "--window", str(m), str(M))
            assert code == 0
            for line in out.strip().split("\n")[1:]:
                cells = line.split(",")
                lsb_v, gv = int(cells[6]), int(cells[8])
                assert gv <= lsb_v, line


# --- fig5 ----------------------------------------------------------------------------


def test_fig5_default_row_count(capsys):
    code, out, _ = run(capsys, "fig5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,lsb_log2,gv_lower_log2"
    assert len(lines) == 1 + 17  # n from 4 to 20


def test_fig5_byte_stable(capsys):
    _, first, _ = run(capsys, "fig5", "--n-min", "4", "--n-max", "8")
    _, second, _ = run(capsys, "fig5", "--n-min", "4", "--n-max", "8")
    assert first == second


def test_fig5_renders_each_row_before_the_next(capsys, monkeypatch):
    # a row's exact bound is dropped once its log2 cells are made, so a long
    # table holds one exact value at a time, not one per row
    events = []
    lsb, log2 = bnd.lsb, bnd.log2_string
    monkeypatch.setattr(bnd, "lsb", lambda family, n, *args: events.append(n) or lsb(family, n, *args))
    monkeypatch.setattr(bnd, "log2_string", lambda v: events.append("cell") or log2(v))
    code, out, _ = run(capsys, "fig5", "--n-min", "4", "--n-max", "6")
    assert code == 0 and len(out.splitlines()) == 4
    assert events == [4, "cell", "cell", 5, "cell", "cell", 6, "cell", "cell"]


def test_fig5_writes_plot_script(capsys, tmp_path):
    out_csv = tmp_path / "fig5.csv"
    code, _, err = run(capsys, "fig5", "--n-min", "4", "--n-max", "6", "-o", str(out_csv))
    assert code == 0
    assert out_csv.exists()
    script = tmp_path / "fig5.plot.py"
    assert script.exists()
    text = script.read_text()
    assert "matplotlib" in text
    assert str(out_csv) in text


def test_fig5_skips_rows_that_do_not_fit_n(capsys):
    # like bounds: the chain Sub(F_2^1) takes alpha = 5, which does not fit
    # n = 1, so that row is skipped, not an error
    code, out, err = run(capsys, "fig5", "--n-min", "1", "--n-max", "5", "-d", "6")
    assert code == 0
    assert err == "warning: skipping n=1 d=6 (puncture budget 5 exceeds lattice height 1)\n"
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["2", "3", "4", "5"]


def test_fig5_rejects_inverted_range(capsys):
    code, out, err = run(capsys, "fig5", "--n-min", "5", "--n-max", "4")
    assert code == 2 and out == ""
    assert err == "error: --n-min 5 is above --n-max 4\n"


@pytest.mark.parametrize("argv, error", [
    (("--n-min", "3", "--n-max", "2", "-d", "2"), "--n-min 3 is above --n-max 2"),
    (("-n", "3", "--d-min", "3", "--d-max", "2"), "--d-min 3 is above --d-max 2"),
    (("--n-min", "3", "-d", "2"), "need -n or a valid --n-min/--n-max range"),
    (("-n", "3", "--d-max", "2"), "need -d or a valid --d-min/--d-max range"),
])
def test_bounds_range_errors_name_the_fault(capsys, argv, error):
    assert run(capsys, "bounds", "--powerset", *argv) == (2, "", f"error: {error}\n")


def test_fig5_writes_no_file_without_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "fig5", "--n-min", "4", "--n-max", "5")
    assert code == 0 and out.startswith("n,lsb_log2,gv_lower_log2\n") and err == ""
    with pytest.raises(SystemExit) as exc:  # a script goes only next to -o
        main(["fig5", "--n-min", "4", "--n-max", "5", "--plot-script", "fig5.plot.py"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("cap", [None, "400"])
def test_fig5_is_the_projective_bounds_table(capsys, q, cap):
    """fig5's CSV and warnings are the log2 columns and warnings of
    `bounds --projective` at each d."""
    cap_args = ("--max-elements", cap) if cap else ()
    code, table, table_err = run(capsys, "bounds", "--projective", "-q", str(q), "--n-min", "1",
                                 "--n-max", "7", "--d-min", "1", "--d-max", "6", *cap_args)
    assert code == 0
    cells = [line.split(",") for line in table.strip().split("\n")[1:]]
    for d in range(1, 7):
        code, out, err = run(capsys, "fig5", "-q", str(q), "-d", str(d), "--n-min", "1",
                             "--n-max", "7", *cap_args)
        assert code == 0
        want = [f"{c[2]},{c[7]},{c[9]}" for c in cells if c[3] == str(d)]
        assert out == "\n".join(["n,lsb_log2,gv_lower_log2"] + want) + "\n", d
        assert err.splitlines() == [w for w in table_err.splitlines() if f" d={d} " in w], d


def test_fig5_overlay(capsys, tmp_path):
    overlay = tmp_path / "mine.csv"
    overlay.write_text("label,n,log2size\nmine,4,3.5\nmine,6,7.25\n")
    code, out, _ = run(
        capsys, "fig5", "--n-min", "4", "--n-max", "6", "--overlay", str(overlay)
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,lsb_log2,gv_lower_log2,mine"
    assert lines[1].endswith(",3.5")
    assert lines[2].endswith(",")  # n=5 has no overlay point
    assert lines[3].endswith(",7.25")


def test_fig5_overlay_malformed(capsys, tmp_path):
    overlay = tmp_path / "bad.csv"
    overlay.write_text("wrong,header\n")
    code, _, err = run(capsys, "fig5", "--overlay", str(overlay))
    assert code == 2
    overlay.write_text("label,n,log2size\nmine,notanint,1\n")
    code, _, err = run(capsys, "fig5", "--overlay", str(overlay))
    assert code == 2
    overlay.write_text("label,n,log2size\nmine,6\n")
    assert run(capsys, "fig5", "--overlay", str(overlay)) == (2, "", "error: bad overlay row: 'mine,6'\n")


# --- scheme --------------------------------------------------------------------------


def write_scheme(tmp_path, text, name="s.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_scheme_mindist_binary(capsys, tmp_path):
    path = write_scheme(tmp_path, "1100\n0011\n1111\n")
    code, out, _ = run(capsys, "scheme", "mindist", path)
    assert code == 0
    assert "size: 3" in out
    assert "min_distance: 2" in out


def test_scheme_mindist_projective(capsys, tmp_path):
    path = write_scheme(tmp_path, "q=2 n=3\n100/010\n010/001\n")
    code, out, _ = run(capsys, "scheme", "mindist", path)
    assert code == 0
    assert "min_distance: 2" in out


def test_scheme_mindist_singleton_exit(capsys, tmp_path):
    path = write_scheme(tmp_path, "q=2 n=3\n100/010\n")
    code, _, err = run(capsys, "scheme", "mindist", path)
    assert code == 2
    assert "undefined minimum distance" in err


def test_scheme_puncture(capsys, tmp_path):
    path = write_scheme(tmp_path, "q=2 n=3\n100/010\n101/010\n")
    code, out, _ = run(capsys, "scheme", "puncture", path, "--w", "010/001")
    assert code == 0
    assert "before: size=2 d=2" in out
    assert "after:  size=1 d=0" in out
    assert "drop: 2" in out


def test_scheme_puncture_project(capsys, tmp_path):
    path = write_scheme(tmp_path, "q=2 n=3\n100/001\n010/001\n")
    code, out, _ = run(
        capsys, "scheme", "puncture-project", path, "--w", "100/001", "--policy", "least"
    )
    assert code == 0
    assert "after:  size=2" in out
    assert "policy: least" in out


def test_scheme_puncture_project_seeded(capsys, tmp_path):
    path = write_scheme(tmp_path, "q=2 n=3\n100/001\n010/001\n")
    args = (
        "scheme", "puncture-project", path,
        "--w", "100/001", "--policy", "random", "--seed", "11",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_scheme_puncture_needs_w(capsys, tmp_path):
    path = write_scheme(tmp_path, "11\n00\n")
    code, _, err = run(capsys, "scheme", "puncture", path)
    assert code == 2


def test_scheme_binary_w_wrong_width(capsys, tmp_path):
    """A bad element fails the same way as --w and as a scheme-file line."""
    path = write_scheme(tmp_path, "1100\n0011\n")
    code, _, err = run(capsys, "scheme", "puncture", path, "--w", "11")
    assert code == 2
    assert err == "error: bad element '11' (need 4 binary digits)\n"
    path = write_scheme(tmp_path, "1100\n11\n", name="bad.txt")
    assert run(capsys, "scheme", "mindist", path) == (2, "", err)


def test_scheme_bad_header_is_a_bad_line(capsys, tmp_path, monkeypatch):
    # a mistyped header is reported as itself, before any lattice is built,
    # not read as the first row of a power-set file
    def no_build(*args, **kwargs):
        raise AssertionError("lattice built for a bad header")

    monkeypatch.setattr(sch, "build_powerset_lattice", no_build)
    monkeypatch.setattr(sch, "build_projective_lattice", no_build)
    path = write_scheme(tmp_path, "q=2 n =4\n1000\n")
    code, out, err = run(capsys, "scheme", "mindist", path)
    assert (code, out) == (2, "")
    assert err == "error: bad first line 'q=2 n =4' (need a 'q=<q> n=<n>' header or binary digits)\n"


@pytest.mark.parametrize("text, first, second", [
    ("q=2 n=3\n110/011\n101/011\n100\n", "110/011", "101/011"),  # two bases of one plane
    ("0011\n0101\n0011\n", "0011", "0011"),
])
def test_scheme_listing_one_element_twice_is_refused(capsys, tmp_path, text, first, second):
    # a code with a repeated word has distance 0; the file is not merged
    path = write_scheme(tmp_path, text)
    code, out, err = run(capsys, "scheme", "mindist", path)
    assert (code, out) == (2, "")
    assert err == f"error: scheme lists one element twice: {first!r} and {second!r}\n"


def test_scheme_has_no_as_code_flag(capsys, tmp_path):
    path = write_scheme(tmp_path, "1100\n0011\n")
    with pytest.raises(SystemExit) as exc:
        main(["scheme", "mindist", path, "--as-code"])
    assert exc.value.code == 2
    assert "--as-code" in capsys.readouterr().err


# --- search --------------------------------------------------------------------------


def test_search_json(capsys):
    code, out, _ = run(
        capsys, "search", "--projective", "-n", "4", "-d", "4", "--window", "2", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["best_size"] == 5
    assert obj["proven_optimal"] is True
    assert obj["bound"] == 7
    assert obj["gv_lower"] <= obj["best_size"] <= obj["bound"]
    assert obj["sandwich"] == "PASS"
    assert len(obj["scheme"]) == 5


def test_search_budget_exhausted_exit(capsys):
    # greedy stalls at 2 on this lattice, so a 1-node budget cannot finish
    code, out, _ = run(capsys, "search", "--name", "N5", "-d", "2", "--budget-nodes", "1")
    assert code == 3
    obj = json.loads(out)
    assert obj["proven_optimal"] is False
    assert obj["best_size"] == 2
    assert obj["nodes"] == 1


def test_search_starts_from_best_level(capsys):
    # height order takes the 31 points, which block every line; the line
    # level alone holds all 155 lines, the optimum, before the first node
    code, out, _ = run(capsys, "search", "--projective", "-n", "5", "-d", "2", "--window", "1", "2",
                       "--budget-nodes", "1", "--max-elements", "400")
    assert code == 3
    obj = json.loads(out)
    assert obj["best_size"] == 155
    lat = fq.build_projective_lattice(5, 2, 400)
    ids = {nm: x for x, nm in enumerate(lat.names)}
    members = {ids[nm] for nm in obj["scheme"]}
    assert len(members) == 155
    assert min_distance(make_scheme(lat, members)) >= 2


def test_search_budget_stop_skips_sandwich(capsys, monkeypatch, tmp_path):
    # a JSON copy: the family lattice would be proven at the root
    path = tmp_path / "sub42.json"
    path.write_text(to_json(fq.build_projective_lattice(4, 2)))
    argv = ("search", "--lattice", str(path), "-d", "4", "--window", "2", "2",
            "--budget-nodes", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    obj = json.loads(out)
    assert obj["proven_optimal"] is False
    assert obj["sandwich"] == "SKIPPED (search not proven)"
    # a best size above the upper bound is a bug whatever the budget
    monkeypatch.setattr("lattice_sb.bounds.lsb_for_lattice", lambda *a: obj["best_size"] - 1)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["sandwich"] == "FAIL"


def test_search_budget_secs_exit(capsys, tmp_path):
    # the clock is read every 4096 nodes; the full search needs 17,700.  A
    # JSON copy: the family lattice would be proven at the root by its
    # anticode bound, and the copy's packing cap (28) is above the optimum 16.
    path = tmp_path / "pow8.json"
    path.write_text(to_json(build_powerset_lattice(8, max_elements=400)))
    code, out, _ = run(capsys, "search", "--lattice", str(path), "-d", "4", "--max-elements", "400",
                       "--budget-secs", "1e-9")
    assert code == 3
    obj = json.loads(out)
    assert obj["proven_optimal"] is False
    assert obj["nodes"] == 4096


def test_search_json_copy_is_not_certified(capsys, tmp_path):
    # the family lattice is proven at the root by its anticode bound; its
    # JSON copy carries no family, and its packing cap (35: no two lines lie
    # at distance 1) is far above the optimum 5, so it searches the whole
    # tree for the same result
    source = ("--projective", "-n", "4", "-d", "4", "--window", "2", "2")
    code, out, _ = run(capsys, "search", *source)
    assert code == 0
    family = json.loads(out)
    assert family["nodes"] == 0
    lat = fq.build_projective_lattice(4, 2)
    path = tmp_path / "sub42.json"
    path.write_text(to_json(lat))
    code, out, _ = run(capsys, "search", "--lattice", str(path), *source[3:])
    assert code == 0
    copy = json.loads(out)
    full = max_code(SearchProblem(build_lattice(lat.names, lat.covers), 4, (2, 2)))
    assert copy["nodes"] == full.nodes > 0
    assert {**copy, "nodes": 0} == family


@pytest.mark.parametrize("flag,value", [("--budget-secs", "0"), ("--budget-secs", "-1"),
                                        ("--budget-nodes", "-5")])
def test_search_rejects_bad_budget(capsys, flag, value):
    code, out, err = run(capsys, "search", "--projective", "-n", "4", "-d", "4",
                         "--window", "2", "2", flag, value)
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize("source", [("--projective", "-n", "4", "-d", "4", "--window", "0", "0"),
                                    ("--powerset", "3", "-d", "5", "--window", "0", "1")])
def test_search_degenerate_window_sandwich(capsys, source):
    # the window lies below alpha, so the bound is 1, the proven optimum
    code, out, _ = run(capsys, "search", *source)
    assert code == 0
    obj = json.loads(out)
    assert (obj["best_size"], obj["bound"], obj["sandwich"]) == (1, 1, "PASS")


def test_search_named_lattice(capsys):
    code, out, _ = run(capsys, "search", "--name", "N5", "-d", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["sandwich"].startswith("SKIPPED")


def test_search_named_window_bound(capsys):
    code, out, _ = run(capsys, "search", "--name", "M3", "-d", "2", "--window", "1", "1")
    assert code == 0
    obj = json.loads(out)
    assert (obj["best_size"], obj["bound"], obj["sandwich"]) == (3, 3, "PASS")


def test_search_rejects_window_above_height(capsys):
    code, out, err = run(capsys, "search", "--projective", "-n", "4", "-d", "4",
                         "--window", "2", "9")
    assert code == 2 and out == ""
    assert "need 0 <= m <= M <= n" in err


@pytest.mark.parametrize("source", [("--lattice", "p3.json", "--window", "0", "99"),
                                    ("--powerset", "3", "--window", "0", "9"),
                                    ("--name", "N5", "--window", "0", "9"),
                                    ("--projective", "-n", "3", "--window", "2", "1")])
def test_search_checks_window_before_searching(capsys, tmp_path, monkeypatch, source):
    # every source, whether it has a family, an anticode bound or a modular bound
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p3.json").write_text(to_json(build_powerset_lattice(3)))

    def no_graph(lat, d, ids):
        raise AssertionError("distance graph built for an invalid window")

    monkeypatch.setattr(srch, "_build_graph", no_graph)
    code, out, err = run(capsys, "search", *source, "-d", "2")
    assert code == 2 and out == ""
    assert err == "error: need 0 <= m <= M <= n\n"


def test_search_projective_line_is_a_chain(capsys):
    # Sub(F_q^1) is a 2-chain: distributive, so d - 1 punctures, in search
    # and in bounds alike
    code, out, _ = run(capsys, "search", "--projective", "-n", "1", "-d", "2")
    assert code == 0
    assert json.loads(out)["bound"] == 1
    code, _, err = run(capsys, "search", "--projective", "-n", "1", "-d", "3")
    assert code == 2
    assert "exceeds lattice height" in err
    code, out, _ = run(capsys, "bounds", "--projective", "-n", "1", "-d", "2")
    assert (code, out.split("\n")[1]) == (0, "projective,2,1,2,,,1,0.0000,1,0.0000,")
    code, out, err = run(capsys, "bounds", "--projective", "-n", "1", "-d", "3")
    assert (code, out) == (0, BOUND_CSV_HEADER + "\n")
    assert err == "warning: skipping n=1 d=3 (puncture budget 2 exceeds lattice height 1)\n"


def test_search_powerset_window_sandwich(capsys):
    code, out, _ = run(capsys, "search", "--powerset", "4", "-d", "2", "--window", "2", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["best_size"] == 6
    assert obj["bound"] == 6
    assert obj["sandwich"] == "PASS"


@pytest.mark.parametrize("n,q,d,window", [(5, 2, 2, (1, 2)), (4, 3, 2, (1, 2)), (4, 3, 4, (2, 2)),
                                           (8, None, 4, None), (4, None, 3, (1, 3))])
def test_search_family_gv_is_the_built_lattices(capsys, monkeypatch, n, q, d, window):
    # a family search takes gv_lower from the closed form, with no pass over
    # the window, and it equals the pass on the lattice it searched
    if q is None:
        lat = build_powerset_lattice(n, 400)
        source = ("--powerset", str(n))
    else:
        lat = fq.build_projective_lattice(n, q, 400)
        source = ("--projective", "-n", str(n), "-q", str(q))
    want = gv_lower_for_lattice(lat, d, window)

    def no_pass(*args):
        raise AssertionError("GV pass over a family lattice")

    monkeypatch.setattr(bnd, "gv_lower_for_lattice", no_pass)
    argv = source + ("-d", str(d), "--max-elements", "400", "--budget-nodes", "1")
    code, out, _ = run(capsys, "search", *argv, *(("--window", *map(str, window)) if window else ()))
    assert code in (0, 3)
    assert json.loads(out)["gv_lower"] == want


def test_search_line_packing_of_pg52_builds_no_lattice(capsys, monkeypatch):
    # A_2(6,4;2) = 21: greedy meets the anticode cap 651 / 31 = 21 at the
    # root, read off the 651 lines' point masks; no Lattice is built, by any
    # module that holds the constructor
    def no_build(*args, **kwargs):
        raise AssertionError("lattice built for a family search")

    for mod in [m for name, m in sys.modules.items() if name.startswith("lattice_sb")]:
        for attr, value in list(vars(mod).items()):
            if value is build_lattice:
                monkeypatch.setattr(mod, attr, no_build)
    code, out, _ = run(capsys, "search", "--projective", "-n", "6", "-q", "2", "-d", "4",
                       "--window", "2", "2", "--max-elements", "3000")
    assert code == 0
    obj = json.loads(out)
    assert (obj["best_size"], obj["proven_optimal"], obj["nodes"]) == (21, True, 0)
    assert (obj["bound"], obj["sandwich"]) == (lsb("projective", 6, 4, 2, (2, 2)), "PASS")
    lines = [fq.subspace_from_text(nm, 6, 2) for nm in obj["scheme"]]
    assert len(set(lines)) == 21 and all(s.dim == 2 for s in lines)
    assert all(subspace_intersect(a, b).dim == 0 for i, a in enumerate(lines) for b in lines[i + 1:])


def test_search_json_lattice_takes_the_gv_pass(capsys, monkeypatch, tmp_path):
    path = tmp_path / "pow4.json"
    path.write_text(to_json(build_powerset_lattice(4)))
    calls = []
    real = bnd.gv_lower_for_lattice
    monkeypatch.setattr(bnd, "gv_lower_for_lattice",
                        lambda *args: calls.append(args[1:]) or real(*args))
    code, out, _ = run(capsys, "search", "--lattice", str(path), "-d", "3", "--window", "1", "3")
    assert code == 0
    assert calls == [(3, (1, 3))]
    assert json.loads(out)["gv_lower"] == gv_lower_for_lattice(build_powerset_lattice(4), 3, (1, 3))


@pytest.mark.parametrize("command", [("check",), ("search", "-d", "2")])
def test_powerset_size_both_spellings(capsys, command):
    a = run(capsys, *command, "--powerset", "3")
    b = run(capsys, *command, "--powerset", "-n", "3")
    assert a[0] == 0 and a == b
    for extra in (("--powerset",), ("--powerset", "3", "-n", "3")):
        code, out, err = run(capsys, *command, *extra)
        assert code == 2 and out == ""
        assert "--powerset" in err
    assert run(capsys, *command, "--projective") == (2, "", "error: --projective needs -n\n")


# --- export-dot ----------------------------------------------------------------------


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "--name", "N5")
    assert code == 0
    assert out.startswith("digraph")
    assert '"u"' in out


def test_export_dot_to_file(capsys, tmp_path):
    path = tmp_path / "n5.dot"
    code, _, _ = run(capsys, "export-dot", "--name", "N5", "-o", str(path))
    assert code == 0
    assert path.read_text().startswith("digraph")


# --- parser --------------------------------------------------------------------------

SOURCE_OPTIONS = ["--name", "--powerset", "--projective", "-q", "-n", "--lattice"]
COMMAND_OPTIONS = {  # after --help, --output and --max-elements, in the order -h lists them
    "check": SOURCE_OPTIONS,
    "bounds": ["--powerset", "--projective", "--lattice", "-q", "-n", "--n-min", "--n-max", "-d",
               "--d-min", "--d-max", "--window"],
    "fig5": ["-q", "-d", "--n-min", "--n-max", "--overlay"],
    "scheme": ["action", "file", "--w", "--policy", "--seed"],
    "search": SOURCE_OPTIONS + ["-d", "--window", "--budget-nodes", "--budget-secs"],
    "export-dot": SOURCE_OPTIONS,
}


def subparsers(parser):
    """Subcommand -> its parser, in a parser made by cli._build_parser."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options(parser):
    return [a.option_strings[-1] if a.option_strings else a.dest for a in parser._actions]


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_subcommand_help_lists_the_same_options(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    full = subparsers(cli._build_parser())[command]
    assert capsys.readouterr().out == full.format_help()
    assert options(full) == ["--help", "--output", "--max-elements"] + COMMAND_OPTIONS[command]


@pytest.mark.parametrize("argv", [[c, "-h"] for c in COMMAND_OPTIONS] + [[], ["-h"], ["nope"], ["--", "check"]],
                         ids=lambda argv: " ".join(argv) or "no-args")
def test_only_the_named_subcommand_gets_its_options(argv):
    # every subcommand stays registered, so the top-level help and the
    # invalid-choice error name all six
    parsers = subparsers(cli._build_parser(argv))
    assert list(parsers) == list(COMMAND_OPTIONS)
    named = argv[0] if argv and argv[0] in COMMAND_OPTIONS else None
    for command, parser in parsers.items():
        want = ["--help", "--output", "--max-elements"] + COMMAND_OPTIONS[command]
        assert options(parser) == (want if named in (None, command) else []), command


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argv; it must parse sys.argv
    seen = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv=(): seen.append(list(argv)) or build(argv))
    monkeypatch.setattr(sys, "argv", ["lattice-sb", "check", "--name", "M3"])
    assert main() == 0
    assert "elements: 5" in capsys.readouterr().out
    assert seen == [["check", "--name", "M3"]]
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert all(command in err for command in COMMAND_OPTIONS)


# --- module entry --------------------------------------------------------------------


def test_cli_import_skips_dataclasses():
    """The command line's import graph stays free of dataclasses and inspect,
    which cost start-up time in every process."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lattice_sb.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importtime_lists_the_modules_cli_imports():
    # -X importtime does not time the imports made by the package's lazy
    # __getattr__, so cli must import these three itself
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lattice_sb.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"lattice_sb.bounds", "lattice_sb.schemes", "lattice_sb.search", "lattice_sb.cli"} <= listed


@pytest.mark.parametrize("command", [("check",), ("search", "-d", "1")])
def test_a_large_field_costs_neither_memory_nor_time(command):
    # Sub(F_q^1) has two elements and one point, whatever q is
    resource = pytest.importorskip("resource")

    def limit_memory():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sb", command[0], "--projective", "-n", "1", "-q", "1000000007",
         *command[1:]],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 2


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sb", "check", "--name", "M3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "elements: 5" in proc.stdout
