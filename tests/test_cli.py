"""End-to-end command-line behavior: output shapes, exit codes, byte stability."""

import json
import subprocess
import sys

import pytest

from lattice_sb import build_powerset_lattice, to_json
from lattice_sb.cli import main


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


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--lattice", "/nonexistent/x.json")
    assert code == 2


def chain_json(length):
    names = [f"c{i}" for i in range(length)]
    return json.dumps({"elements": names, "covers": [[i, i + 1] for i in range(length - 1)]})


@pytest.mark.parametrize("command", [("check",), ("bounds", "-d", "2"), ("search", "-d", "2")])
def test_lattice_file_enforces_cap(capsys, tmp_path, monkeypatch, command):
    monkeypatch.delenv("LATTICE_SB_MAX_ELEMENTS", raising=False)
    path = tmp_path / "chain.json"
    path.write_text(chain_json(130))
    code, out, err = run(capsys, *command, "--lattice", str(path))
    assert code == 2 and out == ""
    assert "130 elements; cap is 128" in err
    code, _, _ = run(capsys, *command, "--lattice", str(path), "--max-elements", "130")
    assert code == 0


@pytest.mark.parametrize("source", ["env", "flag"])
def test_negative_cap_is_input_error(capsys, monkeypatch, source):
    argv = ["bounds", "--projective", "-q", "2", "--n-min", "3", "--n-max", "4",
            "--d-min", "2", "--d-max", "2"]
    if source == "env":
        monkeypatch.setenv("LATTICE_SB_MAX_ELEMENTS", "-1")
        named = "LATTICE_SB_MAX_ELEMENTS"
    else:
        monkeypatch.delenv("LATTICE_SB_MAX_ELEMENTS", raising=False)
        argv += ["--max-elements", "-1"]
        named = "--max-elements"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err and "must be >= 0" in err


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
    assert "window" in err


def test_bounds_needs_family(capsys):
    code, _, err = run(capsys, "bounds", "-n", "4", "-d", "3")
    assert code == 2


def test_bounds_rejects_conflicting_d(capsys):
    code, _, err = run(
        capsys, "bounds", "--powerset", "-n", "4", "-d", "3", "--d-min", "1", "--d-max", "2"
    )
    assert code == 2


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
    path = write_scheme(tmp_path, "1100\n0011\n")
    code, _, err = run(capsys, "scheme", "puncture", path, "--w", "11")
    assert code == 2


def test_scheme_as_code_rejects_header(capsys, tmp_path):
    path = write_scheme(tmp_path, "q=2 n=3\n100\n010\n")
    code, _, err = run(capsys, "scheme", "mindist", path, "--as-code")
    assert code == 2


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


def test_search_budget_stop_skips_sandwich(capsys, monkeypatch):
    argv = ("search", "--projective", "-n", "4", "-d", "4", "--window", "2", "2",
            "--budget-nodes", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    obj = json.loads(out)
    assert obj["proven_optimal"] is False
    assert obj["sandwich"] == "SKIPPED (search not proven)"
    # a best size above the upper bound is a bug whatever the budget
    monkeypatch.setattr("lattice_sb.bounds.lsb_windowed", lambda *a: obj["best_size"] - 1)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["sandwich"] == "FAIL"


def test_search_budget_secs_exit(capsys):
    # the clock is read every 4096 nodes; the full search needs about 8k
    code, out, _ = run(capsys, "search", "--powerset", "7", "-d", "3", "--budget-secs", "1e-9")
    assert code == 3
    obj = json.loads(out)
    assert obj["proven_optimal"] is False
    assert obj["nodes"] == 4096


def test_search_named_lattice(capsys):
    code, out, _ = run(capsys, "search", "--name", "N5", "-d", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["sandwich"].startswith("SKIPPED")


def test_search_powerset_window_sandwich(capsys):
    code, out, _ = run(capsys, "search", "--powerset", "4", "-d", "2", "--window", "2", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["best_size"] == 6
    assert obj["bound"] == 6
    assert obj["sandwich"] == "PASS"


@pytest.mark.parametrize("command", [("check",), ("search", "-d", "2")])
def test_powerset_size_both_spellings(capsys, command):
    a = run(capsys, *command, "--powerset", "3")
    b = run(capsys, *command, "--powerset", "-n", "3")
    assert a[0] == 0 and a == b
    for extra in (("--powerset",), ("--powerset", "3", "-n", "3")):
        code, out, err = run(capsys, *command, *extra)
        assert code == 2 and out == ""
        assert "--powerset" in err


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


# --- module entry --------------------------------------------------------------------


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_sb", "check", "--name", "M3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "elements: 5" in proc.stdout
