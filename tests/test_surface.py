"""The package surface: what the root exports, what a command loads, what it
no longer offers, and the README's library example."""

import ast
import contextlib
import importlib
import io
import pathlib
import re
import subprocess
import sys

import pytest

import lattice_sb
from lattice_sb import Lattice, bounds, counting, fq, lattice

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Second implementations that only tests called; they live in tests/oracles.py.
MOVED = {
    counting: ["gaussian_pascal"],
    fq: ["reduce_vector", "contains_vector", "subspace_leq", "_check_same_space", "subspace_sum",
         "subspace_intersect", "rank", "zero_subspace", "full_space"],
    Lattice: ["is_valuation", "is_isotone", "is_positive_isotone", "_check_valuation_len"],
    bounds: ["projective_singleton"],  # lsb("projective", n, d, q)
}
ROOT_REMOVED = ["gaussian_pascal", "subspace_intersect", "subspace_leq", "subspace_sum",
                "projective_singleton"]


def _init_imports() -> list[str]:
    """The names __init__ imports eagerly, plus those its lazy table lists."""
    tree = ast.parse(pathlib.Path(lattice_sb.__file__).read_text())
    eager = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    return eager + list(lattice_sb._LAZY)


def test_all_is_what_init_imports():
    names = lattice_sb.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(_init_imports())
    for name in names:
        assert getattr(lattice_sb, name) is not None, name
    star = {}
    exec("from lattice_sb import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def _loaded_after(code: str) -> list[str]:
    """The lattice_sb modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'lattice_sb'))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


CORE = ["lattice_sb", "lattice_sb.counting", "lattice_sb.fq", "lattice_sb.lattice"]


def test_import_loads_only_the_core():
    assert _loaded_after("import lattice_sb") == CORE
    assert _loaded_after("from lattice_sb import fq, lattice") == CORE


def test_a_lazy_name_loads_its_module_on_first_use():
    assert "lattice_sb.search" in _loaded_after("from lattice_sb import max_code")
    assert "lattice_sb.bounds" in _loaded_after("import lattice_sb\nlattice_sb.lsb")
    assert "lattice_sb.schemes" in _loaded_after("import lattice_sb\nlattice_sb.schemes.puncture")


# Runs `python -m lattice_sb` with the arguments after the first, or nothing
# without them, and writes the modules held at exit to the file first named.
MODULES_AT_EXIT = """
import atexit, runpy, sys
out, args = sys.argv[1], sys.argv[2:]
def dump():
    with open(out, "w") as fh:
        fh.write(repr(sorted(sys.modules)))
atexit.register(dump)
if args:
    sys.argv = ["lattice_sb", *args]
    runpy.run_module("lattice_sb", run_name="__main__", alter_sys=True)
"""


def _modules_at_exit(out: pathlib.Path, *args: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", MODULES_AT_EXIT, str(out), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(out.read_text()))


@pytest.fixture(scope="module")
def bare_modules(tmp_path_factory):
    return _modules_at_exit(tmp_path_factory.mktemp("bare") / "modules.txt")


@pytest.mark.parametrize("args", [
    ("check", "--name", "M3"),
    ("bounds", "--powerset", "-n", "4", "-d", "2"),
    ("fig5", "-o", "{tmp}/fig5.csv"),
    ("scheme", "mindist", "{tmp}/code.txt"),
    ("search", "--powerset", "-n", "3", "-d", "2"),
], ids=lambda args: args[0])
def test_start_up_skips_heapq_and_json(args, bare_modules, tmp_path):
    # of these commands only search loads json, to write its report
    (tmp_path / "code.txt").write_text("0011\n0101\n1110\n")
    args = [a.format(tmp=tmp_path) for a in args]
    added = _modules_at_exit(tmp_path / "modules.txt", *args) - bare_modules
    assert "lattice_sb.cli" in added
    assert "heapq" not in added
    assert ("json" in added) == (args[0] == "search")


@pytest.mark.parametrize("name", lattice_sb.__all__)
def test_every_root_export_is_its_module_object(name):
    lazy = lattice_sb._LAZY.get(name)
    owners = [importlib.import_module(f"lattice_sb.{lazy}")] if lazy else [counting, fq, lattice]
    owner = next(m for m in owners if name in vars(m))
    assert getattr(lattice_sb, name) is vars(owner)[name]
    assert name in vars(lattice_sb)  # resolved once, then kept


def test_dir_lists_every_export_and_unknown_names_raise():
    assert set(lattice_sb.__all__) <= set(dir(lattice_sb))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lattice_sb.no_such_name  # noqa: B018
    assert not hasattr(lattice_sb, "no_such_name")


@pytest.mark.parametrize("owner, name", [(lattice_sb, nm) for nm in ROOT_REMOVED]
                         + [(owner, nm) for owner, names in MOVED.items() for nm in names])
def test_moved_and_deleted_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split("\n") == ["16", "5 True", ""]
