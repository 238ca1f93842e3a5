"""The package surface: what the root exports, what it no longer offers, and
the README's library example."""

import ast
import contextlib
import io
import pathlib
import re

import pytest

import lattice_sb
from lattice_sb import Lattice, bounds, counting, fq

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
    tree = ast.parse(pathlib.Path(lattice_sb.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_all_is_what_init_imports():
    names = lattice_sb.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(_init_imports())
    for name in names:
        assert getattr(lattice_sb, name) is not None, name


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
