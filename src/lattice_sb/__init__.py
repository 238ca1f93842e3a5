"""Finite-lattice coding workbench.

Build and validate finite lattices, classify them (modular, distributive,
geometric, Jordan-Dedekind), measure height-based distances between scheme
members, evaluate Singleton-type upper bounds and GV-type lower bounds, and
search exhaustively for maximum schemes.

`import lattice_sb` loads the core only: counting, fq and lattice, which
build and classify both families and every other lattice.  The names of
bounds, schemes and search are root exports too, but each of those modules
loads on the first access to one of its names (or to the module itself).

Each root export is written once: a core one in its module's import block
below, a lazy one in `_LAZY_MODULES`.  `__all__` is made from the two.
"""

import types as _types

from .counting import binomial, gaussian, whitney, whitney_row
from .fq import (
    NAMED_LATTICES,
    FamilyWindow,
    Subspace,
    all_subspaces,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    enumerate_grassmannian,
    family_window,
    rref,
    subspace_from_text,
    subspace_to_text,
)
from .lattice import (
    CapExceeded,
    Lattice,
    LatticeError,
    NotALatticeError,
    build_lattice,
    classify,
    from_json,
    sublattice_closure,
    to_dot,
    to_json,
    window_ids,
    with_names,
)

# Root exports whose module loads on first use (PEP 562): module -> names.
_LAZY_MODULES = {
    "bounds": (
        "BOUND_CSV_HEADER",
        "BoundReport",
        "anticode_bound",
        "classical_singleton",
        "family_gv_values",
        "gv_lower",
        "gv_lower_for_lattice",
        "gv_lower_values",
        "kks_bound",
        "log2_string",
        "lsb",
        "lsb_for_lattice",
        "lsb_values",
        "lsb_windowed",
        "puncture_budget",
        "render_report_csv",
    ),
    "schemes": (
        "Scheme",
        "TransformWitness",
        "lifting_transform",
        "make_scheme",
        "min_distance",
        "parse_scheme_text",
        "puncture",
        "puncture_project",
        "punctured_distance",
        "scheme_to_text",
        "support_transform",
        "verify_transform",
    ),
    "search": ("SearchProblem", "SearchResult", "greedy_code", "max_code"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    """Load a lazy root export, or one of its modules, and keep it here."""
    # not __import__: with it, survey's peak RSS rose 0.23% (BENCH_23.json)
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})


__version__ = "0.1.0"

# The public names bound above, less the submodules that the imports bind.
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _types.ModuleType)} | set(_LAZY))
