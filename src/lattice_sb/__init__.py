"""Finite-lattice coding workbench.

Build and validate finite lattices, classify them (modular, distributive,
geometric, Jordan-Dedekind), measure height-based distances between scheme
members, evaluate Singleton-type upper bounds and GV-type lower bounds, and
search exhaustively for maximum schemes.

`import lattice_sb` loads the core only: counting, fq and lattice, which
build and classify both families and every other lattice.  The names of
bounds, schemes and search are root exports too, but each of those modules
loads on the first access to one of its names (or to the module itself).
"""

from .counting import binomial, gaussian, whitney, whitney_closed_form
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

__all__ = [
    "BOUND_CSV_HEADER",
    "BoundReport",
    "CapExceeded",
    "FamilyWindow",
    "Lattice",
    "LatticeError",
    "NAMED_LATTICES",
    "NotALatticeError",
    "Scheme",
    "SearchProblem",
    "SearchResult",
    "Subspace",
    "TransformWitness",
    "all_subspaces",
    "anticode_bound",
    "binomial",
    "build_lattice",
    "build_named_lattice",
    "build_powerset_lattice",
    "build_projective_lattice",
    "classical_singleton",
    "classify",
    "enumerate_grassmannian",
    "family_gv_values",
    "family_window",
    "from_json",
    "gaussian",
    "greedy_code",
    "gv_lower",
    "gv_lower_for_lattice",
    "gv_lower_values",
    "kks_bound",
    "lifting_transform",
    "log2_string",
    "lsb",
    "lsb_for_lattice",
    "lsb_values",
    "lsb_windowed",
    "make_scheme",
    "max_code",
    "min_distance",
    "parse_scheme_text",
    "puncture",
    "puncture_budget",
    "puncture_project",
    "punctured_distance",
    "render_report_csv",
    "rref",
    "scheme_to_text",
    "sublattice_closure",
    "subspace_from_text",
    "subspace_to_text",
    "support_transform",
    "to_dot",
    "to_json",
    "verify_transform",
    "whitney",
    "whitney_closed_form",
    "window_ids",
    "with_names",
]
