"""Singleton-type bounds for lattice schemes, ball volumes, GV-type lower bounds.

All bound values are exact integers.  The family variants (power-set,
projective) use closed-form Whitney sums and never materialize a lattice;
the explicit-lattice variant realizes the bound by repeated coatom
puncturing of the actual lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import FAMILIES, binomial, gaussian, whitney_closed_form
from .lattice import Lattice, sublattice_closure, window_ids


def puncture_budget(d: int, distributive: bool) -> int:
    """Number of punctures a scheme of min distance d survives: alpha.

    One puncture drops the distance by at most 1 on distributive lattices
    and at most 2 on modular ones (drop bound 1/beta with beta = 1/2), so
    alpha = d-1, respectively floor((d-1)/2).
    """
    if d < 1:
        raise ValueError("minimum distance must be >= 1")
    return d - 1 if distributive else (d - 1) // 2


def _check_family(family: str, q: int | None):
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if family == "projective" and q is None:
        raise ValueError("projective family needs q")


def lsb(family: str, n: int, d: int, q: int | None = None) -> int:
    """Scheme size bound: total element count of the alpha-times punctured lattice."""
    _check_family(family, q)
    if n < 0:
        raise ValueError("n must be >= 0")
    a = puncture_budget(d, family == "powerset")
    if a > n:
        raise ValueError(f"puncture budget {a} exceeds lattice height {n}")
    np = n - a
    return sum(whitney_closed_form(family, np, k, q) for k in range(np + 1))


def lsb_windowed(family: str, n: int, d: int, m: int, M: int, q: int | None = None) -> int:
    """Tighter bound for schemes confined to heights [m, M].

    Sums Whitney numbers of the punctured lattice for k in [m-alpha, M-alpha],
    clipped at 0 below; the formula value is reported verbatim.  The shifted
    window needs puncture-project, which lowers every member by exactly one
    height and the distance by at most 2, so alpha = floor((d-1)/2) for both
    families.  On the power set this is the constant-weight Singleton bound
    A(n, 2*delta, w) <= C(n-delta+1, w-delta+1).
    """
    _check_family(family, q)
    if not 0 <= m <= M <= n:
        raise ValueError("need 0 <= m <= M <= n")
    a = puncture_budget(d, False)
    if a > n:
        raise ValueError(f"puncture budget {a} exceeds lattice height {n}")
    np = n - a
    lo = max(0, m - a)
    hi = M - a
    return sum(whitney_closed_form(family, np, k, q) for k in range(lo, hi + 1))


def lsb_for_lattice(lat: Lattice, d: int) -> int:
    """The bound on an explicit modular lattice, by materialized puncturing.

    Repeats alpha times: meet everything with the least-id coatom, i.e. pass
    to that coatom's principal ideal.  The result is the element count of the
    final ideal.
    """
    if not lat.is_modular():
        raise ValueError("the bound requires a modular lattice")
    a = puncture_budget(d, lat.is_distributive())
    if a > lat.total_height():
        raise ValueError(f"puncture budget {a} exceeds lattice height {lat.total_height()}")
    cur = lat
    for _ in range(a):
        w = min(cur.coatoms())
        cur = sublattice_closure(cur, cur.downset(w))
    return len(cur)


def classical_singleton(n: int, d: int) -> int:
    """2^(n-d+1), the block-code specialization."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    return 2 ** (n - d + 1)


def kks_bound(n: int, l: int, d: int, q: int) -> int:
    """Constant-dimension bound: Gaussian binomial (n-alpha choose l-alpha)_q.

    Degenerate when l - alpha < 0: the bound is reported as 1.
    """
    if not 0 <= l <= n:
        raise ValueError("need 0 <= l <= n")
    a = puncture_budget(d, False)
    if l - a < 0:
        return 1
    return gaussian(n - a, l - a, q)


def kks_degenerate(l: int, d: int) -> bool:
    return l - puncture_budget(d, False) < 0


def projective_singleton(n: int, d: int, q: int) -> int:
    """Sum of Gaussian binomials of the (n-alpha)-dim projective space."""
    return lsb("projective", n, d, q)


# --- volumes and the GV-type lower bound -------------------------------------


def ball_volume(lat: Lattice, center: int, radius: int, within=None) -> int:
    """Number of elements at distance <= radius from center.

    Center-dependent in general (projective balls differ by height), which is
    why the lattice variants below take a max over centers.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ids = within if within is not None else range(len(lat))
    return sum(1 for x in ids if lat.distance(center, x) <= radius)


def max_ball_volume(lat: Lattice, radius: int, within=None) -> int:
    ids = list(within) if within is not None else list(range(len(lat)))
    return max(ball_volume(lat, c, radius, ids) for c in ids)


def gv_lower_for_lattice(lat: Lattice, d: int, window: tuple[int, int] | None = None) -> int:
    """ceil(|space| / max ball volume(d-1)); any maximal packing reaches it."""
    if d < 1:
        raise ValueError("minimum distance must be >= 1")
    ids = window_ids(lat, window)
    if not ids:
        return 0
    vol = max_ball_volume(lat, d - 1, ids)
    return -(-len(ids) // vol)


def gv_lower(family: str, n: int, d: int, q: int | None = None, max_elements: int | None = None) -> int:
    """GV-type lower bound for a family.

    Power-set balls are center-independent, so that family has a closed form;
    the projective variant materializes the lattice (subject to the cap) and
    maximizes over centers.
    """
    _check_family(family, q)
    if d < 1:
        raise ValueError("minimum distance must be >= 1")
    if family == "powerset":
        vol = sum(binomial(n, i) for i in range(min(d - 1, n) + 1))
        return -(-(2**n) // vol)
    from .fq import build_projective_lattice

    lat = build_projective_lattice(n, q, max_elements)
    return gv_lower_for_lattice(lat, d)


# --- report rows ---------------------------------------------------------------

BOUND_CSV_HEADER = "family,q,n,d,m,M,lsb,lsb_log2,gv_lower,gv_lower_log2,oracle_max"


@dataclass
class BoundReport:
    family: str
    q: int | None
    n: int
    d: int
    m: int | None = None
    M: int | None = None
    lsb_value: int | None = None
    gv_value: int | None = None
    oracle_max: int | None = None


def log2_string(v: int | None) -> str:
    """log2 of a positive integer to 4 decimals, round-half-even; '' otherwise."""
    if not v or v < 0:
        return ""
    bl = v.bit_length()
    if bl <= 512:
        x = math.log2(v)
    else:
        sh = bl - 64
        x = math.log2(v >> sh) + sh
    return f"{round(x, 4):.4f}"


def _cell(v) -> str:
    return "" if v is None else str(v)


def report_row(r: BoundReport) -> str:
    return ",".join(
        [
            r.family,
            _cell(r.q),
            str(r.n),
            str(r.d),
            _cell(r.m),
            _cell(r.M),
            _cell(r.lsb_value),
            log2_string(r.lsb_value),
            _cell(r.gv_value),
            log2_string(r.gv_value),
            _cell(r.oracle_max),
        ]
    )


def render_report_csv(reports) -> str:
    return "\n".join([BOUND_CSV_HEADER] + [report_row(r) for r in reports]) + "\n"
