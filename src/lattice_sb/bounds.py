"""Singleton-type upper bounds and GV-type lower bounds for lattice schemes.

All bound values are exact integers.  The family bounds (power-set,
projective) are closed forms and never materialize a lattice: the upper
bound is a Whitney sum, and the GV-type lower bound counts ball volumes per
centre height.  The explicit-lattice variants realize the upper bound by
repeated coatom puncturing of the actual lattice and the lower bound by a
pass over every pair of window elements.  The anticode bound, which the
search uses to stop at its root, is a closed form on the families only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import fq
from .counting import binomial, check_family, gaussian, whitney_closed_form
from .lattice import HeightExceeded, Lattice, check_window, window_ids


def puncture_budget(d: int, distributive: bool) -> int:
    """Number of punctures a scheme of min distance d survives: alpha.

    One puncture drops the distance by at most 1 on distributive lattices
    and at most 2 on modular ones (drop bound 1/beta with beta = 1/2), so
    alpha = d-1, respectively floor((d-1)/2).
    """
    _check_distances((d,))
    return d - 1 if distributive else (d - 1) // 2


def _budget(d: int, distributive: bool, height: int, window: tuple[int, int] | None = None):
    """(alpha, lo, hi): the punctures the bound takes and the heights it counts.

    Without a window, alpha = puncture_budget(d, distributive) and the count
    covers the whole punctured lattice, heights [0, height - alpha].  A window
    [m, M] needs puncture-project, which lowers every member by exactly one
    height and the distance by at most 2, so alpha = floor((d-1)/2) on every
    lattice and the count covers [max(0, m - alpha), max(0, M - alpha)].
    Clipping at 0 gives a window with M < alpha the bound 1, its exact
    optimum: on a modular lattice two members of height <= M lie at
    distance <= 2M < d.
    Raises ValueError unless d >= 1 and 0 <= m <= M, checked in that order,
    then HeightExceeded unless M <= height and alpha <= height.
    """
    a = puncture_budget(d, distributive and window is None)
    check_window(window, height)
    if a > height:
        raise HeightExceeded(f"puncture budget {a} exceeds lattice height {height}")
    if window is None:
        return a, 0, height - a
    return a, max(0, window[0] - a), max(0, window[1] - a)


class NotModularError(ValueError):
    """The Singleton-type bound was asked of a lattice that is not modular."""


def lsb(family: str, n: int, d: int, q: int | None = None, window: tuple[int, int] | None = None) -> int:
    """Scheme size bound: the Whitney numbers of the alpha-times punctured
    lattice, summed over the heights that _budget counts.

    Without a window this is the element count of the punctured lattice.
    With a window [m, M] on the power set it is the constant-weight Singleton
    bound A(n, 2*delta, w) <= C(n-delta+1, w-delta+1).  Sub(F_q^n) with
    n <= 1 is a chain, hence distributive, so it takes the power-set budget,
    as lsb_for_lattice gives it on the built lattice.
    """
    check_family(family, n, q)
    a, lo, hi = _budget(d, family == "powerset" or n <= 1, n, window)
    return sum(whitney_closed_form(family, n - a, k, q) for k in range(lo, hi + 1))


def lsb_windowed(family: str, n: int, d: int, m: int, M: int, q: int | None = None) -> int:
    """The bound for schemes confined to heights [m, M]: lsb with that window."""
    return lsb(family, n, d, q, (m, M))


def lsb_for_lattice(lat: Lattice, d: int, window: tuple[int, int] | None = None) -> int:
    """The bound on an explicit modular lattice, by puncturing: lsb_values for one d."""
    return lsb_values(lat, [d], window)[0]


def lsb_values(lat: Lattice, d_values, window: tuple[int, int] | None = None) -> list[int]:
    """The bound on an explicit modular lattice for each d in d_values.

    Repeats alpha times: pass to the principal ideal of the least-id coatom.
    The coatoms of the ideal below w are the lower covers of w, so this walks
    down from the top one height at a time.  The result counts the elements
    of the final ideal at the heights that _budget gives, as lsb does on the
    families.  The lattice is classified once for all d.  Raises
    NotModularError when the lattice is not modular.
    """
    if not lat.is_modular():
        raise NotModularError("the bound requires a modular lattice")
    # is_distributive costs a pass over the lattice; a window never needs it
    distributive = window is None and lat.is_distributive()
    h = lat.heights
    values = []
    for d in d_values:
        a, lo, hi = _budget(d, distributive, lat.total_height(), window)
        w = lat.top
        for _ in range(a):
            w = min(lat._lower_covers[w])
        values.append(sum(1 for y in lat.downset(w) if lo <= h[y] <= hi))
    return values


def classical_singleton(n: int, d: int) -> int:
    """2^(n-d+1), the block-code specialization."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    return 2 ** (n - d + 1)


def kks_bound(n: int, l: int, d: int, q: int) -> int:
    """Constant-dimension bound: the Gaussian binomial [n-alpha, l-alpha]_q,
    lsb_windowed at the single height l (1 when l < alpha)."""
    return lsb_windowed("projective", n, d, l, l, q)


def anticode_bound(family: str, n: int, d: int, q: int | None = None,
                   window: tuple[int, int] | None = None) -> int | None:
    """The clique-coclique bound floor(|V| / |I|), or None where it is not known to hold.

    A scheme is a clique of the graph joining elements at distance >= d; a
    coclique is an anticode, a set of pairwise distance <= d - 1.  On a
    vertex-transitive graph every clique C and coclique I satisfy
    |C| * |I| <= |V|, so I is taken as the largest anticode.  Three windows
    have a vertex-transitive graph and a known largest anticode:

    - The whole power set 2^[n] (no window, or (0, n)), the hypercube.  With
      D = d - 1, Kleitman's diameter theorem (J. Combin. Theory 1966) gives
      2^n if D >= n, the Hamming ball sum_{i<=r} C(n, i) if D = 2r, and
      2 * sum_{i<=r} C(n-1, i) if D = 2r + 1.
    - One level k of 2^[n], the Johnson graph.  Two k-sets lie at distance
      2(k - |A n B|), so anticodes are the t-intersecting families with
      t = k - floor((d-1)/2).  The largest is one of the Ahlswede-Khachatrian
      families {A : |A n [t+2r]| >= t+r} (complete intersection theorem,
      1997), whichever r gives the most sets.
    - One level k of Sub(F_q^n), the Grassmann graph, with the same t.  The
      largest is the larger of the star of a t-space, [n-t, k-t]_q, and the
      k-spaces of a (2k-t)-space, [2k-t, k]_q (Frankl-Wilson 1986).  This is
      the anticode bound of Etzion-Vardy (IEEE T-IT 2011).

    On a level, t <= 0 or 2k - t >= n makes the whole level an anticode, and
    the bound is 1.  Raises ValueError unless d >= 1 and 0 <= m <= M <= n.
    """
    check_family(family, n, q)
    _check_distances([d])
    check_window(window, n)
    D = d - 1
    if family == "powerset" and window in (None, (0, n)):
        r = D // 2
        if D >= n:
            size = 2**n
        elif D % 2 == 0:
            size = sum(binomial(n, i) for i in range(r + 1))
        else:
            size = 2 * sum(binomial(n - 1, i) for i in range(r + 1))
        return 2**n // size
    if window is None or window[0] != window[1]:
        return None
    k = window[0]
    t = k - D // 2
    if t <= 0 or 2 * k - t >= n:
        return 1
    if family == "powerset":
        size = max(
            sum(binomial(t + 2 * r, i) * binomial(n - t - 2 * r, k - i)
                for i in range(t + r, min(k, t + 2 * r) + 1))
            for r in range((n - t) // 2 + 1)
        )
    else:
        size = max(gaussian(n - t, k - t, q), gaussian(2 * k - t, k, q))
    return whitney_closed_form(family, n, k, q) // size


# --- volumes and the GV-type lower bound -------------------------------------


def gv_lower_for_lattice(lat: Lattice, d: int, window: tuple[int, int] | None = None) -> int:
    """ceil(|space| / max ball volume(d-1)); any maximal packing reaches it."""
    return gv_lower_values(lat, [d], window)[0]


def gv_lower_values(lat: Lattice, d_values, window: tuple[int, int] | None = None) -> list[int]:
    """ceil(|window| / largest ball of radius d-1) for each d in d_values.

    Balls and centres lie in the window.  Balls depend on the centre
    (projective balls differ by height), so every centre is measured: each
    pair of window elements goes once into a per-centre histogram of
    distances, and _gv_from_histograms takes the bound from those.
    """
    _check_distances(d_values)
    ids = window_ids(lat, window)
    span = lat.total_height() + 1  # every distance is below this
    hists = [[0] * span for _ in ids]
    for i, c in enumerate(ids):
        hc = hists[i]
        hc[0] += 1
        for k, t in enumerate(lat.distances(c, ids[i + 1:]), i + 1):
            hc[t] += 1
            hists[k][t] += 1
    return _gv_from_histograms(len(ids), hists, d_values)


def _check_distances(d_values):
    if any(d < 1 for d in d_values):
        raise ValueError("minimum distance must be >= 1")


def _gv_from_histograms(size: int, hists, d_values) -> list[int]:
    """ceil(size / largest ball of radius d-1) for each d in d_values, where
    hists[c][t] counts the window elements at distance t from centre c: the
    ball of radius r around c is a prefix sum of its histogram."""
    span = len(hists[0])
    vol = [0] * span  # vol[r]: the largest ball of radius r
    for hc in hists:
        ball = 0
        for r, count in enumerate(hc):
            ball += count
            if ball > vol[r]:
                vol[r] = ball
    return [-(-size // vol[min(d - 1, span - 1)]) for d in d_values]


def family_gv_values(family: str, n: int, d_values, q: int | None = None,
                     window: tuple[int, int] | None = None, max_elements: int | None = None) -> list[int]:
    """The GV-type lower bound of a family lattice for each d in d_values,
    in closed form: no lattice is built.

    Unwindowed power-set balls are Hamming balls, which do not depend on the
    centre.  Every other ball depends only on the centre's height k: the
    height-j elements whose meet with it has height i number
    q^((k-i)(j-i)) [k,i]_q [n-k,j-i]_q on Sub(F_q^n), and C(k,i) C(n-k,j-i)
    on 2^[n], all at distance k + j - 2i.  Summed over the window's heights
    j, that is one distance histogram per centre height, which gives every
    d at once, as gv_lower_values does on the built lattice.

    Those cases still raise CapExceeded wherever the family's builder would
    (fq.family_size), which leaves a bound table's GV cells above the cap
    blank; the closed form itself needs no cap.
    """
    check_family(family, n, q)
    _check_distances(d_values)
    if family == "powerset" and window is None:
        return [-(-(2**n) // sum(binomial(n, i) for i in range(min(d - 1, n) + 1))) for d in d_values]
    fq.family_size(family, n, q, max_elements)
    check_window(window, n)
    lo, hi = window or (0, n)
    levels = range(lo, hi + 1)
    base = q if family == "projective" else 1

    def count(a: int, b: int) -> int:  # [a,b]_q or C(a,b); the family is checked above
        return binomial(a, b) if family == "powerset" else gaussian(a, b, q)

    hists = []
    for k in levels:
        hist = [0] * (n + 1)
        for j in levels:
            for i in range(max(0, k + j - n), min(k, j) + 1):
                hist[k + j - 2 * i] += base ** ((k - i) * (j - i)) * count(k, i) * count(n - k, j - i)
        hists.append(hist)
    return _gv_from_histograms(sum(count(n, k) for k in levels), hists, d_values)


def gv_lower(family: str, n: int, d: int, q: int | None = None, max_elements: int | None = None) -> int:
    """GV-type lower bound for a family: family_gv_values for one d, no window."""
    return family_gv_values(family, n, [d], q, None, max_elements)[0]


# --- report rows ---------------------------------------------------------------

BOUND_CSV_HEADER = "family,q,n,d,m,M,lsb,lsb_log2,gv_lower,gv_lower_log2,oracle_max"


class BoundReport(NamedTuple):
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
    return f"{round(math.log2(v), 4):.4f}"


def _cell(v) -> str:
    """The exact decimal digits of v, '' for None.  str() refuses an int over
    sys.get_int_max_str_digits() digits; Decimal converts it without that limit."""
    if v is None:
        return ""
    try:
        return str(v)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(v))


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
