"""Upper and lower bound computations plus the CSV report layer."""

import itertools

import pytest

from lattice_sb import (
    BOUND_CSV_HEADER,
    BoundReport,
    SearchProblem,
    anticode_bound,
    binomial,
    build_lattice,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    CapExceeded,
    classical_singleton,
    family_gv_values,
    gaussian,
    gv_lower,
    gv_lower_for_lattice,
    gv_lower_values,
    kks_bound,
    log2_string,
    lsb,
    lsb_for_lattice,
    lsb_windowed,
    max_code,
    puncture_budget,
    render_report_csv,
    window_ids,
)
from lattice_sb import fq
from lattice_sb.bounds import _budget
from lattice_sb.counting import whitney_row
from lattice_sb.lattice import HeightExceeded
from lattice_sb.search import _BranchSearch


# --- reference: the GV-type bound by a per-centre ball scan ---------------------------


def ball_volume(lat, center, radius, within=None):
    """Number of elements of `within` (default: all) at distance <= radius from center."""
    ids = within if within is not None else range(len(lat))
    return sum(1 for x in ids if lat.distance(center, x) <= radius)


def max_ball_volume(lat, radius, within=None):
    ids = list(within) if within is not None else list(range(len(lat)))
    return max(ball_volume(lat, c, radius, ids) for c in ids)


def ref_gv_lower(lat, d, window=None):
    """ceil(|window| / largest ball of radius d-1), scanning every centre."""
    lo, hi = window if window else (0, lat.total_height())
    ids = [x for x in range(len(lat)) if lo <= lat.heights[x] <= hi]
    return -(-len(ids) // max_ball_volume(lat, d - 1, ids))


# --- puncture budget ----------------------------------------------------------------


def test_puncture_budget():
    assert puncture_budget(1, True) == 0
    assert puncture_budget(4, True) == 3
    assert puncture_budget(1, False) == 0
    assert puncture_budget(4, False) == 1
    assert puncture_budget(5, False) == 2
    with pytest.raises(ValueError):
        puncture_budget(0, True)


# --- main bound ---------------------------------------------------------------------


def test_lsb_powerset_matches_classical():
    assert lsb("powerset", 7, 3) == 32
    for n in range(1, 9):
        for d in range(1, n + 1):
            assert lsb("powerset", n, d) == classical_singleton(n, d)


def test_lsb_projective_known_values():
    assert lsb("projective", 3, 3, 2) == 5
    assert lsb("projective", 5, 4, 2) == sum(gaussian(4, k, 2) for k in range(5))
    assert sum(gaussian(4, k, 2) for k in range(5)) == 67


def test_lsb_rejects_overdeep_puncturing():
    with pytest.raises(ValueError):
        lsb("powerset", 2, 4)
    with pytest.raises(ValueError):
        lsb("bogus", 3, 2)


def test_lsb_windowed_known_value():
    assert lsb_windowed("projective", 4, 4, 2, 2, 2) == 7


def test_lsb_windowed_sums_verbatim():
    # heights [max(0, m - a), max(0, M - a)]: a window below alpha counts the bottom
    assert lsb_windowed("powerset", 5, 3, 0, 0) == 1
    assert lsb_windowed("powerset", 5, 1, 0, 5) == lsb("powerset", 5, 1)
    assert lsb_windowed("projective", 4, 4, 0, 4, 2) == lsb("projective", 4, 4, 2)


def test_lsb_windowed_powerset_bounds_optimum():
    # constant-weight Singleton bound, on every window
    for n in range(1, 6):
        lat = build_powerset_lattice(n)
        for d in range(1, n + 1):
            for m, M in itertools.combinations_with_replacement(range(n + 1), 2):
                best = max_code(SearchProblem(lat, d, (m, M))).best_size
                assert best <= lsb_windowed("powerset", n, d, m, M), (n, d, m, M)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_lsb_windowed_projective_bounds_optimum(n, q):
    # every d the lattice can take and every window; a window below alpha
    # holds no two members, and its bound is that optimum, 1
    lat = build_projective_lattice(n, q)
    for d in range(1, 2 * n + 2):
        for m, M in itertools.combinations_with_replacement(range(n + 1), 2):
            best = max_code(SearchProblem(lat, d, (m, M))).best_size
            bound = lsb_windowed("projective", n, d, m, M, q)
            assert best <= bound, (d, m, M)
            if M < puncture_budget(d, False):
                assert best == bound == 1, (d, m, M)


def test_budget_shape():
    # (alpha, lo, hi): the whole punctured lattice, or the window shifted
    # down by alpha and clipped at 0
    assert _budget(4, True, 5) == (3, 0, 2)
    assert _budget(4, False, 5) == (1, 0, 4)
    assert _budget(4, True, 5, (2, 4)) == (1, 1, 3)
    assert _budget(5, False, 5, (0, 1)) == (2, 0, 0)
    # alpha or the window's top above the height is HeightExceeded, the one
    # error a bound table skips a row for
    with pytest.raises(HeightExceeded, match=r"^puncture budget 3 exceeds lattice height 2$"):
        _budget(4, True, 2)
    with pytest.raises(HeightExceeded, match=r"^need 0 <= m <= M <= n$"):
        _budget(2, False, 3, (1, 4))


def test_budget_checks_input_before_height():
    # d < 1 and a window that is not 0 <= m <= M are plain input errors,
    # found before any height is compared
    for args, text in [((0, True, 0), "minimum distance must be >= 1"),
                       ((0, False, 2, (1, 3)), "minimum distance must be >= 1"),
                       ((9, False, 1, (3, 2)), "need 0 <= m <= M <= n"),
                       ((2, False, 5, (-1, 1)), "need 0 <= m <= M <= n")]:
        with pytest.raises(ValueError, match=f"^{text}$") as e:
            _budget(*args)
        assert type(e.value) is ValueError, args


def family_calls(family, n, q):
    """Every closed form over a family, and its builders, at (n, q)."""
    return [lambda: lsb(family, n, 2, q), lambda: anticode_bound(family, n, 3, q, (2, 2)),
            lambda: family_gv_values(family, n, [2], q), lambda: gv_lower(family, n, 2, q),
            lambda: whitney_row(family, n, q), lambda: fq.family_size(family, n, q),
            lambda: fq.family_window(family, n, q)]


@pytest.mark.parametrize("q", [4, 1, 9])
def test_non_prime_q_is_refused_with_one_text(q):
    # no bound for a Sub(F_q^n) that the builder refuses
    for call in family_calls("projective", 3, q) + [lambda: kks_bound(4, 2, 3, q),
                                                   lambda: build_projective_lattice(3, q),
                                                   lambda: list(fq.enumerate_grassmannian(3, 1, q))]:
        with pytest.raises(ValueError, match=f"^q must be a prime, got {q}$"):
            call()


@pytest.mark.parametrize("family, q", [("powerset", None), ("projective", 2)])
def test_negative_n_is_refused_with_one_text(family, q):
    # the family's own count, a root export, and its enumeration
    count = [lambda: gaussian(-1, 0, q), lambda: list(fq.enumerate_grassmannian(-1, 0, q))] if q \
        else [lambda: binomial(-1, 0)]
    for call in family_calls(family, -1, q) + count:
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            call()


def test_lsb_for_lattice_matches_family_formula(pow3, sub3):
    for d in range(1, 4):
        assert lsb_for_lattice(pow3, d) == lsb("powerset", 3, d)
        assert lsb_for_lattice(sub3, d) == lsb("projective", 3, d, 2)


def test_lsb_for_lattice_matches_closed_form_sub4(sub4):
    # materialized repeated puncturing against the closed-form sum
    for d in range(1, 9):
        assert lsb_for_lattice(sub4, d) == lsb("projective", 4, d, 2), d


def test_lsb_for_lattice_requires_modular(n5):
    with pytest.raises(ValueError, match="modular"):
        lsb_for_lattice(n5, 2)
    with pytest.raises(ValueError, match="modular"):
        lsb_for_lattice(n5, 2, (1, 1))


FAMILY_LATTICES = (
    [("powerset", n, None, build_powerset_lattice(n)) for n in range(7)]
    + [("projective", n, 2, build_projective_lattice(n, 2)) for n in range(1, 5)]
    + [("projective", n, 3, build_projective_lattice(n, 3)) for n in range(1, 4)]
)
FAMILY_IDS = [f"{family}-{n}-{q}" for family, n, q, _ in FAMILY_LATTICES]


@pytest.mark.parametrize("family,n,q,lat", FAMILY_LATTICES, ids=FAMILY_IDS)
def test_lsb_for_lattice_window_equals_closed_form(family, n, q, lat):
    # puncture-project on the explicit lattice against the Whitney sum
    for d in range(1, 2 * n + 3):
        for m, M in itertools.combinations_with_replacement(range(n + 1), 2):
            try:
                want = lsb_windowed(family, n, d, m, M, q)
            except ValueError:
                with pytest.raises(ValueError, match="exceeds lattice height"):
                    lsb_for_lattice(lat, d, (m, M))
                continue
            assert lsb_for_lattice(lat, d, (m, M)) == want, (d, m, M)


@pytest.mark.parametrize("family,n,q,lat", FAMILY_LATTICES, ids=FAMILY_IDS)
def test_lsb_for_lattice_equals_lsb(family, n, q, lat):
    for d in range(1, 2 * n + 3):
        try:
            want = lsb(family, n, d, q)
        except ValueError:
            with pytest.raises(ValueError, match="exceeds lattice height"):
                lsb_for_lattice(lat, d)
            continue
        assert lsb_for_lattice(lat, d) == want, d


def test_lsb_for_lattice_rejects_bad_window(sub3):
    for window in ((2, 1), (0, 4), (-1, 2)):
        with pytest.raises(ValueError, match=r"need 0 <= m <= M <= n"):
            lsb_for_lattice(sub3, 2, window)


def test_classical_singleton():
    assert classical_singleton(7, 3) == 32
    assert classical_singleton(5, 5) == 2
    with pytest.raises(ValueError):
        classical_singleton(5, 6)
    with pytest.raises(ValueError):
        classical_singleton(5, 0)


# --- constant-height specializations --------------------------------------------------


def test_kks_bound_values():
    assert kks_bound(4, 2, 4, 2) == 7
    assert kks_bound(4, 2, 2, 2) == 35
    assert kks_bound(4, 2, 2, 2) == gaussian(4, 2, 2)


def test_kks_degenerate():
    assert kks_bound(4, 0, 4, 2) == 1


def test_kks_bound_is_the_single_height_window():
    # every valid input (0 <= l <= n, alpha <= n): the Gaussian binomial,
    # or 1 when the level lies below alpha
    for q in (2, 3):
        for n in range(9):
            for l in range(n + 1):
                for d in range(1, 2 * n + 2):
                    a = puncture_budget(d, False)
                    want = gaussian(n - a, l - a, q) if l >= a else 1
                    assert kks_bound(n, l, d, q) == lsb_windowed("projective", n, d, l, l, q) == want


def test_projective_singleton_values():
    assert lsb("projective", 4, 4, 2) == 16
    assert lsb("projective", 3, 3, 2) == 5
    assert lsb("projective", 3, 1, 2) == 16


# --- the anticode (clique-coclique) bound --------------------------------------------


def largest_anticode(lat, d, window):
    """The most window elements at pairwise distance < d, found by the
    exhaustive clique search on the graph that joins such pairs."""
    ids = window_ids(lat, window)
    adj = [0] * len(ids)
    for i, j in itertools.combinations(range(len(ids)), 2):
        if lat.distance(ids[i], ids[j]) < d:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    search = _BranchSearch(adj, 10**9, float("inf"))
    best = 0
    for v in range(len(ids)):
        assert search.run(v, adj[v] & ~((1 << (v + 1)) - 1), best)
        best = max(best, search.best_size)
    return best


ANTICODE_LATTICES = {
    **{f"pow{n}": (lambda n=n: build_powerset_lattice(n)) for n in range(1, 7)},
    **{f"sub{n}2": (lambda n=n: build_projective_lattice(n, 2)) for n in range(2, 5)},
    "sub33": lambda: build_projective_lattice(3, 3),
}


@pytest.mark.parametrize("name", sorted(ANTICODE_LATTICES))
def test_anticode_bound_matches_clique_oracle(name):
    """Every level (and the whole power set), every d up to 2n + 1: the bound
    is |V| // the largest anticode, at least the optimum of a search with no
    cap (on a rebuild that carries no family), and at most lsb."""
    lat = ANTICODE_LATTICES[name]()
    family, n, q = lat.family
    free = build_lattice(lat.names, lat.covers)
    windows = [(k, k) for k in range(n + 1)] + ([None] if family == "powerset" else [])
    for window in windows:
        size = len(window_ids(lat, window))
        for d in range(1, 2 * n + 2):
            cap = anticode_bound(family, n, d, q, window)
            assert cap == size // largest_anticode(lat, d, window), (window, d)
            assert cap >= max_code(SearchProblem(free, d, window)).best_size, (window, d)
            try:
                bound = lsb(family, n, d, q, window)
            except ValueError:  # more punctures than the lattice is high
                continue
            assert cap <= bound, (window, d)


def test_anticode_bound_values_and_scope():
    # lines of PG(5,2): 651 // 31, the optimum A_2(6,4;2) = 21; PG(4,2): 155 // 15
    assert anticode_bound("projective", 6, 4, 2, (2, 2)) == 21
    assert anticode_bound("projective", 5, 4, 2, (2, 2)) == 10
    # 2^[8], d = 4: 256 // (2 * (1 + 7)), the extended Hamming code's 16
    assert anticode_bound("powerset", 8, 4) == anticode_bound("powerset", 8, 4, window=(0, 8)) == 16
    # graphs not known to be vertex-transitive get no bound
    assert anticode_bound("projective", 4, 4, 2) is None
    assert anticode_bound("projective", 4, 4, 2, (0, 4)) is None
    assert anticode_bound("projective", 4, 4, 2, (1, 2)) is None
    assert anticode_bound("powerset", 6, 3, window=(2, 3)) is None
    for bad in [("powerset", 4, 0), ("powerset", -1, 2), ("projective", 4, 2)]:
        with pytest.raises(ValueError):
            anticode_bound(*bad)
    with pytest.raises(ValueError, match="need 0 <= m <= M <= n"):
        anticode_bound("powerset", 4, 2, window=(2, 5))


# --- balls and GV-type lower bounds ---------------------------------------------------


def test_ball_volume_depends_on_center(sub2):
    line = next(x for x in range(len(sub2)) if sub2.height(x) == 1)
    assert ball_volume(sub2, line, 1) == 3
    assert ball_volume(sub2, sub2.bottom, 1) == 4
    assert max_ball_volume(sub2, 1) == 4
    # the bound divides by the largest ball, not by the line's
    assert gv_lower_for_lattice(sub2, 2) == ref_gv_lower(sub2, 2) == -(-5 // 4)


def test_ball_volume_radius_zero(sub2):
    for x in range(len(sub2)):
        assert ball_volume(sub2, x, 0) == 1
    assert gv_lower_for_lattice(sub2, 1) == ref_gv_lower(sub2, 1) == len(sub2)


def test_ball_volume_window(sub3):
    atoms = set(sub3.atoms())
    within = sorted(atoms)
    for a in within:
        # radius-2 ball inside the atom layer: atoms at distance exactly 2
        assert ball_volume(sub3, a, 2, within) == 7
    assert gv_lower_for_lattice(sub3, 3, (1, 1)) == ref_gv_lower(sub3, 3, (1, 1)) == 1


def test_gv_lower_values(pow4):
    assert gv_lower("powerset", 4, 3) == 2
    assert gv_lower_for_lattice(pow4, 3) == 2


def test_gv_lower_projective(sub2):
    assert gv_lower("projective", 2, 2, 2) == 2
    assert gv_lower_for_lattice(sub2, 2) == 2


def test_gv_lower_projective_sub4(sub4):
    # the radius-1 ball is largest at the ends: bottom plus all 15 atoms
    assert ball_volume(sub4, sub4.bottom, 1) == 16
    assert max_ball_volume(sub4, 1) == 16
    assert gv_lower("projective", 4, 2, 2) == ref_gv_lower(sub4, 2) == -(-67 // 16) == 5


def test_gv_lower_projective_cap():
    from lattice_sb import CapExceeded

    with pytest.raises(CapExceeded):
        gv_lower("projective", 5, 2, 2)
    assert gv_lower("projective", 5, 2, 2, max_elements=400) >= 1


def test_gv_lower_window(sub3):
    atoms = (1, 1)
    full = gv_lower_for_lattice(sub3, 2)
    windowed = gv_lower_for_lattice(sub3, 2, atoms)
    assert windowed >= 1
    assert full >= 1


@pytest.mark.parametrize("name", ["m3", "n5", "l2", "pow4", "sub3", "sub4"])
def test_gv_lower_values_match_per_d(name, request):
    lat = request.getfixturevalue(name)
    top = lat.total_height()
    ds = list(range(1, top + 3))
    windows = [None] + [(lo, hi) for lo in range(top + 2) for hi in range(lo, top + 2)]
    for window in windows:
        if window is not None and window[1] > top:  # a window above the height is an input error
            with pytest.raises(ValueError, match="need 0 <= m <= M <= n"):
                gv_lower_values(lat, ds, window)
            with pytest.raises(ValueError, match="need 0 <= m <= M <= n"):
                gv_lower_for_lattice(lat, 1, window)
            continue
        want = [ref_gv_lower(lat, d, window) for d in ds]
        assert gv_lower_values(lat, ds, window) == want, window
        assert [gv_lower_for_lattice(lat, d, window) for d in ds] == want, window
    assert gv_lower_values(lat, [3, 1, 3]) == [ref_gv_lower(lat, d) for d in (3, 1, 3)]
    with pytest.raises(ValueError):
        gv_lower_values(lat, [2, 0])


@pytest.mark.parametrize("family,q,ns", [("powerset", None, range(9)), ("projective", 2, range(6)),
                                         ("projective", 3, range(5)), ("projective", 5, range(4))])
def test_family_gv_values_match_built_lattice(family, q, ns):
    """The closed form gives the GV values of the lattice it names, on every
    window and every d = 1..2n+1 of 2^[n], n <= 8, Sub(F_2^n), n <= 5,
    Sub(F_3^n), n <= 4, and Sub(F_5^n), n <= 3."""
    cap = 400
    for n in ns:
        lat = build_powerset_lattice(n, cap) if family == "powerset" else build_projective_lattice(n, q, cap)
        ds = list(range(1, 2 * n + 2))
        windows = [None] + [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
        for window in windows:
            assert family_gv_values(family, n, ds, q, window, cap) == gv_lower_values(lat, ds, window), (n, window)
        assert [gv_lower(family, n, d, q, cap) for d in ds] == gv_lower_values(lat, ds), n


def test_family_gv_values_cap_and_input_errors():
    assert family_gv_values("powerset", 8, [3]) == [gv_lower("powerset", 8, 3)]  # closed form, no cap
    with pytest.raises(CapExceeded):
        family_gv_values("powerset", 8, [3], window=(1, 1))
    with pytest.raises(CapExceeded):
        family_gv_values("projective", 5, [2, 3], 2)
    assert family_gv_values("projective", 5, [2, 3], 2, max_elements=400) == [
        gv_lower("projective", 5, d, 2, 400) for d in (2, 3)]
    with pytest.raises(ValueError):
        family_gv_values("powerset", 4, [2, 0])
    with pytest.raises(ValueError):
        family_gv_values("projective", 3, [2])  # no q
    with pytest.raises(ValueError, match="q must be a prime"):
        family_gv_values("projective", 3, [2], 4)
    with pytest.raises(CapExceeded):  # power-set n > 20 is over every cap, as in the builder
        family_gv_values("powerset", 21, [2], window=(1, 1), max_elements=1 << 22)
    with pytest.raises(ValueError, match="need 0 <= m <= M <= n"):
        family_gv_values("projective", 3, [2], 2, (1, 4))


def closed_forms(family, n, d, q, window):
    """Each closed form over a family at one cell; None where the cell has no bound."""
    out = []
    for f in (lambda: lsb(family, n, d, q, window), lambda: anticode_bound(family, n, d, q, window),
              lambda: family_gv_values(family, n, [d], q, window, 400), lambda: gv_lower(family, n, d, q, 400)):
        try:
            out.append(f())
        except HeightExceeded:
            out.append(None)
    return out


def test_powerset_closed_forms_ignore_q():
    # 2^[n] records no field: a q given with it is never read as [m]_q
    assert lsb("powerset", 5, 3, 2) == lsb("powerset", 5, 3) == 8
    for n in range(7):
        windows = [None] + [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
        for d, window in itertools.product(range(1, n + 3), windows):
            want = closed_forms("powerset", n, d, None, window)
            for q in (2, 3, 4):
                assert closed_forms("powerset", n, d, q, window) == want, (n, d, q, window)


@pytest.mark.parametrize("family, q", [("powerset", None), ("projective", 2), ("projective", 3)])
def test_closed_forms_build_one_row_per_cell(monkeypatch, family, q):
    # one Whitney row per lsb cell, at most 3 per anticode bound, and no row
    # twice in a GV cell
    from lattice_sb import bounds

    built = []
    row = bounds.whitney_row
    monkeypatch.setattr(bounds, "whitney_row", lambda family, n, q=None: built.append(n) or row(family, n, q))
    for n in range(7):
        windows = [None] + [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
        for d, window in itertools.product(range(1, n + 3), windows):
            built.clear()
            try:
                lsb(family, n, d, q, window)
                assert len(built) == 1, (n, d, window)
            except HeightExceeded:
                assert built == []
            built.clear()
            anticode_bound(family, n, d, q, window)
            assert len(built) <= 3, (n, d, window)
            built.clear()
            family_gv_values(family, n, [d], q, window, 10**5)
            assert len(built) == len(set(built)), (n, d, window)


# --- report layer ----------------------------------------------------------------------


def test_log2_string():
    assert log2_string(16) == "4.0000"
    assert log2_string(67) == "6.0661"
    assert log2_string(1) == "0.0000"
    assert log2_string(None) == ""
    assert log2_string(0) == ""
    assert log2_string(2**1000) == "1000.0000"
    assert log2_string(2**1000 + 2**999) == "1000.5850"


def test_render_report_csv():
    r = BoundReport("powerset", None, 4, 3, lsb_value=4, gv_value=2)
    text = render_report_csv([r])
    lines = text.strip().split("\n")
    assert lines[0] == BOUND_CSV_HEADER
    assert lines[1] == "powerset,,4,3,,,4,2.0000,2,1.0000,"


def test_render_report_csv_windowed():
    r = BoundReport("projective", 2, 4, 4, m=2, M=2, lsb_value=7)
    text = render_report_csv([r])
    assert text.strip().split("\n")[1] == "projective,2,4,4,2,2,7,2.8074,,,"


def test_lattice_bound_consistency():
    l2 = build_named_lattice("L2")
    for d in range(1, 4):
        up = lsb_for_lattice(l2, d)
        lo = gv_lower_for_lattice(l2, d)
        assert 1 <= lo <= up
