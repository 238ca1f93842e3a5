"""Upper and lower bound computations plus the CSV report layer."""

import itertools

import pytest

from lattice_sb import (
    BOUND_CSV_HEADER,
    BoundReport,
    SearchProblem,
    ball_volume,
    build_named_lattice,
    build_powerset_lattice,
    classical_singleton,
    gaussian,
    gv_lower,
    gv_lower_for_lattice,
    kks_bound,
    log2_string,
    lsb,
    lsb_for_lattice,
    lsb_windowed,
    max_ball_volume,
    max_code,
    projective_singleton,
    puncture_budget,
    render_report_csv,
)
from lattice_sb.bounds import kks_degenerate


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
    # window clipped to [max(0, m - a), M - a]; empty windows give zero
    assert lsb_windowed("powerset", 5, 3, 0, 0) == 0
    assert lsb_windowed("powerset", 5, 1, 0, 5) == lsb("powerset", 5, 1)
    assert lsb_windowed("projective", 4, 4, 0, 4, 2) == lsb("projective", 4, 4, 2)


def test_lsb_windowed_powerset_bounds_optimum():
    # constant-weight Singleton bound; windows with M - alpha < 0 are
    # degenerate and their verbatim 0 is not a bound
    for n in range(1, 6):
        lat = build_powerset_lattice(n)
        for d in range(1, n + 1):
            a = puncture_budget(d, False)
            for m, M in itertools.combinations_with_replacement(range(n + 1), 2):
                if M - a < 0:
                    continue
                best = max_code(SearchProblem(lat, d, (m, M))).best_size
                assert best <= lsb_windowed("powerset", n, d, m, M), (n, d, m, M)


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
    assert kks_degenerate(0, 4)
    assert not kks_degenerate(2, 4)


def test_projective_singleton_values():
    assert projective_singleton(4, 4, 2) == 16
    assert projective_singleton(3, 3, 2) == 5
    assert projective_singleton(3, 1, 2) == 16


# --- balls and GV-type lower bounds ---------------------------------------------------


def test_ball_volume_depends_on_center(sub2):
    line = next(x for x in range(len(sub2)) if sub2.height(x) == 1)
    assert ball_volume(sub2, line, 1) == 3
    assert ball_volume(sub2, sub2.bottom, 1) == 4
    assert max_ball_volume(sub2, 1) == 4


def test_ball_volume_radius_zero(sub2):
    for x in range(len(sub2)):
        assert ball_volume(sub2, x, 0) == 1


def test_ball_volume_window(sub3):
    atoms = set(sub3.atoms())
    within = sorted(atoms)
    for a in within:
        # radius-2 ball inside the atom layer: atoms at distance exactly 2
        assert ball_volume(sub3, a, 2, within) == 7


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
    assert gv_lower("projective", 4, 2, 2) == -(-67 // 16) == 5


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
    r = BoundReport("powerset", None, 4, 3)
    r.lsb_value = 4
    r.gv_value = 2
    text = render_report_csv([r])
    lines = text.strip().split("\n")
    assert lines[0] == BOUND_CSV_HEADER
    assert lines[1] == "powerset,,4,3,,,4,2.0000,2,1.0000,"


def test_render_report_csv_windowed():
    r = BoundReport("projective", 2, 4, 4)
    r.m, r.M = 2, 2
    r.lsb_value = 7
    text = render_report_csv([r])
    assert text.strip().split("\n")[1] == "projective,2,4,4,2,2,7,2.8074,,,"


def test_lattice_bound_consistency():
    l2 = build_named_lattice("L2")
    for d in range(1, 4):
        up = lsb_for_lattice(l2, d)
        lo = gv_lower_for_lattice(l2, d)
        assert 1 <= lo <= up
