"""Structure predicates decided on covers, and the on-demand distance rows,
against the all-pairs formulas they replaced: on the networkx-oracle
lattices, on the generated lattices of test_classifiers, on N5, and on
relabelled JSON copies."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lattice_sb import build_named_lattice, build_projective_lattice, cli
from lattice_sb.counting import whitney
from lattice_sb.lattice import Lattice, to_json
from test_classifiers import ATOMISTIC_UNGRADED, lattices, relabelled
from test_search import ORACLE_LATTICES

# --- the all-pairs formulas ---------------------------------------------------------


def pairs(lat):
    n = len(lat)
    return ((a, b) for a in range(n) for b in range(a + 1, n))


def ref_modular(lat):
    """Graded, and the height is a valuation on every pair."""
    h = lat.heights
    return lat.has_jordan_dedekind() and all(
        h[lat.join(a, b)] + h[lat.meet(a, b)] == h[a] + h[b] for a, b in pairs(lat))


def ref_geometric(lat):
    """Every join-irreducible is an atom, graded, and the semimodular
    inequality on every pair."""
    h = lat.heights
    lower = [[lo for lo, hi in lat.covers if hi == x] for x in range(len(lat))]
    if any(len(low) == 1 and low != [lat.bottom] for low in lower):
        return False
    return lat.has_jordan_dedekind() and all(
        h[lat.join(a, b)] + h[lat.meet(a, b)] <= h[a] + h[b] for a, b in pairs(lat))


def ref_distributive(lat):
    """Every join-irreducible p is join-prime: no pair a, b has p below a v b
    but below neither."""
    lower = [[lo for lo, hi in lat.covers if hi == x] for x in range(len(lat))]
    irr = [p for p in range(len(lat)) if len(lower[p]) == 1]
    for a, b in pairs(lat):
        j = lat.join(a, b)
        if any(lat.leq(p, j) and not lat.leq(p, a) and not lat.leq(p, b) for p in irr):
            return False
    return True


def assert_predicates_match(lat):
    assert lat.is_modular() == ref_modular(lat)
    assert lat.is_geometric() == ref_geometric(lat)
    assert lat.is_distributive() == ref_distributive(lat)


def assert_distance_rows(lat, rng):
    """distances() row by row equals distance() and h(a v b) - h(a ^ b), over
    every element and over a shuffled sample with repeats."""
    h, n = lat.heights, len(lat)
    for a in range(n):
        want = [h[lat.join(a, b)] - h[lat.meet(a, b)] for b in range(n)]
        assert [lat.distance(a, b) for b in range(n)] == want
        assert lat.distances(a, range(n)) == want
        others = [rng.randrange(n) for _ in range(min(n, 12))]
        assert lat.distances(a, others) == [want[b] for b in others]
    assert lat.distances(0, []) == []


# --- predicates -----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
def test_predicates_match_all_pairs_oracle_lattices(name):
    lat = ORACLE_LATTICES[name]()
    assert_predicates_match(lat)
    assert_predicates_match(relabelled(lat, random.Random(name).sample(range(len(lat)), len(lat))))


@settings(max_examples=80, deadline=None)
@given(lattices)
@example(build_named_lattice("N5"))
@example(ATOMISTIC_UNGRADED)
def test_predicates_match_all_pairs_generated(lat):
    assert_predicates_match(lat)


def test_sub62_classifies_without_tables():
    """The full Sub(F_2^6), 2825 elements."""
    lat = build_projective_lattice(6, 2, 3000)
    assert (lat.is_modular(), lat.is_geometric(), lat.is_distributive()) == (True, True, False)
    assert whitney(lat) == [1, 63, 651, 1395, 651, 63, 1]


# --- distance rows --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
def test_distances_match_distance_oracle_lattices(name):
    lat = ORACLE_LATTICES[name]()
    rng = random.Random(name)
    assert_distance_rows(lat, rng)
    assert_distance_rows(relabelled(lat, rng.sample(range(len(lat)), len(lat))), rng)


@settings(max_examples=60, deadline=None)
@given(lattices, st.randoms(use_true_random=False))
@example(build_named_lattice("N5"), random.Random(0))
@example(ATOMISTIC_UNGRADED, random.Random(0))
def test_distances_match_distance_generated(lat, rng):
    assert_distance_rows(lat, rng)
    assert_distance_rows(relabelled(lat, rng.sample(range(len(lat)), len(lat))), rng)


# --- one modularity verdict per lattice -------------------------------------------------


def test_search_decides_modularity_once(tmp_path, monkeypatch, capsys):
    """search --lattice asks for modularity for the packing cap and for the
    bound; the covering conditions are checked once."""
    path = tmp_path / "sub3.json"
    path.write_text(to_json(build_projective_lattice(3, 2)))
    calls = []
    real = Lattice._covering_condition
    monkeypatch.setattr(Lattice, "_covering_condition",
                        lambda self, upper: calls.append(upper) or real(self, upper))
    assert cli.main(["search", "--lattice", str(path), "-d", "2", "--window", "1", "1"]) == 0
    assert '"best_size": 7' in capsys.readouterr().out
    assert calls == [True, False]
