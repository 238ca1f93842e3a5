"""Branch-and-bound maximum-scheme search, greedy packing, and the probe."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lattice_sb import (
    SearchProblem,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    conjecture_probe,
    greedy_code,
    gv_lower_for_lattice,
    make_scheme,
    max_code,
    min_distance,
    window_ids,
)
from lattice_sb.lattice import iter_bits
from lattice_sb.search import _BranchSearch


def brute_force_max(lat, d, window=None):
    """Largest subset with pairwise distance >= d, by exhaustive enumeration."""
    if window is None:
        ids = list(range(len(lat)))
    else:
        ids = [x for x in range(len(lat)) if window[0] <= lat.heights[x] <= window[1]]
    for r in range(len(ids), 0, -1):
        for combo in itertools.combinations(ids, r):
            if all(lat.distance(a, b) >= d for a, b in itertools.combinations(combo, 2)):
                return r
    return 0


def greedy_color_sort(adj, p_mask):
    """Reference colouring: sequential greedy in vertex order, each vertex
    into the first class holding none of its neighbours; (order, bound) lists
    the vertices class by class with their colours."""
    classes, masks = [], []
    for v in iter_bits(p_mask):
        for ci, cmask in enumerate(masks):
            if not adj[v] & cmask:
                classes[ci].append(v)
                masks[ci] |= 1 << v
                break
        else:
            classes.append([v])
            masks.append(1 << v)
    order = [v for cls in classes for v in cls]
    bound = [ci + 1 for ci, cls in enumerate(classes) for _ in cls]
    return order, bound


def random_graph(m, density, rng):
    adj = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


# --- colouring ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.floats(0, 1), st.integers(0, 2**32), st.integers(1, 10))
def test_color_sort_matches_greedy_reference(m, density, seed, kmin):
    rng = random.Random(seed)
    adj = random_graph(m, density, rng)
    p_mask = rng.getrandbits(m)
    search = _BranchSearch(adj, 0, None)
    order, bound = greedy_color_sort(adj, p_mask)
    assert search._color_sort(p_mask, 0) == (order, bound)
    # the MCS cut keeps exactly the vertices coloured above kmin
    kept = [(v, c) for v, c in zip(order, bound) if c > kmin]
    assert search._color_sort(p_mask, kmin) == ([v for v, _ in kept], [c for _, c in kept])


# --- exact search -------------------------------------------------------------------


# (best_size, nodes) pinned: node counts change only with the algorithm.
@pytest.mark.parametrize(
    "build, d, window, best_size, nodes",
    [
        (lambda: build_projective_lattice(5, 2, max_elements=400), 2, (1, 2), 155, 15_996),
        (lambda: build_projective_lattice(4, 3, max_elements=400), 2, (1, 2), 130, 12_455),
        (lambda: build_projective_lattice(4, 3, max_elements=400), 4, (2, 2), 10, 886),
        (lambda: build_powerset_lattice(8, max_elements=400), 4, None, 16, 17_700),
        (lambda: build_powerset_lattice(7), 3, None, 16, 8_348),
    ],
    ids=["sub52-d2-w12", "sub43-d2-w12", "sub43-d4-w22", "pow8-d4", "pow7-d3"],
)
def test_max_code_pinned_node_counts(build, d, window, best_size, nodes):
    res = max_code(SearchProblem(build(), d, window))
    assert res.proven_optimal
    assert (res.best_size, res.nodes) == (best_size, nodes)


def networkx_clique_number(lat, d, window):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    ids = window_ids(lat, window)
    g.add_nodes_from(ids)
    g.add_edges_from((a, b) for a, b in itertools.combinations(ids, 2) if lat.distance(a, b) >= d)
    return nx.max_weight_clique(g, weight=None)[1] if ids else 0


ORACLE_LATTICES = {
    **{f"pow{n}": (lambda n=n: build_powerset_lattice(n)) for n in range(1, 6)},
    "sub32": lambda: build_projective_lattice(3, 2),
    "sub42": lambda: build_projective_lattice(4, 2),
    "sub33": lambda: build_projective_lattice(3, 3),
    **{nm: (lambda nm=nm: build_named_lattice(nm)) for nm in ("M3", "N5", "L1", "L2")},
}


@pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
def test_max_code_matches_networkx_oracle(name):
    lat = ORACLE_LATTICES[name]()
    h = lat.total_height()
    bands = {(0, h), (1, h - 1), (h // 2, h // 2), (1, h // 2), (h // 2, h)}
    windows = [None] + sorted((lo, hi) for lo, hi in bands if lo <= hi)
    for d in range(1, 2 * h + 1):
        for window in windows:
            res = max_code(SearchProblem(lat, d, window))
            assert res.proven_optimal
            assert res.best_size == networkx_clique_number(lat, d, window), (d, window)


def test_max_code_sub2_d2(sub2):
    res = max_code(SearchProblem(sub2, 2))
    assert res.best_size == 3
    assert res.proven_optimal
    assert min_distance(make_scheme(sub2, res.members)) >= 2


def test_max_code_matches_brute_force_sub2(sub2):
    for d in range(1, 5):
        res = max_code(SearchProblem(sub2, d))
        assert res.proven_optimal
        assert res.best_size == brute_force_max(sub2, d), d


def test_max_code_matches_brute_force_pow3(pow3):
    for d in range(1, 7):
        res = max_code(SearchProblem(pow3, d))
        assert res.proven_optimal
        expected = brute_force_max(pow3, d)
        assert res.best_size == expected, d


def test_max_code_window_atoms(sub3):
    res = max_code(SearchProblem(sub3, 2, window=(1, 1)))
    assert res.best_size == 7  # atoms are pairwise at distance 2
    assert res.proven_optimal


def test_max_code_empty_window(sub3):
    res = max_code(SearchProblem(sub3, 2, window=(9, 9)))
    assert res.best_size == 0 and res.proven_optimal


def test_max_code_members_form_valid_scheme(sub3):
    res = max_code(SearchProblem(sub3, 3))
    s = make_scheme(sub3, res.members)
    assert min_distance(s) >= 3
    assert len(res.members) == res.best_size


def test_max_code_budget_exhaustion(n5):
    # greedy finds 2 here while the optimum is 3, so pruning cannot close
    # every branch within a single node
    full = max_code(SearchProblem(n5, 2))
    assert full.best_size == 3 and full.proven_optimal
    starved = max_code(SearchProblem(n5, 2, budget_nodes=1))
    assert not starved.proven_optimal
    assert starved.best_size == 2  # greedy incumbent survives
    assert starved.nodes == 1
    for budget in (2, full.nodes - 1):
        starved = max_code(SearchProblem(n5, 2, budget_nodes=budget))
        assert not starved.proven_optimal
        assert starved.nodes <= budget  # one count over all branches
    assert max_code(SearchProblem(n5, 2, budget_nodes=full.nodes)) == full


def test_max_code_deadline_stops_early():
    # about 8k nodes unbudgeted; the clock is read at the 4096th node
    res = max_code(SearchProblem(build_powerset_lattice(7), 3, budget_secs=1e-9))
    assert not res.proven_optimal
    assert res.nodes == 4096


def test_max_code_validation(sub2):
    with pytest.raises(ValueError):
        max_code(SearchProblem(sub2, 0))
    with pytest.raises(ValueError):
        max_code(SearchProblem(sub2, 2, window=(2, 1)))


# --- greedy -------------------------------------------------------------------------


def test_greedy_reaches_gv(pow4, sub3):
    for lat in (pow4, sub3):
        for d in (1, 2, 3):
            s = greedy_code(lat, d)
            assert s.size >= gv_lower_for_lattice(lat, d)
            if s.size >= 2:
                assert min_distance(s) >= d


def test_greedy_seeded(sub3):
    a = greedy_code(sub3, 2, seed=1)
    b = greedy_code(sub3, 2, seed=1)
    assert a.sorted_members() == b.sorted_members()


def test_greedy_window(sub3):
    s = greedy_code(sub3, 2, window=(1, 1))
    assert s.size == 7


# --- probe --------------------------------------------------------------------------


def test_probe_known_gap():
    row = conjecture_probe(2, 4, 2, 4)
    assert row.bound == 7
    assert row.best_size == 5
    assert row.gap == 2
    assert not row.attained
    assert row.proven_optimal
    assert not row.degenerate


def test_probe_attained_nondegenerate():
    # no atom pair reaches distance 3, and the punctured bound is also 1
    row = conjecture_probe(2, 4, 1, 3)
    assert row.alpha == 1
    assert row.bound == 1
    assert row.best_size == 1
    assert row.attained
    assert not row.degenerate


def test_probe_degenerate_flag():
    row = conjecture_probe(2, 3, 1, 1)
    assert row.degenerate  # puncture budget 0 makes the bound trivial
    assert row.bound == 7
    assert row.best_size == 7
    assert row.attained
