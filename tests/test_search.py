"""Branch-and-bound maximum-scheme search, greedy packing, and the
constant-dimension bound against the search optimum."""

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from lattice_sb import (
    SearchProblem,
    build_lattice,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    family_window,
    greedy_code,
    gv_lower_for_lattice,
    gv_lower_values,
    kks_bound,
    make_scheme,
    max_code,
    min_distance,
    puncture_budget,
    window_ids,
)
from lattice_sb.lattice import iter_bits
from lattice_sb.search import _BranchSearch, _build_graph, _greedy_mask, _start
from test_classifiers import lattices, relabelled


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


def family_free(lat):
    """The same lattice, same ids and same search tree, with no family: the
    search gets no anticode bound, only the packing cap."""
    return build_lattice(lat.names, lat.covers)


def run_search(build, d, window=None):
    return lambda: max_code(SearchProblem(build(), d, window))


def sub52():
    return build_projective_lattice(5, 2, max_elements=400)


def sub43():
    return build_projective_lattice(4, 3, max_elements=400)


def pow8():
    return build_powerset_lattice(8, max_elements=400)


def pow7():
    return build_powerset_lattice(7)


def relabelled_pow7():
    """2^[7] as a JSON copy with seeded random ids: its vertex order, and so
    its greedy start, differ from the family's."""
    lat = pow7()
    return relabelled(lat, random.Random(5).sample(range(len(lat)), len(lat)))


# (best_size, nodes) pinned: node counts change only with the algorithm.  The
# family lattices whose greedy start meets the anticode bound prove it at the
# root; their family-free rebuilds keep the full search's counts, except 2^[7]
# at d = 3, whose greedy start holds the Hamming code and meets the packing
# cap 128 / 8 = 16.  Its relabelled copy starts lower and stops in the search
# at the first branch that reaches 16.  A family window searches the family
# lattice's graph in the same order, so it keeps the family's counts.
@pytest.mark.parametrize(
    "run, best_size, nodes",
    [
        (run_search(lambda: family_free(sub52()), 2, (1, 2)), 155, 186),
        (run_search(lambda: family_free(sub43()), 2, (1, 2)), 130, 170),
        (run_search(lambda: family_free(sub43()), 4, (2, 2)), 10, 886),
        (run_search(lambda: family_free(pow8()), 4), 16, 17_700),
        (run_search(lambda: family_free(pow7()), 3), 16, 0),
        (run_search(relabelled_pow7, 3), 16, 436),
        (run_search(sub52, 2, (1, 2)), 155, 186),
        (run_search(sub43, 2, (1, 2)), 130, 170),
        (run_search(sub43, 4, (2, 2)), 10, 0),
        (run_search(pow8, 4), 16, 0),
        (run_search(pow7, 3), 16, 0),
        (run_search(lambda: family_window("projective", 5, 2, (1, 2), 400), 2, (1, 2)), 155, 186),
        (run_search(lambda: family_window("projective", 4, 3, (1, 2), 400), 2, (1, 2)), 130, 170),
        (run_search(lambda: family_window("projective", 4, 3, (2, 2), 400), 4, (2, 2)), 10, 0),
        (run_search(lambda: family_window("powerset", 8, None, None, 400), 4), 16, 0),
        (run_search(lambda: family_window("powerset", 7, None), 3), 16, 0),
    ],
    ids=["sub52-d2-w12", "sub43-d2-w12", "sub43-d4-w22", "pow8-d4", "pow7-d3", "json-pow7-d3",
         "family-sub52-d2-w12", "family-sub43-d2-w12", "family-sub43-d4-w22",
         "family-pow8-d4", "family-pow7-d3",
         "window-sub52-d2-w12", "window-sub43-d2-w12", "window-sub43-d4-w22",
         "window-pow8-d4", "window-pow7-d3"],
)
def test_max_code_pinned_node_counts(run, best_size, nodes):
    res = run()
    assert res.proven_optimal
    assert (res.best_size, res.nodes) == (best_size, nodes)


WINDOW_FAMILIES = ([("powerset", n, None) for n in range(6)] + [("projective", n, 2) for n in range(5)]
                   + [("projective", 3, 3), ("projective", 4, 3)])


def assert_same_graph(win, lat, d, window):
    """The family window's atom-bitset graph is the built lattice's per-pair
    graph."""
    ids = window_ids(lat, window)
    verts, adj, ball = _build_graph(win, d, window_ids(win, window))
    assert ([ids[i] for i in verts], adj, ball) == _build_graph(lat, d, ids), (d, window)


@pytest.mark.parametrize("family, n, q", WINDOW_FAMILIES,
                         ids=[f"{f[:3]}{n}{q or ''}" for f, n, q in WINDOW_FAMILIES])
def test_max_code_on_family_window_matches_built_lattice(family, n, q):
    # the same graph in the same vertex order, so the same search, node for
    # node; local id i of the window is lattice id ids[i]
    lat = build_powerset_lattice(n) if family == "powerset" else build_projective_lattice(n, q, 400)
    windows = [None] + list(itertools.combinations_with_replacement(range(n + 1), 2))
    for window in windows:
        win = family_window(family, n, q, window, 400)
        ids = window_ids(lat, window)
        for d in range(1, 2 * n + 2):
            assert_same_graph(win, lat, d, window)
        for d in range(1, n + 2):
            want = max_code(SearchProblem(lat, d, window, budget_nodes=20_000))
            got = max_code(SearchProblem(win, d, window, budget_nodes=20_000))
            assert got._replace(members=tuple(ids[i] for i in got.members)) == want, (d, window)
            for seed in (None, 3):
                greedy = greedy_code(win, d, seed, window)
                assert [ids[i] for i in greedy.sorted_members()] == \
                    greedy_code(lat, d, seed, window).sorted_members()


def test_planes_of_sub62_graph_matches_built_lattice():
    # the 651 2-dim subspaces of F_2^6
    lat = build_projective_lattice(6, 2, 3000)
    assert_same_graph(family_window("projective", 6, 2, (2, 2), 3000), lat, 4, (2, 2))


@functools.lru_cache(maxsize=None)
def built_family(family, n, q):
    return build_powerset_lattice(n) if family == "powerset" else build_projective_lattice(n, q, 400)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(st.just("powerset"), st.integers(0, 7), st.none()),
                 st.tuples(st.just("projective"), st.integers(0, 5), st.just(2)),
                 st.tuples(st.just("projective"), st.integers(0, 3), st.just(3))),
       st.data())
def test_distance_rows_of_family_window_match_built_lattice(case, data):
    """FamilyWindow.distance_rows equals Lattice.distance_rows of the built
    lattice on any window, d and list of window elements, in any order."""
    family, n, q = case
    lo = data.draw(st.integers(0, n))
    window = data.draw(st.none() | st.tuples(st.just(lo), st.integers(lo, n)))
    d = data.draw(st.integers(1, 2 * n + 1))
    win = family_window(family, n, q, window, 400)
    lat = built_family(family, n, q)
    ids = window_ids(lat, window)  # local id i of the window is lattice id ids[i]
    rng = data.draw(st.randoms(use_true_random=False))
    verts = rng.sample(range(len(win)), rng.randint(1, len(win)))
    assert win.distance_rows(verts, d) == lat.distance_rows([ids[i] for i in verts], d)


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


def height_order_start(lat, verts, adj):
    """The height-order greedy scheme alone, with no single-level seed."""
    return _greedy_mask(adj, range(len(verts)))


def uncapped_search(lat, d, window, start=_start):
    """(best_size, nodes) of the search with no cap, from the scheme that
    start(lat, verts, adj) gives (max_code's start by default), every branch
    run to its end."""
    verts, adj, _ = _build_graph(lat, d, window_ids(lat, window))
    _, size = start(lat, verts, adj)
    search = _BranchSearch(adj, 10**9, float("inf"))
    best = size
    for v in range(len(verts)):
        assert search.run(v, adj[v] & ~((1 << (v + 1)) - 1), size)
        best = max(best, search.best_size)
    return best, search.nodes


def assert_level_seed_only_prunes(lat):
    """On every d and every window of two or more levels, the best level's
    greedy start finds the same optimum in at most the reference's nodes."""
    h = lat.total_height()
    windows = [None] + list(itertools.combinations(range(h + 1), 2))
    for d in range(1, 2 * h + 1):
        for window in windows:
            res = max_code(SearchProblem(lat, d, window))
            best, nodes = uncapped_search(lat, d, window, height_order_start)
            assert res.proven_optimal
            assert res.best_size == best and res.nodes <= nodes, (d, window)


@pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
def test_level_seed_only_prunes_oracle_lattices(name):
    assert_level_seed_only_prunes(ORACLE_LATTICES[name]())


@settings(max_examples=40, deadline=None)
@given(lattices)
def test_level_seed_only_prunes_generated_modular(lat):
    assume(lat.is_modular())
    assert_level_seed_only_prunes(lat)


def assert_packing_cap_sound(lat):
    """On every d and every window: the ball count of _build_graph is the
    brute-force smallest ball, its cap holds on a modular lattice, and the
    search reports the uncapped optimum in at most the uncapped nodes."""
    h = lat.total_height()
    windows = [None] + list(itertools.combinations_with_replacement(range(h + 1), 2))
    for d in range(1, 2 * h + 2):
        t = (d - 1) // 2
        for window in windows:
            ids = window_ids(lat, window)
            verts, _, ball = _build_graph(lat, d, ids)
            assert ball == min(sum(lat.distance(x, y) <= t for y in ids) for x in ids), (d, window)
            best, nodes = uncapped_search(lat, d, window)
            if lat.is_modular():
                assert len(verts) // ball >= best, (d, window)
            res = max_code(SearchProblem(lat, d, window))
            assert res.proven_optimal
            assert res.best_size == best and res.nodes <= nodes, (d, window)


@pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
def test_packing_cap_sound_oracle_lattices(name):
    assert_packing_cap_sound(ORACLE_LATTICES[name]())


@settings(max_examples=40, deadline=None)
@given(lattices)
def test_packing_cap_sound_generated_modular(lat):
    assume(lat.is_modular())
    assert_packing_cap_sound(lat)


def test_packing_cap_needs_a_modular_lattice(n5):
    # N5, window (0, 1): the balls of the atoms a and c, {d, a} and {d, c},
    # overlap, so the count gives 3 // 2 = 1, but a and c lie at distance 3
    verts, _, ball = _build_graph(n5, 3, window_ids(n5, (0, 1)))
    assert len(verts) // ball == 1
    res = max_code(SearchProblem(n5, 3, (0, 1)))
    assert (res.best_size, res.proven_optimal) == (2, True)
    # 0 < x, y; y < z, w; x, z < c; c, w < 1.  In the window (0, 2) the
    # count gives 5 // 2 = 2, which the greedy start already has, but
    # {x, z, w} lie pairwise at distance >= 3
    lat = build_lattice("0 x y z w c 1".split(),
                        [(0, 1), (0, 2), (1, 5), (2, 3), (2, 4), (3, 5), (5, 6), (4, 6)])
    assert not lat.is_modular()
    verts, _, ball = _build_graph(lat, 3, window_ids(lat, (0, 2)))
    assert len(verts) // ball == 2
    res = max_code(SearchProblem(lat, 3, (0, 2)))
    assert (res.best_size, res.proven_optimal) == (3, True)
    assert [lat.names[x] for x in res.members] == ["x", "z", "w"]


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
    # a window outside the lattice heights is an input error on every
    # lattice and for every windowed call, not an empty search
    for lat in (sub3, family_free(sub3)):
        for window in ((9, 9), (2, 9), (2, 1)):
            with pytest.raises(ValueError, match="need 0 <= m <= M <= n"):
                max_code(SearchProblem(lat, 2, window=window))
            with pytest.raises(ValueError, match="need 0 <= m <= M <= n"):
                greedy_code(lat, 2, window=window)
            with pytest.raises(ValueError, match="need 0 <= m <= M <= n"):
                gv_lower_values(lat, [2], window)


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
    # 17,700 nodes unbudgeted; the clock is read at the 4096th node.  The
    # family lattice would be proven at the root by its anticode bound, so the
    # rebuild carries none; its packing cap, 256 // 9 = 28, stays above 16.
    res = max_code(SearchProblem(family_free(pow8()), 4, budget_secs=1e-9))
    assert not res.proven_optimal
    assert res.nodes == 4096


@pytest.mark.parametrize("budget", [{"budget_secs": 0}, {"budget_secs": -1}, {"budget_nodes": -5}])
def test_max_code_rejects_bad_budget(sub2, budget):
    # a zero time budget is not "no deadline", and a negative node budget is no budget
    (name,) = budget
    with pytest.raises(ValueError, match=name):
        max_code(SearchProblem(sub2, 2, **budget))


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


def reference_greedy(lat, d, seed=None, window=None):
    """The greedy packing by a direct distance loop over the vertex order."""
    order = sorted(window_ids(lat, window), key=lambda x: (lat.heights[x], x))
    if seed is not None:
        random.Random(seed).shuffle(order)
    chosen = []
    for x in order:
        if all(lat.distance(x, y) >= d for y in chosen):
            chosen.append(x)
    return sorted(chosen)


@pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
def test_greedy_matches_distance_loop(name):
    lat = ORACLE_LATTICES[name]()
    h = lat.total_height()
    windows = [None] + list(itertools.combinations_with_replacement(range(h + 1), 2))
    for d in range(1, 2 * h + 1):
        for window in windows:
            for seed in (None, 0, 1, 7):
                got = greedy_code(lat, d, seed, window).sorted_members()
                assert got == reference_greedy(lat, d, seed, window), (d, window, seed)


# --- constant-dimension bound against the search optimum ----------------------------


def probe(q, n, l, d):
    """(bound, alpha, search result) for the constant-dimension bound at
    height l of Sub(F_q^n)."""
    res = max_code(SearchProblem(build_projective_lattice(n, q), d, (l, l)))
    return kks_bound(n, l, d, q), puncture_budget(d, False), res


def test_probe_known_gap():
    bound, alpha, res = probe(2, 4, 2, 4)
    assert bound == 7
    assert res.best_size == 5
    assert bound - res.best_size == 2
    assert res.best_size != bound
    assert res.proven_optimal
    assert alpha != 0


def test_probe_attained_nondegenerate():
    # no atom pair reaches distance 3, and the punctured bound is also 1
    bound, alpha, res = probe(2, 4, 1, 3)
    assert alpha == 1
    assert bound == 1
    assert res.best_size == 1
    assert res.best_size == bound
    assert alpha != 0


def test_probe_degenerate_flag():
    bound, alpha, res = probe(2, 3, 1, 1)
    assert alpha == 0  # puncture budget 0 makes the bound trivial
    assert bound == 7
    assert res.best_size == 7
    assert res.best_size == bound
