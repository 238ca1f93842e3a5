"""Lattice construction (L1) against independent references: the projective
order from linear algebra, and join/meet of every pair from the original
per-pair scan, on relabelled and non-lattice inputs too."""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lattice_sb import (
    NAMED_LATTICES,
    FamilyWindow,
    LatticeError,
    NotALatticeError,
    all_subspaces,
    build_lattice,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    sublattice_closure,
    subspace_to_text,
    with_names,
)
from lattice_sb.fq import _build_family, subspace_id, subspace_name
from lattice_sb.lattice import iter_bits
from oracles import subspace_intersect, subspace_leq, subspace_sum
from test_classifiers import SUB24, SUB33, lattices

# --- Sub(F_q^n) against elimination -------------------------------------------------


@pytest.mark.parametrize("n, q", [(1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (2, 5), (2, 11)])
def test_projective_lattice_matches_linear_algebra(n, q):
    lat = build_projective_lattice(n, q)
    subs = list(all_subspaces(n, q))
    ids = {s: i for i, s in enumerate(subs)}
    assert lat.names == tuple(subspace_name(s) for s in subs)
    covers = sorted(
        (a, b)
        for a, sa in enumerate(subs)
        for b, sb in enumerate(subs)
        if sb.dim == sa.dim + 1 and subspace_leq(sa, sb)
    )
    assert list(lat.covers) == covers
    for a, sa in enumerate(subs):
        for b, sb in enumerate(subs):
            assert lat.join(a, b) == ids[subspace_sum(sa, sb)]
            assert lat.meet(a, b) == ids[subspace_intersect(sa, sb)]
            assert lat.leq(a, b) == subspace_leq(sa, sb)


@pytest.mark.parametrize("n", range(9))
def test_powerset_covers_add_one_point(n):
    lat = build_powerset_lattice(n, max_elements=256)
    covers = sorted((s, s | 1 << i) for s in range(1 << n) for i in range(n) if not s >> i & 1)
    assert list(lat.covers) == covers


def test_subspace_names():
    for s in all_subspaces(3, 3):
        assert subspace_name(s) == subspace_to_text(s)
    lat = build_projective_lattice(2, 11)
    assert lat.names[:3] == ("0,0", "1,0", "1,1")
    assert lat.name(lat.top) == "1,0/0,1"
    for i, s in enumerate(all_subspaces(2, 11)):
        assert subspace_id(lat, s) == i


# --- build_lattice against the original scan ----------------------------------------


def ref_tables(names, covers):
    """The original construction: up/down sets by id, and for each pair the
    first element in id order whose up-set (down-set) contains all common upper
    (lower) bounds.  Returns the (join, meet) tables, or, when some pair has
    no join or no meet, the NotALatticeError message and pair: the first
    pair of Hasse upper covers of a common element, by that element's id and
    then in combinations order of its ascending covers, with no least upper
    bound.  Asserts that a non-lattice has such a pair."""
    n = len(names)
    above = [{x} for x in range(n)]
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            if not above[hi] <= above[lo]:
                above[lo] |= above[hi]
                changed = True
    up = [sum(1 << y for y in s) for s in above]
    down = [sum(1 << y for y in range(n) if x in above[y]) for x in range(n)]
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        ub = up[a] & up[b]
        j = next((c for c in iter_bits(ub) if up[c] & ub == ub), -1)
        lb = down[a] & down[b]
        m = next((c for c in sorted(iter_bits(lb), reverse=True) if down[c] & lb == lb), -1)
        if j < 0 or m < 0:
            return cover_pair_fault(names, above)
        join[a][b] = join[b][a] = j
        meet[a][b] = meet[b][a] = m
    return join, meet


def cover_pair_fault(names, above):
    """The message and pair naming a non-lattice, from its up-sets alone."""
    for x in range(len(names)):
        strict = above[x] - {x}
        ups = sorted(y for y in strict if not any(y in above[z] for z in strict - {y}))
        for a, b in itertools.combinations(ups, 2):
            common = above[a] & above[b]
            if not any(above[c] >= common for c in common):
                pair = (names[a], names[b])
                return f"elements {pair[0]!r} and {pair[1]!r} have no least upper bound", pair
    raise AssertionError("a non-lattice in which every pair of covers has a join")


@st.composite
def bounded_posets(draw):
    """Random covers among up to six middle points, plus a bottom below and a
    top above all of them, with shuffled ids and cover order: some are
    lattices, many are not."""
    k = draw(st.integers(0, 6))
    inner = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1) if draw(st.booleans())]
    covers = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)] + inner
    if k == 0:
        covers = [(0, 1)]
    perm = draw(st.permutations(range(k + 2)))
    covers = draw(st.permutations([(perm[lo], perm[hi]) for lo, hi in covers]))
    names = [None] * (k + 2)
    for x in range(k + 2):
        names[perm[x]] = f"e{x}"
    return names, covers


@settings(max_examples=150, deadline=None)
@given(bounded_posets())
def test_build_lattice_matches_original_scan(poset):
    assert_matches_scan(*poset)


def assert_matches_scan(names, covers):
    """build_lattice agrees with ref_tables; returns ref_tables' result."""
    want = ref_tables(names, covers)
    if isinstance(want[0], str):
        with pytest.raises(NotALatticeError) as info:
            build_lattice(names, covers)
        assert (str(info.value), info.value.pair) == want
    else:
        lat = build_lattice(names, covers)
        n = len(names)
        assert [[lat.join(a, b) for b in range(n)] for a in range(n)] == want[0]
        assert [[lat.meet(a, b) for b in range(n)] for a in range(n)] == want[1]
    return want


def test_build_lattice_matches_scan_on_every_small_bounded_poset():
    # every order on up to five middle points (each is a DAG on 1..k with
    # edges from lower to higher index) between a bottom 0 and a top k + 1,
    # under one seeded relabelling of ids and covers
    rng = random.Random(15)
    seen = faults = 0
    for k in range(6):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            covers = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
            covers += [pair for pair, keep in zip(pairs, chosen) if keep]
            if k == 0:
                covers = [(0, 1)]
            perm = rng.sample(range(k + 2), k + 2)
            names = [None] * (k + 2)
            for x in range(k + 2):
                names[perm[x]] = f"e{x}"
            covers = [(perm[lo], perm[hi]) for lo, hi in covers]
            rng.shuffle(covers)
            seen += 1
            faults += isinstance(assert_matches_scan(names, covers)[0], str)
    assert seen == 1 + 1 + 2 + 8 + 64 + 1024
    assert 0 < faults < seen


def test_build_lattice_names_scan_pair_beyond_cover_pairs():
    # 0 < p < a, 0 < r < b, and a, b < c, d < 1: a and b have two minimal
    # upper bounds, and so do p and r.  a and b cover no common element; the
    # pass fails at the covers p, r of 0, and the error names them.
    names = ["a", "b", "0", "p", "r", "c", "d", "1"]
    i = {nm: x for x, nm in enumerate(names)}
    covers = [(i[lo], i[hi]) for lo, hi in
              [("0", "p"), ("p", "a"), ("0", "r"), ("r", "b"), ("a", "c"), ("a", "d"),
               ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]]
    want = ("elements 'p' and 'r' have no least upper bound", ("p", "r"))
    assert assert_matches_scan(names, covers) == want


def bowtie_over_powerset(n, fault):
    """2^[n] below a and b, which c covers, under a new top t; with fault, d
    covers a and b too, so a and b have two minimal upper bounds."""
    base = build_powerset_lattice(n, max_elements=1 << n)
    extra = ["a", "b", "c", "d", "t"] if fault else ["a", "b", "c", "t"]
    i = {nm: x for x, nm in enumerate(extra, len(base))}
    pairs = [("a", "c"), ("b", "c"), ("c", "t")] + [("a", "d"), ("b", "d"), ("d", "t")] * fault
    covers = [*base.covers, (base.top, i["a"]), (base.top, i["b"])] + [(i[lo], i[hi]) for lo, hi in pairs]
    return [*base.names, *extra], covers


def best_build_s(names, covers):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        try:
            build_lattice(names, covers)
        except NotALatticeError:
            pass
        best = min(best, time.perf_counter() - start)
    return best


def test_error_path_costs_no_more_than_validation():
    # 2,053 elements: the pass fails at the covers a, b of the power set's
    # top, the last element it looks at, and names them without a rescan
    clean = bowtie_over_powerset(11, fault=False)
    assert len(build_lattice(*clean)) == 2052
    names, covers = bowtie_over_powerset(11, fault=True)
    with pytest.raises(NotALatticeError) as info:
        build_lattice(names, covers)
    assert info.value.pair == ("a", "b")
    assert best_build_s(names, covers) <= 4 * best_build_s(*clean) + 0.05


@settings(max_examples=60, deadline=None)
@given(st.one_of(lattices, st.sampled_from([SUB24, SUB33])), st.randoms(use_true_random=False))
def test_build_lattice_tables_follow_relabelling(lat, rng):
    n = len(lat)
    perm = list(range(n))
    rng.shuffle(perm)  # old id -> new id
    names = [None] * n
    for x, nm in enumerate(lat.names):
        names[perm[x]] = nm
    covers = [(perm[lo], perm[hi]) for lo, hi in lat.covers]
    rng.shuffle(covers)
    new = build_lattice(names, covers)
    assert new.bottom == perm[lat.bottom] and new.top == perm[lat.top]
    assert set(new.covers) == set(covers)
    for a in range(n):
        assert new.heights[perm[a]] == lat.heights[a]
        assert new.downset(perm[a]) == sorted(perm[y] for y in lat.downset(a))
        assert new.upset(perm[a]) == sorted(perm[y] for y in lat.upset(a))
        for b in range(n):
            assert new.join(perm[a], perm[b]) == perm[lat.join(a, b)]
            assert new.meet(perm[a], perm[b]) == perm[lat.meet(a, b)]
            assert new.leq(perm[a], perm[b]) == lat.leq(a, b)
    # the closure of the same seed is the same sublattice, up to ids
    seed = rng.sample(range(n), rng.randint(1, min(3, n)))
    sub = sublattice_closure(lat, seed)
    new_sub = sublattice_closure(new, [perm[x] for x in seed])
    assert sorted(new_sub.names) == sorted(sub.names)
    assert named_covers(new_sub) == named_covers(sub)


def named_covers(lat):
    return {(lat.names[lo], lat.names[hi]) for lo, hi in lat.covers}


# --- the cover relation, held once --------------------------------------------------

STOCK = [*(build_named_lattice(nm) for nm in NAMED_LATTICES), build_powerset_lattice(0),
         build_powerset_lattice(4), build_projective_lattice(3, 2), SUB24, SUB33]


def assert_same_order(new, lat):
    assert new.covers == lat.covers
    assert new._lower_covers == lat._lower_covers
    assert new._upper_covers == lat._upper_covers
    assert new.heights == lat.heights


@settings(max_examples=60, deadline=None)
@given(st.one_of(lattices, st.sampled_from(STOCK)), st.randoms(use_true_random=False), st.data())
def test_repeated_and_transitive_pairs_build_the_same_lattice(lat, rng, data):
    """Covers given again, and pairs a < b that are not covers, in any order,
    leave the reduced covers, both per-element stores and the heights as the
    clean build has them; with_names keeps them."""
    n = len(lat)
    below = [(a, b) for a in range(n) for b in range(n) if a != b and lat.leq(a, b)]
    extra = data.draw(st.lists(st.sampled_from(below), max_size=2 * n)) if below else []
    pairs = list(lat.covers) * data.draw(st.integers(1, 3)) + extra
    rng.shuffle(pairs)
    new = build_lattice(lat.names, pairs)
    assert_same_order(new, lat)
    renamed = with_names(new, [f"e{x}" for x in range(n)])
    assert_same_order(renamed, lat)
    assert renamed._lower_covers is new._lower_covers


def traced_peak(build, *args):
    build(*args)  # fill the caches the first call fills
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build, args, bound_kb", [(build_projective_lattice, (5, 2, 400), 640),
                                                   (build_powerset_lattice, (10, 2000), 1300)])
def test_family_build_traced_peak_is_bounded(build, args, bound_kb):
    # the cover relation is held once, per element: no list, set or sorted
    # list of all the cover pairs is made on the way
    assert traced_peak(build, *args) < bound_kb * 1024


# --- family lattices from their atom masks --------------------------------------------

FAMILIES = ([("powerset", n, None) for n in range(9)] + [("projective", n, 2) for n in range(6)]
            + [("projective", n, 3) for n in range(5)] + [("projective", n, q) for q in (5, 7) for n in range(4)])


@pytest.mark.parametrize("family, n, q", FAMILIES)
def test_family_lattice_from_masks_equals_build_lattice(family, n, q):
    # the covers that build_lattice gets are found without masks: subset
    # containment on 2^[n], elimination on Sub(F_q^n)
    if family == "powerset":
        lat = build_powerset_lattice(n, 256)
        covers = [(s, t) for s in range(1 << n) for t in range(1 << n)
                  if s & t == s and t.bit_count() == s.bit_count() + 1]
    else:
        lat = build_projective_lattice(n, q, 400)
        subs = list(all_subspaces(n, q))
        covers = [(a, b) for a, sa in enumerate(subs) for b, sb in enumerate(subs)
                  if sb.dim == sa.dim + 1 and subspace_leq(sa, sb)]
    ref = build_lattice(lat.names, covers)
    assert (lat.names, lat.heights, lat.covers) == (ref.names, ref.heights, ref.covers)
    everyone = range(len(lat))
    for a in everyone:
        assert [lat.leq(a, b) for b in everyone] == [ref.leq(a, b) for b in everyone]
        assert [lat.join(a, b) for b in everyone] == [ref.join(a, b) for b in everyone]
        assert [lat.meet(a, b) for b in everyone] == [ref.meet(a, b) for b in everyone]


def window_of(masks, heights):
    """A family window that holds the given atom masks and heights."""
    top = max(heights)
    return FamilyWindow(("powerset", top, None), (0, top), [f"e{x}" for x in range(len(masks))],
                        heights, masks, range(top + 1))


def test_family_build_of_an_untampered_window():
    lat = _build_family(window_of([0, 0b01, 0b10, 0b11], [0, 1, 1, 2]))
    assert lat.covers == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_family_build_refuses_a_bowtie():
    # e3 and e4 both hold the atoms e1 and e2, so e1 and e2 have two minimal
    # upper bounds
    with pytest.raises(NotALatticeError) as info:
        _build_family(window_of([0, 0b01, 0b10, 0b11, 0b11, 0b11], [0, 1, 1, 2, 2, 3]))
    assert info.value.pair == ("e1", "e2")


def test_family_build_refuses_an_element_with_no_lower_cover():
    # e4 sits at height 2 on an atom that no height-1 element holds
    with pytest.raises(LatticeError, match="multiple minimal elements: 'e0', 'e4'"):
        _build_family(window_of([0, 0b001, 0b010, 0b011, 0b100, 0b111], [0, 1, 1, 2, 2, 3]))


# --- sublattice closure ----------------------------------------------------------------


def closure_by_all_pairs(lat, seed):
    """The ids of the closure of seed, joining and meeting every pair of the
    set again in each round, until a round adds nothing."""
    ids = set(seed)
    changed = True
    while changed:
        changed = False
        cur = sorted(ids)
        for i, a in enumerate(cur):
            for b in cur[i:]:
                for x in (lat.join(a, b), lat.meet(a, b)):
                    if x not in ids:
                        ids.add(x)
                        changed = True
    return sorted(ids)


def assert_closure_joins_each_pair_once(lat, seed):
    probe = with_names(lat, lat.names)
    joins = []
    probe.join = lambda a, b: joins.append((a, b)) or lat.join(a, b)
    sub = sublattice_closure(probe, seed)
    assert sub.names == tuple(lat.names[x] for x in closure_by_all_pairs(lat, seed))
    assert len(joins) <= len(sub) * (len(sub) + 1) // 2


@settings(max_examples=60, deadline=None)
@given(st.one_of(lattices, st.sampled_from(STOCK)), st.data())
def test_sublattice_closure_matches_the_all_pairs_rule(lat, data):
    assert_closure_joins_each_pair_once(lat, data.draw(st.lists(st.integers(0, len(lat) - 1), min_size=1,
                                                                 max_size=5)))


@pytest.mark.parametrize("seed, message", [([], "seed set is empty"),
                                           ([0, 9], "seed element 9 out of range")])
def test_sublattice_closure_rejects_a_bad_seed(seed, message):
    with pytest.raises(LatticeError, match=message):
        sublattice_closure(build_powerset_lattice(2), seed)


def test_sublattice_closure_of_twelve_points_of_2_9():
    # 288 elements: the all-pairs rule makes 75,973 joins for 41,616 pairs, this closure 41,328
    assert_closure_joins_each_pair_once(build_powerset_lattice(9, 512), random.Random(30).sample(range(512), 12))
