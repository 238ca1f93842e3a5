"""Lattice construction (L1) against independent references: the projective
order from linear algebra, and join/meet of every pair from the original
per-pair scan, on relabelled and non-lattice inputs too."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lattice_sb import (
    NotALatticeError,
    all_subspaces,
    build_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    sublattice_closure,
    subspace_to_text,
)
from lattice_sb.fq import subspace_id, subspace_name
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
    (lower) bounds; scanning pairs a <= b, join before meet.  Returns the
    (join, meet) tables, or the NotALatticeError message and pair."""
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
    for a in range(n):
        for b in range(a, n):
            pair = (names[a], names[b])
            ub = up[a] & up[b]
            j = next((c for c in iter_bits(ub) if up[c] & ub == ub), -1)
            if j < 0:
                return f"elements {pair[0]!r} and {pair[1]!r} have no least upper bound", pair
            lb = down[a] & down[b]
            m = next((c for c in sorted(iter_bits(lb), reverse=True) if down[c] & lb == lb), -1)
            if m < 0:
                return f"elements {pair[0]!r} and {pair[1]!r} have no greatest lower bound", pair
            join[a][b] = join[b][a] = j
            meet[a][b] = meet[b][a] = m
    return join, meet


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
    # upper bounds.  The pass fails at the covers p, r of 0; the error names
    # the scan's first pair, a and b, which cover no common element.
    names = ["a", "b", "0", "p", "r", "c", "d", "1"]
    i = {nm: x for x, nm in enumerate(names)}
    covers = [(i[lo], i[hi]) for lo, hi in
              [("0", "p"), ("p", "a"), ("0", "r"), ("r", "b"), ("a", "c"), ("a", "d"),
               ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]]
    want = ("elements 'a' and 'b' have no least upper bound", ("a", "b"))
    assert assert_matches_scan(names, covers) == want


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
