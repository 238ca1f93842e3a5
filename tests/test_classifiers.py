"""Structure predicates and lsb_for_lattice against brute-force references,
on generated lattices as well as the stock ones."""

import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lattice_sb import (
    SearchProblem,
    build_lattice,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    from_json,
    gv_lower_for_lattice,
    lsb_for_lattice,
    max_code,
    puncture_budget,
    sublattice_closure,
)

SUB24 = build_projective_lattice(4, 2)
SUB33 = build_projective_lattice(3, 3)
POW5 = build_powerset_lattice(5)

# Atomistic but not graded, so not geometric: c is a coatom of height 1 while
# x = a v b has height 2.
ATOMISTIC_UNGRADED = build_lattice(
    ["0", "a", "b", "c", "x", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
)


# --- brute-force references (the definitions, one triple or chain at a time) -----


def ref_distributive(lat):
    n = len(lat)
    j, m = lat.join, lat.meet
    return all(
        m(a, j(b, c)) == j(m(a, b), m(a, c)) and j(a, m(b, c)) == m(j(a, b), j(a, c))
        for a, b, c in itertools.product(range(n), repeat=3)
    )


def ref_modular(lat):
    n = len(lat)
    j, m = lat.join, lat.meet
    return all(
        j(a, m(b, c)) == m(j(a, b), c)
        for a, c in itertools.product(range(n), repeat=2)
        if lat.leq(a, c)
        for b in range(n)
    )


def ref_jordan_dedekind(lat):
    """From every a, the shortest and the longest cover path to each x >= a agree."""
    n = len(lat)
    lower = [[lo for lo, hi in lat.covers if hi == x] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(lat.downset(x)), x))
    for a in range(n):
        shortest, longest = {a: 0}, {a: 0}
        for x in order:
            if x == a or not lat.leq(a, x):
                continue
            preds = [p for p in lower[x] if lat.leq(a, p)]
            shortest[x] = min(shortest[p] for p in preds) + 1
            longest[x] = max(longest[p] for p in preds) + 1
            if shortest[x] != longest[x]:
                return False
    return True


def ref_geometric(lat):
    """Atomistic, and a, b covering a ^ b implies a v b covers a and b."""
    n = len(lat)
    cover = set(lat.covers)
    atoms = [x for x in range(n) if (lat.bottom, x) in cover]
    for x in range(n):
        acc = lat.bottom
        for t in atoms:
            if lat.leq(t, x):
                acc = lat.join(acc, t)
        if acc != x:
            return False
    for a, b in itertools.combinations(range(n), 2):
        m, j = lat.meet(a, b), lat.join(a, b)
        if (m, a) in cover and (m, b) in cover:
            if not ((a, j) in cover and (b, j) in cover):
                return False
    return True


def ref_lsb_for_lattice(lat, d, distributive):
    """Materialized puncturing: replace the lattice by the ideal of its least-id coatom."""
    a = puncture_budget(d, distributive)
    if a > lat.total_height():
        raise ValueError("puncture budget exceeds lattice height")
    cur = lat
    for _ in range(a):
        w = min(cur.coatoms())
        cur = sublattice_closure(cur, cur.downset(w))
    return len(cur)


# --- generated lattices -----------------------------------------------------------


def relabelled(lat, perm):
    """A JSON copy of lat whose element x gets id perm[x]."""
    names = [None] * len(lat)
    for x, nm in enumerate(lat.names):
        names[perm[x]] = nm
    covers = [[perm[lo], perm[hi]] for lo, hi in lat.covers]
    return from_json(json.dumps({"elements": names, "covers": covers}))


def family_lattice(sets, perm):
    """The inclusion order on a family of bitmask sets, ids permuted by perm."""
    sets = sorted(sets)
    covers = [(perm[i], perm[k]) for i, a in enumerate(sets) for k, b in enumerate(sets)
              if a != b and a & b == a]  # transitive edges are reduced by build_lattice
    names = [None] * len(sets)
    for i, s in enumerate(sets):
        names[perm[i]] = format(s, "b")
    return build_lattice(names, covers)


@st.composite
def union_closed(draw):
    """A union-closed family of subsets of {0..4} with the empty set, from random
    generators.  Every finite lattice is one of these up to isomorphism
    (x -> the meet-irreducibles not above x)."""
    gens = draw(st.lists(st.integers(1, 31), max_size=5))
    sets = {0}
    for g in gens:
        sets |= {s | g for s in sets}
    perm = draw(st.permutations(range(len(sets))))
    return family_lattice(sets, perm)


@st.composite
def birkhoff(draw):
    """The down-sets of a random poset on at most four points: distributive."""
    k = draw(st.integers(1, 4))
    below = [0] * k  # below[j]: bitmask of the points under j (transitively closed)
    for j in range(k):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= below[i] | 1 << i
    sets = [s for s in range(1 << k) if all(below[j] & s == below[j] for j in range(k) if s >> j & 1)]
    perm = draw(st.permutations(range(len(sets))))
    return family_lattice(sets, perm)


@st.composite
def modular_sublattice(draw):
    """The sublattice of Sub(F_2^4) or Sub(F_3^3) generated by at most three
    random elements: modular, at most 28 elements (the free modular lattice on
    three generators)."""
    base = draw(st.sampled_from([SUB24, SUB33]))
    seeds = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=3))
    return sublattice_closure(base, seeds)


lattices = st.one_of(union_closed(), birkhoff(), modular_sublattice())


@settings(max_examples=80, deadline=None)
@given(lattices)
@example(ATOMISTIC_UNGRADED)
@example(build_named_lattice("M3"))
@example(build_named_lattice("N5"))
@example(build_named_lattice("L1"))
@example(build_named_lattice("L2"))
def test_predicates_match_definitions(lat):
    assert lat.is_distributive() == ref_distributive(lat)
    assert lat.is_modular() == ref_modular(lat)
    assert lat.has_jordan_dedekind() == ref_jordan_dedekind(lat)
    assert lat.is_geometric() == ref_geometric(lat)


@settings(max_examples=15, deadline=None)
@given(birkhoff())
def test_birkhoff_lattices_are_distributive(lat):
    assert lat.is_distributive() and lat.is_modular()


# --- lsb_for_lattice walks down covers ----------------------------------------------


def _lsb_cases():
    """Sub(F_2^4), Sub(F_3^3), 2^[5] and three random sublattices of each, every
    one as a randomly relabelled JSON copy."""
    rng = random.Random(2013)
    cases = []
    for label, base in (("sub24", SUB24), ("sub33", SUB33), ("pow5", POW5)):
        lats = [base] + [sublattice_closure(base, rng.sample(range(len(base)), 3)) for _ in range(3)]
        for i, lat in enumerate(lats):
            copy = relabelled(lat, rng.sample(range(len(lat)), len(lat)))
            cases.append(pytest.param(copy, id=f"{label}-{i}"))
    return cases


@pytest.mark.parametrize("lat", _lsb_cases())
def test_lsb_for_lattice_matches_materialized_puncturing(lat):
    assert lat.is_modular()
    distributive = ref_distributive(lat)
    for d in range(1, 2 * lat.total_height() + 3):
        try:
            want = ref_lsb_for_lattice(lat, d, distributive)
        except ValueError:
            with pytest.raises(ValueError, match="exceeds lattice height"):
                lsb_for_lattice(lat, d)
            continue
        assert lsb_for_lattice(lat, d) == want, d


# --- the drop lemma -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(lattices)
@example(build_named_lattice("M3"))
@example(build_powerset_lattice(3))
def test_coatom_puncture_drops_distance_by_at_most_one_or_two(lat):
    """The paper's drop lemma: meeting a and b with a coatom w lowers
    d(a, b) by at most 1 on a distributive lattice and by at most 2 on a
    modular one, and never raises it."""
    assume(lat.is_modular())
    cap = 1 if lat.is_distributive() else 2
    for w in lat.coatoms():
        for a, b in itertools.combinations(range(len(lat)), 2):
            drop = lat.distance(a, b) - lat.distance(lat.meet(a, w), lat.meet(b, w))
            assert 0 <= drop <= cap, (lat.names[a], lat.names[b], lat.names[w])


# --- the bound sandwiches the optimum ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(lattices)
@example(build_named_lattice("M3"))
@example(build_named_lattice("L1"))
@example(build_named_lattice("L2"))
@example(build_powerset_lattice(4))
@example(build_projective_lattice(3, 2))
@example(build_projective_lattice(2, 3))
def test_gv_max_code_lsb_sandwich(lat):
    """gv <= max_code <= lsb_for_lattice, and 1 <= lsb_for_lattice, for every
    d the lattice can take, without a window and on every window."""
    assume(lat.is_modular())
    top = lat.total_height()
    windows = [None] + list(itertools.combinations_with_replacement(range(top + 1), 2))
    for d in range(1, 2 * top + 2):
        for window in windows:
            if puncture_budget(d, window is None and lat.is_distributive()) > top:
                continue
            upper = lsb_for_lattice(lat, d, window)
            res = max_code(SearchProblem(lat, d, window))
            assert res.proven_optimal
            assert upper >= 1, (d, window)
            assert gv_lower_for_lattice(lat, d, window) <= res.best_size <= upper, (d, window)
