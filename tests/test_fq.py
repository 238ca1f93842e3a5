"""Prime-field linear algebra and the lattice builders that sit on it."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from lattice_sb import (
    CapExceeded,
    LatticeError,
    all_subspaces,
    build_lattice,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    enumerate_grassmannian,
    family_window,
    from_json,
    gaussian,
    greedy_code,
    max_code,
    parse_scheme_text,
    rref,
    scheme_to_text,
    SearchProblem,
    subspace_from_text,
    subspace_to_text,
    to_json,
    window_ids,
)
from lattice_sb import fq
from lattice_sb.fq import is_prime, subspace_id
from oracles import (
    contains_vector,
    full_space,
    rank,
    reduce_vector,
    subspace_intersect,
    subspace_leq,
    subspace_sum,
    zero_subspace,
)


def span_vectors(sub):
    """All vectors of a subspace over F_q by brute-force linear combination."""
    q, n = sub.q, sub.ambient
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(sub.rows)):
        v = [0] * n
        for c, row in zip(coeffs, sub.rows):
            for i in range(n):
                v[i] = (v[i] + c * row[i]) % q
        out.add(tuple(v))
    return out


# --- rref -------------------------------------------------------------------------


def test_rref_known_example():
    s = rref([(1, 1, 0), (0, 1, 1)], 3, 2)
    assert s.rows == ((1, 0, 1), (0, 1, 1))
    assert s.dim == 2


def test_rref_drops_dependent_rows():
    s = rref([(1, 0), (1, 0), (0, 0)], 2, 2)
    assert s.rows == ((1, 0),)


def test_rref_canonical_for_equal_spans():
    a = rref([(1, 2, 0), (0, 1, 1)], 3, 3)
    b = rref([(1, 0, 1), (0, 2, 2)], 3, 3)  # row ops of the same span
    assert span_vectors(a) == span_vectors(b)
    assert a == b


@given(st.data())
def test_rref_idempotent(data):
    q = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=0, max_value=n))
    entries = st.integers(min_value=0, max_value=q - 1)
    rows = data.draw(st.lists(st.tuples(*[entries] * n), min_size=k, max_size=k))
    s = rref(rows, n, q)
    assert rref(s.rows, n, q) == s


def test_rref_reduces_entries_mod_q():
    assert rref([(2, 0)], 2, 2).dim == 0
    assert rref([(3, 0)], 2, 2).rows == ((1, 0),)


def test_rref_validates_shape_and_field():
    with pytest.raises(ValueError):
        rref([(1, 0, 0)], 2, 2)
    with pytest.raises(ValueError):
        rref([(1,)], 1, 4)  # 4 is not prime


def test_is_prime():
    assert [p for p in range(2, 12) if is_prime(p)] == [2, 3, 5, 7, 11]
    assert not is_prime(1)


# --- membership, sum, intersection -------------------------------------------------


def test_contains_and_reduce():
    s = rref([(1, 0, 1), (0, 1, 1)], 3, 2)
    assert contains_vector(s, (1, 1, 0))
    assert not contains_vector(s, (0, 0, 1))
    assert reduce_vector(s, (1, 0, 1)) == (0, 0, 0)


def test_leq_matches_membership():
    subs = list(all_subspaces(3, 2))
    for a, b in itertools.product(subs, repeat=2):
        expected = span_vectors(a) <= span_vectors(b)
        assert subspace_leq(a, b) == expected


def test_sum_and_intersection_against_brute_force():
    subs = list(all_subspaces(3, 2))
    for a, b in itertools.product(subs, repeat=2):
        vs = span_vectors(a) & span_vectors(b)
        inter = subspace_intersect(a, b)
        assert span_vectors(inter) == vs
        total = subspace_sum(a, b)
        assert span_vectors(a) | span_vectors(b) <= span_vectors(total)
        assert a.dim + b.dim == total.dim + inter.dim


@given(st.data())
def test_dimension_formula_f3(data):
    subs = list(all_subspaces(2, 3))
    a = data.draw(st.sampled_from(subs))
    b = data.draw(st.sampled_from(subs))
    assert a.dim + b.dim == subspace_sum(a, b).dim + subspace_intersect(a, b).dim


def test_zero_and_full():
    z = zero_subspace(3, 2)
    f = full_space(3, 2)
    assert z.dim == 0 and f.dim == 3
    assert subspace_leq(z, f)
    assert rank([(1, 1, 1), (1, 1, 0)], 3, 2) == 2


# --- enumeration --------------------------------------------------------------------


def test_grassmannian_counts_match_gaussian():
    for n in range(5):
        for k in range(n + 1):
            got = list(enumerate_grassmannian(n, k, 2))
            assert len(got) == gaussian(n, k, 2)
            assert len(set(got)) == len(got)
    for n in range(4):
        for k in range(n + 1):
            assert len(list(enumerate_grassmannian(n, k, 3))) == gaussian(n, k, 3)
    for k in (-1, 4):
        assert list(enumerate_grassmannian(3, k, 2)) == []


def test_grassmannian_rows_are_canonical():
    for s in enumerate_grassmannian(4, 2, 2):
        assert rref(s.rows, 4, 2) == s


def test_grassmannian_deterministic_order():
    a = list(enumerate_grassmannian(4, 2, 3))
    b = list(enumerate_grassmannian(4, 2, 3))
    assert a == b


def test_all_subspaces_dim_ascending():
    dims = [s.dim for s in all_subspaces(3, 2)]
    assert dims == sorted(dims)
    assert len(dims) == 16


# --- text format --------------------------------------------------------------------


def test_text_round_trip():
    for s in all_subspaces(3, 2):
        assert subspace_from_text(subspace_to_text(s), 3, 2) == s
    for s in all_subspaces(2, 3):
        assert subspace_from_text(subspace_to_text(s), 2, 3) == s


def test_text_zero_subspace():
    assert subspace_to_text(zero_subspace(4, 2)) == "0000"


def test_text_rejects_bad_digits():
    with pytest.raises(ValueError):
        subspace_from_text("102", 3, 2)
    with pytest.raises(ValueError):
        subspace_from_text("10", 3, 2)
    with pytest.raises(ValueError):
        subspace_to_text(zero_subspace(2, 11))
    with pytest.raises(ValueError, match="q <= 7"):
        subspace_from_text("10", 2, 11)


# --- lattice builders ----------------------------------------------------------------


def test_powerset_lattice_shape(pow4):
    assert len(pow4) == 16
    assert pow4.name(pow4.bottom) == "{}"
    assert pow4.name(pow4.top) == "{1,2,3,4}"
    assert pow4.name(0b0101) == "{1,3}"
    assert len(pow4.covers) == 4 * 2**3


def test_powerset_range_check():
    with pytest.raises(ValueError):
        build_powerset_lattice(-1)
    with pytest.raises(CapExceeded, match="0 <= n <= 20"):  # over any cap
        build_powerset_lattice(21, max_elements=10**7)
    with pytest.raises(CapExceeded):
        build_powerset_lattice(10)  # 1024 > default cap


@pytest.mark.parametrize("q", [2, 3])
def test_projective_lattice_of_the_zero_space(q):
    lat = build_projective_lattice(0, q)
    assert (len(lat), lat.total_height(), lat.family) == (1, 0, ("projective", 0, q))
    assert lat.bottom == lat.top == 0


def test_projective_lattice_shape(sub2, sub3):
    assert len(sub2) == 5
    assert len(sub3) == 16
    assert sub2.name(sub2.bottom) == "00"
    assert sub2.name(sub2.top) == "10/01"
    # ids follow all_subspaces order
    for i, s in enumerate(all_subspaces(3, 2)):
        assert sub3.name(i) == subspace_to_text(s)
        assert subspace_id(sub3, s) == i


@pytest.mark.parametrize("n, q", [(0, 2), (1, 2), (3, 2), (4, 2), (3, 3), (2, 5), (2, 11)])
def test_subspace_id_and_subspace_of_rank_in_closed_form(n, q):
    lat = build_projective_lattice(n, q)
    for i, s in enumerate(all_subspaces(n, q)):
        assert (subspace_id(lat, s), fq.subspace_of(lat, i)) == (i, s)
    for x in (-1, len(lat)):
        with pytest.raises(IndexError):
            fq.subspace_of(lat, x)
    with pytest.raises(KeyError):
        subspace_id(lat, full_space(n + 1, q))


def test_renamed_family_lattice_maps_a_subspace_to_the_same_id():
    m3 = build_named_lattice("M3")
    for i, s in enumerate(all_subspaces(2, 2)):
        assert (subspace_id(m3, s), fq.subspace_of(m3, i)) == (i, s)


def test_scheme_file_enumerates_the_space_once(monkeypatch):
    # the build lists each Grassmannian once; ids and subspaces are then
    # ranked and unranked in closed form, reading and writing alike
    dims = []
    grassmannian = fq.enumerate_grassmannian
    monkeypatch.setattr(fq, "enumerate_grassmannian", lambda n, k, q: dims.append(k) or grassmannian(n, k, q))
    text = "q=2 n=4\n1000/0100\n1010/0101\n0010/0001\n"
    assert scheme_to_text(parse_scheme_text(text)) == text
    assert dims == [0, 1, 2, 3, 4]


def test_projective_cover_means_one_dim_step(sub3):
    for lo, hi in sub3.covers:
        assert sub3.height(hi) == sub3.height(lo) + 1


@pytest.mark.parametrize("n, q", [(0, 2), (1, 3), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5), (2, 7)])
def test_projective_covers_are_the_dimension_steps(n, q):
    # the keyed scan finds exactly the nested pairs of consecutive dimensions,
    # decided here by elimination
    lat = build_projective_lattice(n, q, max_elements=200)
    subs = list(all_subspaces(n, q))
    want = sorted((a, b) for a, sa in enumerate(subs) for b, sb in enumerate(subs)
                  if sb.dim == sa.dim + 1 and subspace_leq(sa, sb))
    assert list(lat.covers) == want


def test_projective_cap():
    with pytest.raises(CapExceeded, match="raise via max_elements"):
        build_projective_lattice(5, 2)
    lat = build_projective_lattice(5, 2, max_elements=400)
    assert len(lat) == 374


@pytest.mark.parametrize("n, q", [(0, 2), (1, 7), (3, 2), (4, 3), (2, 11), (3, 5)])
def test_point_masks_hold_the_points_of_each_subspace(n, q):
    # one bit per 1-space, in id order, so no mask is longer than [n]_q
    subs = list(all_subspaces(n, q))
    points = [s for s in subs if s.dim == 1]
    masks = fq._point_masks(subs)
    assert all(mask.bit_length() <= gaussian(n, 1, q) for mask in masks)
    for s, mask in zip(subs, masks):
        assert mask == sum(1 << i for i, p in enumerate(points) if subspace_leq(p, s))


def test_projective_rejects_nonprime():
    with pytest.raises(ValueError):
        build_projective_lattice(3, 4)


def over_cap(n, q, cap):
    return f"Sub(F_{q}^{n}) has more than {cap} elements; cap is {cap} (raise via max_elements)"


def test_projective_cap_count_stops_past_the_cap(monkeypatch):
    # one level at a time, stopping once the count passes the cap
    levels = []
    row = fq.whitney_row

    def recorded(family, n, q):  # the row, noting each level pulled from it
        for k, level in enumerate(row(family, n, q)):
            levels.append(k)
            yield level

    monkeypatch.setattr(fq, "whitney_row", recorded)
    with pytest.raises(CapExceeded, match=f"^{re.escape(over_cap(5, 2, 128))}$"):
        build_projective_lattice(5, 2)
    assert levels == [0, 1, 2]  # 1 + 31 + 155 > 128
    # Sub(F_q^n) has at least 2^n elements: n above the cap's bit length counts no level
    levels.clear()
    for n, q, cap in ((9, 2, 255), (200, 2, None), (100_000, 3, None), (10**50, 2, 10**9)):
        with pytest.raises(CapExceeded) as e:
            fq.family_size("projective", n, q, cap)
        assert str(e.value) == over_cap(n, q, cap or 128) and len(str(e.value)) < 200
    assert levels == []


@pytest.mark.parametrize("n, q, cap, size", [(2, 2, 4, 5), (2, 3, 5, 6), (0, 2, 0, 1), (3, 2, 15, 16)])
def test_projective_cap_names_a_finished_count(n, q, cap, size):
    # the top level is one element, so a count that reached it is at most cap + 1
    with pytest.raises(CapExceeded, match=f"^{re.escape(f'Sub(F_{q}^{n}) has {size} elements; cap is {cap}')}"):
        fq.family_size("projective", n, q, cap)
    assert fq.family_size("projective", n, q, size) == size


# --- family windows ------------------------------------------------------------------


def built_family(family, n, q):
    if family == "powerset":
        return build_powerset_lattice(n, max_elements=400)
    return build_projective_lattice(n, q, max_elements=400)


def all_windows(n):
    return [None] + [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]


FAMILIES = ([("powerset", n, None) for n in range(9)] + [("projective", n, 2) for n in range(6)]
            + [("projective", n, 3) for n in range(5)])


@pytest.mark.parametrize("family, n, q", FAMILIES,
                         ids=[f"{f[:3]}{n}{q or ''}" for f, n, q in FAMILIES])
def test_family_window_matches_built_lattice(family, n, q):
    lat = built_family(family, n, q)
    for window in all_windows(n):
        win = family_window(family, n, q, window, max_elements=400)
        ids = window_ids(lat, window)  # local id i is lattice id ids[i]
        assert len(win) == len(ids)
        assert win.names == tuple(lat.names[x] for x in ids)
        assert win.heights == tuple(lat.heights[x] for x in ids)
        assert [win.height(i) for i in range(len(win))] == list(win.heights)
        assert (win.family, win.total_height()) == (lat.family, lat.total_height())
    # the full window is the whole lattice, id for id: every pairwise distance
    win = family_window(family, n, q, None, max_elements=400)
    everyone = range(len(lat))
    for a in everyone:
        assert win.distances(a, everyone) == lat.distances(a, everyone)
        b = len(lat) - 1 - a
        assert win.distance(a, b) == lat.distance(a, b)


def test_low_projective_window_enumerates_only_its_dimensions(monkeypatch):
    # the subspaces up to dimension M are a prefix of the id order, so a low
    # window of Sub(F_2^6) keeps the names, heights and point masks that the
    # whole enumeration gives its elements
    subs = list(all_subspaces(6, 2))
    masks = fq._point_masks(subs)
    kept = [i for i, s in enumerate(subs) if s.dim == 2]
    dims = []
    grassmannian = fq.enumerate_grassmannian
    monkeypatch.setattr(fq, "enumerate_grassmannian", lambda n, k, q: dims.append(k) or grassmannian(n, k, q))
    win = family_window("projective", 6, 2, (2, 2), 3000)
    assert dims == [0, 1, 2]
    assert win.names == tuple(fq.subspace_name(subs[i]) for i in kept)
    assert win.heights == (2,) * len(kept) and len(kept) == gaussian(6, 2, 2)
    assert win._masks == tuple(masks[i] for i in kept)


def test_at_least_reads_bit_sliced_counts():
    # positions 0, 1 and 2 are held by 3, 1 and 0 of the bitsets; no count reaches 4 or 8
    counters = fq._bit_sliced_sum([0b011, 0b001, 0b001])
    assert [fq._at_least(counters, k) for k in (1, 2, 3, 4, 8)] == [0b011, 0b001, 0b001, 0, 0]


@pytest.mark.parametrize("args", [("powerset", 9, None, None, None), ("powerset", -1, None, None, None),
                                  ("powerset", 21, None, None, 10**7),
                                  ("projective", 5, 2, (1, 2), None), ("projective", 3, 4, None, None),
                                  ("projective", -1, 2, None, None)])
def test_family_window_raises_as_the_builder(args):
    family, n, q, window, cap = args
    with pytest.raises(ValueError) as built:
        if family == "powerset":
            build_powerset_lattice(n, cap)
        else:
            build_projective_lattice(n, q, cap)
    with pytest.raises(type(built.value), match=f"^{re.escape(str(built.value))}$"):
        family_window(family, n, q, window, cap)


@pytest.mark.parametrize("family, q", [("powerset", None), ("projective", 2)])
@pytest.mark.parametrize("window", [(2, 1), (0, 4), (-1, 1)])
def test_family_window_rejects_a_window_outside_the_heights(family, q, window):
    with pytest.raises(ValueError, match=r"^need 0 <= m <= M <= n$"):
        family_window(family, 3, q, window)


@pytest.mark.parametrize("family, q", [("powerset", None), ("projective", 2)])
@pytest.mark.parametrize("made, asked", [((2, 2), (1, 3)), ((2, 2), None), ((1, 3), (2, 2)), (None, (1, 3))])
def test_family_window_refuses_another_window(family, q, made, asked):
    # the window holds only the elements it was made for, so searching it
    # with another window would prove a wrong optimum
    win = family_window(family, 3, q, made)
    assert win.window == (made or (0, 3))
    for call in (lambda: window_ids(win, asked), lambda: max_code(SearchProblem(win, 2, asked)),
                 lambda: greedy_code(win, 2, window=asked)):
        with pytest.raises(ValueError, match=r"^family window holds heights"):
            call()


@pytest.mark.parametrize("made, asked", [(None, (0, 3)), ((0, 3), None)])
def test_family_window_reads_none_as_the_whole_window(made, asked):
    assert window_ids(family_window("projective", 3, 2, made), asked) == list(range(16))


@pytest.mark.parametrize("family", ["bogus", "powerst", "Projective"])
def test_unknown_family_is_refused(family):
    with pytest.raises(ValueError, match=f"^unknown family: {family!r}$"):
        fq.family_size(family, 3, 2)
    with pytest.raises(ValueError, match=f"^unknown family: {family!r}$"):
        family_window(family, 3, 2)


# --- named lattices ------------------------------------------------------------------


def test_named_m3(m3):
    assert sorted(m3.names) == ["A", "B", "C", "I", "O"]
    ats = m3.atoms()
    assert len(ats) == 3
    for a, b in itertools.combinations(ats, 2):
        assert m3.join(a, b) == m3.top
        assert m3.meet(a, b) == m3.bottom


def test_named_n5(n5):
    assert n5.total_height() == 3
    hs = sorted(n5.height(x) for x in range(5))
    assert hs == [0, 1, 1, 2, 3]


def test_named_l1(l1):
    assert [l1.name(x) for x in sorted(range(4), key=l1.height)] == [
        "{}",
        "{1}",
        "{1,2}",
        "{1,2,3}",
    ]


def test_named_l2(l2):
    assert len(l2) == 7
    assert l2.name(l2.bottom) == "0"
    assert l2.name(l2.top) == "V"
    assert sorted(l2.name(x) for x in l2.atoms()) == ["<1>", "<2>", "<3>"]
    assert sorted(l2.name(x) for x in l2.coatoms()) == ["<1,3>", "<3,5>"]
    # the plane <3,5> has a single atom below it, so L2 is not geometric
    a35 = l2.names.index("<3,5>")
    below = [x for x in l2.atoms() if l2.leq(x, a35)]
    assert len(below) == 1
    assert not l2.is_geometric()


def test_family_provenance(pow4, sub3, m3, n5, l1, l2):
    # only the family builders record a family (M3 is Sub(F_2^2) renamed);
    # rebuilds, JSON round trips and sublattices carry none
    assert pow4.family == ("powerset", 4, None)
    assert sub3.family == ("projective", 3, 2)
    assert build_projective_lattice(2, 3).family == ("projective", 2, 3)
    assert m3.family == ("projective", 2, 2)
    for lat in (n5, l1, l2):
        assert lat.family is None
    for lat in (pow4, sub3, m3):
        assert build_lattice(lat.names, lat.covers).family is None
        assert from_json(to_json(lat)).family is None


def test_named_unknown():
    with pytest.raises(LatticeError, match="M3"):
        build_named_lattice("Q9")
