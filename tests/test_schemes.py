"""Schemes, puncturing, projection choosers, and code-to-lattice transforms."""

import itertools

import pytest

from lattice_sb import (
    LatticeError,
    build_powerset_lattice,
    build_projective_lattice,
    from_json,
    lifting_transform,
    make_scheme,
    min_distance,
    parse_scheme_text,
    puncture,
    puncture_project,
    punctured_distance,
    scheme_to_text,
    subspace_from_text,
    support_transform,
    to_json,
    verify_transform,
)
from lattice_sb.fq import subspace_id
from lattice_sb.schemes import parse_element


def hamming(u, v):
    return sum(1 for a, b in zip(u, v) if a != b)


# --- construction -------------------------------------------------------------------


def test_make_scheme_basics(pow3):
    s = make_scheme(pow3, [0b000, 0b111, 0b011])
    assert s.size == 3
    assert s.min_dist == 1  # d({1,2}, {1,2,3}) = 1
    assert (s.min_height, s.max_height) == (0, 3)


def test_make_scheme_dedupes(pow3):
    s = make_scheme(pow3, [0b101, 0b101])
    assert s.size == 1
    assert s.min_dist is None


def test_make_scheme_rejects_empty(pow3):
    with pytest.raises(ValueError):
        make_scheme(pow3, [])


def test_make_scheme_rejects_foreign_ids(pow3):
    with pytest.raises(ValueError):
        make_scheme(pow3, [0, 99])


def test_min_distance_singleton_raises(pow3):
    s = make_scheme(pow3, [0b010])
    with pytest.raises(ValueError, match="undefined minimum distance"):
        min_distance(s)


def test_min_distance_is_pairwise_minimum(sub3):
    members = [0, 5, len(sub3) - 1]
    s = make_scheme(sub3, members)
    expected = min(
        sub3.distance(a, b) for a, b in itertools.combinations(members, 2)
    )
    assert min_distance(s) == expected


# --- puncturing ---------------------------------------------------------------------


def test_puncture_merge_reports_zero(pow3):
    s = make_scheme(pow3, [0b000, 0b100])  # {} and {3}
    after = puncture(s, 0b011)  # meet with {1,2} merges both to {}
    assert after.size == 1
    assert punctured_distance(s, after) == 0


def test_puncture_powerset_drops_one(pow3):
    s = make_scheme(pow3, [0b000, 0b111])
    after = puncture(s, 0b011)
    assert min_distance(after) == 2
    assert punctured_distance(s, after) == 2


def test_puncture_two_subspaces_drop_two(sub3):
    # A1 = <e1,e2>, A2 = <e2,e1+e3>, W = <e2,e3>: distance 2 becomes 0
    a1 = sub3.name_to_id[subspace_too("100/010")]
    a2 = sub3.name_to_id[subspace_too("101/010")]
    w = sub3.name_to_id[subspace_too("010/001")]
    s = make_scheme(sub3, [a1, a2])
    assert min_distance(s) == 2
    after = puncture(s, w)
    assert after.size == 1
    assert punctured_distance(s, after) == 0


def subspace_too(text):
    # scheme ids in Sub(F_2^3) are keyed by canonical text, so canonicalize
    from lattice_sb import subspace_to_text

    return subspace_to_text(subspace_from_text(text, 3, 2))


def test_puncture_project_reaches_lower_height(sub3):
    a1 = sub3.name_to_id[subspace_too("100/001")]
    a2 = sub3.name_to_id[subspace_too("010/001")]
    w = a1
    s = make_scheme(sub3, [a1, a2])
    after = puncture_project(s, w, policy="least")
    assert after.size == 2
    assert after.max_height == 1
    assert punctured_distance(s, after) == 2


def test_puncture_project_policies(sub3):
    members = [sub3.name_to_id[subspace_too(t)] for t in ("100/010", "010/001", "100/001")]
    s = make_scheme(sub3, members)
    w = sub3.name_to_id[subspace_too("100/010")]
    least = puncture_project(s, w, policy="least")
    assert puncture_project(s, w, policy="least") == least  # deterministic
    r1 = puncture_project(s, w, policy="random", seed=7)
    r2 = puncture_project(s, w, policy="random", seed=7)
    assert r1 == r2  # seeded reproducibility
    with pytest.raises(ValueError):
        puncture_project(s, w, policy="maximal")


def test_puncture_project_image_contract(sub3):
    # every image sits one level below its member: the meet itself when the
    # member is off the coatom, a chosen lower element when it is on it, and
    # the bottom maps to itself
    w = sub3.coatoms()[0]
    for a, b in itertools.combinations(range(len(sub3)), 2):
        s = make_scheme(sub3, [a, b])
        after = puncture_project(s, w, policy="least")
        allowed = set()
        for m in (a, b):
            x = sub3.meet(m, w)
            target = sub3.height(m) - 1
            cands = [y for y in sub3.downset(x) if sub3.height(y) == target]
            if m == sub3.bottom:
                allowed.add(sub3.bottom)
            elif not sub3.leq(m, w):
                assert cands == [x]  # coatom meet already sits one level down
                allowed.add(x)
            else:
                assert cands and all(sub3.leq(y, m) for y in cands)
                allowed.update(cands)
        assert set(after.sorted_members()) <= allowed


# --- transforms ---------------------------------------------------------------------


def test_support_transform_mask():
    assert support_transform([1, 0, 1]) == 0b101
    assert support_transform([0, 0, 0]) == 0
    with pytest.raises(ValueError):
        support_transform([0, 2, 0])


def test_support_transform_is_isometry(pow4):
    words = list(itertools.product([0, 1], repeat=4))
    wit = verify_transform(
        words, hamming, lambda w: support_transform(w), pow4
    )
    assert wit.ok and wit.injective and wit.isometric
    assert wit.pairs_checked == 16 * 15 // 2
    assert wit.code_min_distance == wit.scheme_min_distance == 1


def test_verify_transform_reports_noninjective(pow3):
    words = [(0, 0, 0), (1, 1, 1)]
    wit = verify_transform(words, hamming, lambda w: 0, pow3)
    assert not wit.ok and not wit.injective
    assert "map to" in wit.failure


def test_verify_transform_reports_nonisometric(pow3):
    words = [(0, 0, 0), (1, 0, 0)]
    wit = verify_transform(words, hamming, lambda w: 0 if w == words[0] else 0b111, pow3)
    assert not wit.ok and wit.injective and not wit.isometric
    assert "mismatch" in wit.failure
    assert wit.code_min_distance is None


def test_lifting_transform_shape():
    a = lifting_transform([[1, 0], [1, 1]], 2)
    assert a.ambient == 4 and a.dim == 2
    # rows start with the identity block
    assert a.rows[0][:2] == (1, 0) and a.rows[1][:2] == (0, 1)


def test_lifting_transform_distance(sub4):
    # rank(A - B) controls the subspace distance: d = 2 * rank(A - B)
    a = lifting_transform([[0, 0], [0, 0]], 2)
    b = lifting_transform([[1, 0], [0, 0]], 2)
    c = lifting_transform([[1, 0], [0, 1]], 2)
    ia, ib, ic = (subspace_id(sub4, s) for s in (a, b, c))
    assert sub4.distance(ia, ib) == 2
    assert sub4.distance(ia, ic) == 4
    assert sub4.distance(ib, ic) == 2


# --- scheme files -------------------------------------------------------------------


def test_parse_binary_scheme():
    s = parse_scheme_text("# two words\n1100\n0011\n")
    assert s.size == 2
    assert min_distance(s) == 4


def test_parse_projective_scheme():
    s = parse_scheme_text("q=2 n=3\n100/010\n010/001\n")
    assert s.size == 2
    assert min_distance(s) == 2


def test_parse_rejects_mixed_width(sub3):
    with pytest.raises(LatticeError, match=r"bad element '01' \(need 3 binary digits\)"):
        parse_scheme_text("110\n01\n")
    # a bad subspace row is a LatticeError in a file and as a lone element
    for row, message in [("100/01", r"bad subspace row '01' \(need 3 digits\)"),
                         ("120", "entry out of range for q=2 in row '120'")]:
        with pytest.raises(LatticeError, match=message):
            parse_scheme_text(f"q=2 n=3\n100/010\n{row}\n")
        with pytest.raises(LatticeError, match=message):
            parse_element(row, sub3)


def test_parse_rejects_empty():
    with pytest.raises(LatticeError):
        parse_scheme_text("# nothing here\n")


def test_scheme_text_round_trip(pow3, sub3):
    s = make_scheme(pow3, [0b001, 0b110])
    text = scheme_to_text(s)
    again = parse_scheme_text(text)
    assert again.sorted_members() == s.sorted_members()

    t = make_scheme(sub3, [1, 8])
    text = scheme_to_text(t)
    again = parse_scheme_text(text)
    assert again.sorted_members() == t.sorted_members()


# n >= 1: the one element of 2^[0] or Sub(F_q^0) has no text in a scheme file
FAMILY_LATTICES = [("powerset", n, None) for n in range(1, 5)]
FAMILY_LATTICES += [("projective", n, 2) for n in range(1, 4)] + [("projective", 2, 3)]


@pytest.mark.parametrize("family", FAMILY_LATTICES, ids=str)
def test_scheme_text_round_trips_every_member(family):
    kind, n, q = family
    lat = build_powerset_lattice(n) if kind == "powerset" else build_projective_lattice(n, q)
    whole = make_scheme(lat, range(len(lat)))
    again = parse_scheme_text(scheme_to_text(whole))
    assert again.lattice.family == family
    assert again.members == whole.members
    for x in range(len(lat)):
        line = scheme_to_text(make_scheme(lat, [x])).splitlines()[-1]
        assert parse_element(line, lat) == x


@pytest.mark.parametrize("family", [("powerset", 0, None), ("projective", 0, 2)], ids=str)
def test_scheme_text_refuses_n0(family):
    # its text would be "\n" or "q=2 n=0\n\n", which parse_scheme_text refuses
    lat = build_powerset_lattice(0) if family[0] == "powerset" else build_projective_lattice(0, 2)
    assert lat.family == family
    with pytest.raises(ValueError, match="n = 0"):
        scheme_to_text(make_scheme(lat, [0]))


def test_scheme_text_round_trips_renamed_family_lattice(m3, sub2):
    """M3 is Sub(F_2^2) with display names O, A, B, C, I: its text is the
    subspace notation of Sub(F_2^2), not those names."""
    s = make_scheme(m3, [m3.name_to_id["B"], m3.name_to_id["C"]])
    text = scheme_to_text(s)
    assert text == scheme_to_text(make_scheme(sub2, s.members)) == "q=2 n=2\n10\n11\n"
    again = parse_scheme_text(text)
    assert again.lattice.family == m3.family
    assert again.members == s.members
    for line, x in zip(text.splitlines()[1:], s.sorted_members()):
        assert parse_element(line, m3) == x


def test_scheme_text_needs_a_family_lattice(pow3):
    lat = from_json(to_json(pow3))  # same order, no family
    with pytest.raises(ValueError, match="family"):
        scheme_to_text(make_scheme(lat, [0b001, 0b110]))
    with pytest.raises(ValueError, match="family"):
        parse_element("001", lat)
