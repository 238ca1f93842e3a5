"""Core lattice construction, validation, and classification."""

import itertools
import json
from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from lattice_sb import (
    CapExceeded,
    LatticeError,
    NotALatticeError,
    build_lattice,
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    classify,
    from_json,
    sublattice_closure,
    to_dot,
    to_json,
    with_names,
)
from lattice_sb.lattice import HeightExceeded, Lattice, check_cap, check_window
from oracles import is_isotone, is_positive_isotone, is_valuation

CHAIN3 = (["a", "b", "c"], [(0, 1), (1, 2)])


def popcount(x):
    return bin(x).count("1")


# --- construction and validation -------------------------------------------------


def test_chain_basics():
    lat = build_lattice(*CHAIN3)
    assert len(lat) == 3
    assert lat.bottom == 0 and lat.top == 2
    assert lat.total_height() == 2
    assert [lat.height(x) for x in range(3)] == [0, 1, 2]
    assert lat.join(0, 2) == 2 and lat.meet(0, 2) == 0


def test_duplicate_names_rejected():
    with pytest.raises(LatticeError, match="duplicate"):
        build_lattice(["x", "x"], [(0, 1)])


def test_bad_cover_indices_rejected():
    with pytest.raises(LatticeError):
        build_lattice(["a", "b"], [(0, 5)])
    with pytest.raises(LatticeError):
        build_lattice(["a", "b"], [(1, 1)])


Pair = namedtuple("Pair", "lo hi")


@pytest.mark.parametrize("entry", [(0, 1.9), (False, True), ("0", "1"), (0, 1, 5), (0,), 1, None, {0, 1},
                                   True, (0, True), Pair(0, 1.5)],
                         ids=["float", "bools", "strings", "triple", "single", "int", "none", "set",
                              "bool", "int and bool", "namedtuple"])
def test_cover_entry_that_is_not_two_ints_rejected(entry):
    # each of the first four was once truncated to the cover (0, 1)
    with pytest.raises(LatticeError) as exc:
        build_lattice(["a", "b"], [entry])
    assert str(exc.value) == f"bad cover entry: {entry!r}"


def test_namedtuple_of_two_ints_is_a_cover_entry():
    assert build_lattice(["a", "b"], [Pair(0, 1)]).covers == ((0, 1),)


@pytest.mark.parametrize("entry", ["[0, 1.5]", "[false, true]", '["0", "1"]', "[0, 1, 1]", "[0]",
                                   "1", "null", '"01"', '{"0": 0, "1": 1}'])
def test_from_json_cover_entry_that_is_not_two_ints_rejected(entry):
    text = f'{{"elements": ["a", "b"], "covers": [[0, 1], {entry}]}}'
    with pytest.raises(LatticeError) as exc:
        from_json(text)
    assert str(exc.value) == f"bad cover entry: {json.loads(entry)!r}"


def test_cycle_rejected():
    with pytest.raises(LatticeError, match="cycle"):
        build_lattice(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])


def test_two_maximal_elements_rejected():
    with pytest.raises(LatticeError, match="maximal"):
        build_lattice(["o", "x", "y"], [(0, 1), (0, 2)])


def test_two_minimal_elements_rejected():
    with pytest.raises(LatticeError, match="minimal"):
        build_lattice(["x", "y", "i"], [(0, 2), (1, 2)])


def test_missing_join_rejected():
    # a and b share two minimal upper bounds c, d: join(a, b) does not exist
    names = ["o", "a", "b", "c", "d", "i"]
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(NotALatticeError) as exc:
        build_lattice(names, covers)
    assert exc.value.pair is not None


def test_transitive_edges_are_dropped():
    lat = build_lattice(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    assert lat.covers == ((0, 1), (1, 2))


def test_disconnected_rejected():
    with pytest.raises(LatticeError):
        build_lattice(["a", "b"], [])


def test_singleton_lattice():
    lat = build_lattice(["*"], [])
    assert lat.bottom == lat.top == 0
    assert lat.total_height() == 0


# --- order structure --------------------------------------------------------------


def test_powerset_join_meet_are_union_intersection(pow3):
    for a, b in itertools.product(range(8), repeat=2):
        assert pow3.join(a, b) == a | b
        assert pow3.meet(a, b) == a & b
        assert pow3.leq(a, b) == (a & b == a)


def test_powerset_heights_and_distance(pow3):
    for x in range(8):
        assert pow3.height(x) == popcount(x)
    for a, b in itertools.product(range(8), repeat=2):
        assert pow3.distance(a, b) == popcount(a ^ b)


def test_atoms_coatoms(pow3):
    assert sorted(pow3.names[a] for a in pow3.atoms()) == ["{1}", "{2}", "{3}"]
    assert len(pow3.coatoms()) == 3
    assert pow3.downset(pow3.top) == list(range(8))
    assert pow3.upset(pow3.bottom) == list(range(8))


def test_downset_is_order_ideal(sub3):
    for x in range(len(sub3)):
        down = set(sub3.downset(x))
        for y in range(len(sub3)):
            assert (y in down) == sub3.leq(y, x)


def test_elements_at_height(sub3):
    assert [len(sub3.elements_at_height(k)) for k in range(4)] == [1, 7, 7, 1]


@given(st.data())
def test_lattice_laws_on_sampled_triples(data):
    lat = build_powerset_lattice(4)
    ids = st.integers(min_value=0, max_value=len(lat) - 1)
    a, b, c = data.draw(ids), data.draw(ids), data.draw(ids)
    assert lat.join(a, b) == lat.join(b, a)
    assert lat.meet(a, b) == lat.meet(b, a)
    assert lat.join(a, lat.join(b, c)) == lat.join(lat.join(a, b), c)
    assert lat.meet(a, lat.meet(b, c)) == lat.meet(lat.meet(a, b), c)
    assert lat.join(a, lat.meet(a, b)) == a
    assert lat.meet(a, lat.join(a, b)) == a


# --- valuations -------------------------------------------------------------------


def test_height_valuation_on_modular(pow3, sub3):
    for lat in (pow3, sub3):
        assert is_valuation(lat, lat.heights)
        assert is_positive_isotone(lat, lat.heights)


def test_height_valuation_fails_on_n5(n5):
    assert not is_valuation(n5, n5.heights)
    assert is_isotone(n5, n5.heights)


def test_constant_map_is_isotone_not_positive(pow3):
    v = [0] * len(pow3)
    assert is_isotone(pow3, v)
    assert not is_positive_isotone(pow3, v)


def test_valuation_length_mismatch(pow3):
    with pytest.raises(ValueError):
        is_valuation(pow3, [0, 1])


# --- classifiers ------------------------------------------------------------------


def test_classify_truth_table(pow3, m3, n5, l1, l2):
    table = {
        "pow3": (pow3, True, True, True, True),
        "M3": (m3, True, True, False, True),
        "N5": (n5, False, False, False, False),
        "L1": (l1, True, True, True, False),
        "L2": (l2, True, True, False, False),
    }
    for label, (lat, jd, mod, dist, geo) in table.items():
        got = classify(lat)
        assert got["jordan_dedekind"] == jd, label
        assert got["modular"] == mod, label
        assert got["distributive"] == dist, label
        assert got["geometric"] == geo, label


def test_classify_decides_upper_semimodularity_once(monkeypatch, sub3):
    # is_modular and is_geometric share one upper covering pass
    want, calls = classify(sub3), []
    covering, graded = Lattice._covering_condition, Lattice.has_jordan_dedekind
    monkeypatch.setattr(Lattice, "_covering_condition", lambda lat, upper: calls.append(upper) or covering(lat, upper))
    monkeypatch.setattr(Lattice, "has_jordan_dedekind", lambda lat: calls.append("jd") or graded(lat))
    lat = build_lattice(sub3.names, sub3.covers)  # a fresh copy: nothing decided yet
    assert classify(lat) == want
    assert sorted(map(str, calls)) == ["False", "True", "jd", "jd"]  # jd: classify's own, then the shared one


def test_check_window_tells_a_misfit_from_bad_input():
    assert check_window(None, 0) == (0, 0)
    assert check_window(None, 3) == (0, 3)  # None is every height
    assert check_window((0, 3), 3) == (0, 3)
    assert check_window((1, 2), 3) == (1, 2)
    with pytest.raises(HeightExceeded, match=r"^need 0 <= m <= M <= n$"):
        check_window((1, 4), 3)
    for window in ((2, 1), (-1, 1), (5, 4)):
        with pytest.raises(ValueError, match=r"^need 0 <= m <= M <= n$") as e:
            check_window(window, 3)
        assert type(e.value) is ValueError, window


def test_distributive_implies_modular(pow4, sub3, m3, n5, l1, l2):
    for lat in (pow4, sub3, m3, n5, l1, l2):
        if lat.is_distributive():
            assert lat.is_modular()


def test_jordan_dedekind_detects_n5(n5):
    assert not n5.has_jordan_dedekind()


# --- derived constructions --------------------------------------------------------


def test_sublattice_closure_powerset(pow3):
    # {1} and {2} force {1,2} and {} into the closure
    sub = sublattice_closure(pow3, [0b001, 0b010])
    assert sorted(sub.names) == ["{1,2}", "{1}", "{2}", "{}"]
    assert sub.is_distributive()


def test_sublattice_closure_is_idempotent(sub3):
    sub = sublattice_closure(sub3, list(range(len(sub3))))
    assert len(sub) == len(sub3)
    assert sub.covers == sub3.covers


def test_with_names(pow3, m3, l2):
    renamed = with_names(pow3, [f"v{i}" for i in range(8)])
    assert renamed.covers == pow3.covers
    assert renamed.name(renamed.top) == "v7"
    assert renamed.name_to_id["v5"] == 5
    with pytest.raises(LatticeError):
        with_names(pow3, ["too", "few"])
    with pytest.raises(LatticeError, match="distinct"):
        with_names(pow3, ["v0"] * 8)
    # renamed stock lattices give the joins and meets a full rebuild computes
    for lat in (m3, l2):
        rebuilt = build_lattice(lat.names, lat.covers)
        assert lat.heights == rebuilt.heights
        pairs = list(itertools.product(range(len(lat)), repeat=2))
        assert [lat.join(a, b) for a, b in pairs] == [rebuilt.join(a, b) for a, b in pairs]
        assert [lat.meet(a, b) for a, b in pairs] == [rebuilt.meet(a, b) for a, b in pairs]
        assert (lat.bottom, lat.top) == (rebuilt.bottom, rebuilt.top)


# --- serialization ----------------------------------------------------------------


def test_json_round_trip(l2):
    again = from_json(to_json(l2))
    assert again.names == l2.names
    assert again.covers == l2.covers
    assert classify(again) == classify(l2)


def test_json_is_stable(pow3):
    assert to_json(pow3) == to_json(pow3)
    payload = json.loads(to_json(pow3))
    assert set(payload) == {"elements", "covers"}


def test_from_json_rejects_malformed():
    with pytest.raises(LatticeError):
        from_json("[]")
    with pytest.raises(LatticeError):
        from_json(json.dumps({"elements": ["a"], "covers": [[0, "x"]]}))
    with pytest.raises(LatticeError):
        from_json("not json at all")
    for obj, message in [({"elements": [], "covers": []}, "a lattice needs at least one element"),
                         ({"elements": [0, 1], "covers": [[0, 1]]}, '"elements" must be a list of names'),
                         ({"elements": ["a"], "covers": {}}, '"covers" must be a list of')]:
        with pytest.raises(LatticeError, match=message):
            from_json(json.dumps(obj))


def test_to_dot(n5):
    dot = to_dot(n5)
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    for nm in n5.names:
        assert f'"{nm}"' in dot


# --- caps -------------------------------------------------------------------------


def test_cap_override():
    with pytest.raises(CapExceeded, match="raise via max_elements"):
        build_powerset_lattice(3, max_elements=4)
    assert len(build_powerset_lattice(3, max_elements=8)) == 8


def test_negative_cap_is_input_error():
    with pytest.raises(LatticeError, match="max_elements") as exc:
        build_powerset_lattice(2, max_elements=-1)
    assert not isinstance(exc.value, CapExceeded)


def test_from_json_cap(pow3):
    text = to_json(pow3)
    with pytest.raises(CapExceeded, match="8 elements; cap is 7"):
        from_json(text, max_elements=7)
    assert len(from_json(text, max_elements=8)) == 8
    assert len(from_json(text)) == 8  # no cap unless one is given


def test_check_cap_message_is_shared(pow3):
    """Every capped builder raises the one check_cap message, byte for byte."""
    check_cap(7, "seven", 7)  # at the cap is within it
    raise_hint = "(raise via max_elements)"
    cases = [
        (lambda: check_cap(8, "eight", 7), "eight has 8 elements; cap is 7"),
        (lambda: build_powerset_lattice(3, 7), "power-set lattice on 3 points has 8 elements; cap is 7"),
        (lambda: build_projective_lattice(2, 2, 4), "Sub(F_2^2) has 5 elements; cap is 4"),
        (lambda: from_json(to_json(pow3), 7), "lattice JSON has 8 elements; cap is 7"),
        # a named lattice counts its own elements, not those of the lattice it is cut from
        (lambda: build_named_lattice("M3", 4), "named lattice M3 has 5 elements; cap is 4"),
        (lambda: build_named_lattice("N5", 4), "named lattice N5 has 5 elements; cap is 4"),
        (lambda: build_named_lattice("L1", 3), "named lattice L1 has 4 elements; cap is 3"),
        (lambda: build_named_lattice("L2", 6), "named lattice L2 has 7 elements; cap is 6"),
    ]
    for call, message in cases:
        with pytest.raises(CapExceeded) as exc:
            call()
        assert str(exc.value) == f"{message} {raise_hint}"
    assert len(build_named_lattice("L2", 7)) == 7  # under Sub(F_2^3)'s 16
