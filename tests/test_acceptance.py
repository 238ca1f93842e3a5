"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Stated time limits are asserted, so a pathologically slow
environment can fail a criterion on timing alone; limits are generous on a
warm laptop-class machine.
"""

import itertools
import time
from contextlib import contextmanager

from lattice_sb import (
    build_named_lattice,
    build_powerset_lattice,
    build_projective_lattice,
    classical_singleton,
    classify,
    enumerate_grassmannian,
    gaussian,
    gaussian_pascal,
    gv_lower_for_lattice,
    kks_bound,
    lifting_transform,
    log2_string,
    lsb,
    lsb_windowed,
    make_scheme,
    max_code,
    min_distance,
    puncture,
    puncture_budget,
    punctured_distance,
    SearchProblem,
    subspace_from_text,
    subspace_to_text,
    support_transform,
    verify_transform,
)
from lattice_sb.cli import fig5_rows
from lattice_sb.fq import rank, subspace_id


@contextmanager
def criterion(num, label, limit_secs=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {num:02d} {label}: PASS ({dt:.2f}s)")
    if limit_secs is not None:
        assert dt < limit_secs, f"criterion {num} exceeded {limit_secs}s ({dt:.2f}s)"


def hamming(u, v):
    return sum(1 for a, b in zip(u, v) if a != b)


def canon(text, n, q=2):
    return subspace_to_text(subspace_from_text(text, n, q))


# --- 1: the general bound collapses to the classical one on subsets -------------------


def test_criterion_01_powerset_equals_classical():
    with criterion(1, "power-set bound equals classical Singleton", 1.0):
        for n in range(1, 11):
            for d in range(1, n + 1):
                assert lsb("powerset", n, d) == classical_singleton(n, d) == 2 ** (n - d + 1)


# --- 2: windowed bound at a single height equals one Gaussian coefficient -------------


def test_criterion_02_window_recovers_constant_dimension_bound():
    with criterion(2, "single-height window equals Gaussian coefficient", 1.0):
        for q in (2, 3):
            for n in range(1, 9):
                for l in range(n + 1):
                    for d in range(1, 2 * l + 1):
                        a = puncture_budget(d, False)
                        if a > n:
                            continue
                        got = lsb_windowed("projective", n, d, l, l, q)
                        assert got == gaussian(n - a, l - a, q), (q, n, l, d)


# --- 3: the projective bound is the full Whitney sum ----------------------------------


def test_criterion_03_projective_bound_is_whitney_sum():
    with criterion(3, "projective bound equals sum of Gaussians"):
        for q in (2, 3):
            for n in range(1, 13):
                for d in range(1, 2 * n + 1):
                    a = puncture_budget(d, n <= 1)  # Sub(F_q^1) is a chain, distributive
                    if a > n:
                        continue
                    expected = sum(gaussian(n - a, k, q) for k in range(n - a + 1))
                    assert lsb("projective", n, d, q) == expected, (q, n, d)


# --- 4: subspace enumeration is complete and duplicate-free ---------------------------


def test_criterion_04_grassmannian_enumeration_counts():
    with criterion(4, "canonical enumeration matches Gaussian counts", 5.0):
        for n in range(5):
            for k in range(n + 1):
                subs = list(enumerate_grassmannian(n, k, 2))
                assert len(subs) == gaussian(n, k, 2), (n, k)
                assert len(set(subs)) == len(subs)
        assert len(list(enumerate_grassmannian(4, 2, 2))) == 35


# --- 5: classifier truth table ---------------------------------------------------------


def test_criterion_05_classifier_truth_table():
    with criterion(5, "classifier truth table on the six reference lattices"):
        expected = {
            # label: (jordan_dedekind, modular, distributive, geometric)
            "pow3": (True, True, True, True),
            "sub3": (True, True, False, True),
            "M3": (True, True, False, True),
            "N5": (False, False, False, False),
            "L1": (True, True, True, False),
            "L2": (True, True, False, False),
        }
        lats = {
            "pow3": build_powerset_lattice(3),
            "sub3": build_projective_lattice(3, 2),
            "M3": build_named_lattice("M3"),
            "N5": build_named_lattice("N5"),
            "L1": build_named_lattice("L1"),
            "L2": build_named_lattice("L2"),
        }
        for label, (jd, mod, dist, geo) in expected.items():
            got = classify(lats[label])
            assert got["jordan_dedekind"] == jd, label
            assert got["modular"] == mod, label
            assert got["distributive"] == dist, label
            assert got["geometric"] == geo, label


# --- 6: puncturing drops the distance by at most the per-step budget --------------------


def test_criterion_06_puncture_drop_suites():
    with criterion(6, "puncture drop bounded (1 distributive, 2 modular)", 30.0):
        # distributive side: every 2-element scheme in Pow(4), every coatom
        pow4 = build_powerset_lattice(4)
        coatoms = pow4.coatoms()
        for a, b in itertools.combinations(range(len(pow4)), 2):
            s = make_scheme(pow4, [a, b])
            d0 = s.min_dist
            for w in coatoms:
                after = puncture(s, w)
                drop = d0 - punctured_distance(s, after)
                assert 0 <= drop <= 1, (pow4.name(a), pow4.name(b), pow4.name(w))

        # modular side: every 2-element scheme in Sub(F_2^3), every coatom
        sub3 = build_projective_lattice(3, 2)
        coatoms = sub3.coatoms()
        for a, b in itertools.combinations(range(len(sub3)), 2):
            s = make_scheme(sub3, [a, b])
            d0 = s.min_dist
            for w in coatoms:
                after = puncture(s, w)
                drop = d0 - punctured_distance(s, after)
                assert 0 <= drop <= 2, (sub3.name(a), sub3.name(b), sub3.name(w))

        # and the drop of exactly 2 is realized
        a1 = sub3.name_to_id[canon("100/010", 3)]
        a2 = sub3.name_to_id[canon("101/010", 3)]
        w = sub3.name_to_id[canon("010/001", 3)]
        s = make_scheme(sub3, [a1, a2])
        after = puncture(s, w)
        assert s.min_dist == 2
        assert punctured_distance(s, after) == 0
        assert after.size == 1


# --- 7: the height distance is a metric exactly in the modular world --------------------


def test_criterion_07_metric_scope():
    with criterion(7, "height distance is a metric on modular lattices", 10.0):
        modular = [
            build_powerset_lattice(3),
            build_projective_lattice(3, 2),
            build_named_lattice("M3"),
            build_named_lattice("L1"),
            build_named_lattice("L2"),
        ]
        for lat in modular:
            n = len(lat)
            for x, y in itertools.product(range(n), repeat=2):
                assert lat.distance(x, y) == lat.distance(y, x)
                assert (lat.distance(x, y) == 0) == (x == y)
            for x, y, z in itertools.product(range(n), repeat=3):
                assert lat.distance(x, z) <= lat.distance(x, y) + lat.distance(y, z)

        # N5: heights are not a valuation and the triangle inequality breaks
        n5 = build_named_lattice("N5")
        assert not n5.is_valuation(n5.heights)
        a = n5.names.index("a")
        c = n5.names.index("c")
        d = n5.names.index("d")
        assert n5.distance(a, c) == 3
        assert n5.distance(a, d) + n5.distance(d, c) == 2
        assert n5.distance(a, c) > n5.distance(a, d) + n5.distance(d, c)

        # modularity is equivalent to Jordan-Dedekind plus height valuation
        all_six = modular + [n5]
        for lat in all_six:
            lhs = lat.is_modular()
            rhs = lat.has_jordan_dedekind() and lat.is_valuation(lat.heights)
            assert lhs == rhs


# --- 8: code-to-lattice transforms are isometries ----------------------------------------


def test_criterion_08_transforms_are_isometries():
    with criterion(8, "support and lifting transforms preserve distance"):
        # support transform: all of F_2^5 into Pow(5)
        pow5 = build_powerset_lattice(5)
        words = list(itertools.product([0, 1], repeat=5))
        wit = verify_transform(words, hamming, support_transform, pow5)
        assert wit.ok
        assert wit.pairs_checked == 32 * 31 // 2

        # lifting transform: all 2x2 matrices over F_2 into Sub(F_2^4),
        # where the subspace distance doubles rank(A - B)
        sub4 = build_projective_lattice(4, 2)
        mats = [
            [[a, b], [c, d]]
            for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
        ]
        ids = [subspace_id(sub4, lifting_transform(m, 2)) for m in mats]
        assert len(set(ids)) == 16
        pairs = 0
        for i, j in itertools.combinations(range(16), 2):
            diff = [
                [(mats[i][r][s] - mats[j][r][s]) % 2 for s in range(2)]
                for r in range(2)
            ]
            assert sub4.distance(ids[i], ids[j]) == 2 * rank(diff, 2, 2)
            pairs += 1
        assert pairs == 120


# --- 9: lower bound <= exact optimum <= upper bound ----------------------------------------


def test_criterion_09_sandwich():
    with criterion(9, "GV-type lower <= exact optimum <= bound"):
        for n in (2, 3):
            lat = build_projective_lattice(n, 2)
            for d in range(1, 2 * n + 1):
                a = puncture_budget(d, False)
                if a > n:
                    continue
                lo = gv_lower_for_lattice(lat, d)
                res = max_code(SearchProblem(lat, d))
                up = lsb("projective", n, d, 2)
                assert res.proven_optimal, (n, d)
                assert lo <= res.best_size <= up, (n, d)
        # the gap can be strict on both sides
        sub2 = build_projective_lattice(2, 2)
        res = max_code(SearchProblem(sub2, 2))
        assert gv_lower_for_lattice(sub2, 2) == 2
        assert res.best_size == 3
        assert lsb("projective", 2, 2, 2) == 5


# --- 10: the bound curve is reproducible two independent ways ------------------------------


def test_criterion_10_curve_dual_route():
    with criterion(10, "bound curve identical via product and recurrence routes"):
        rows = fig5_rows(2, 4, 4, 20)
        assert len(rows) == 17
        prev = 0
        for n, bound, _gv in rows:
            via_product = sum(gaussian(n - 1, k, 2) for k in range(n))
            via_pascal = sum(gaussian_pascal(n - 1, k, 2) for k in range(n))
            assert bound == via_product == via_pascal, n
            assert bound > prev, "curve must increase strictly"
            prev = bound
            assert log2_string(bound) != ""


# --- 11: probe of the constant-height bound at the first open gap --------------------------


def test_criterion_11_probe_open_gap():
    with criterion(11, "probe finds bound 7, optimum 5 at (q=2, n=4, l=2, d=4)", 60.0):
        bound = kks_bound(4, 2, 4, 2)
        runs = [max_code(SearchProblem(build_projective_lattice(4, 2), 4, (2, 2))) for _ in range(3)]
        res = runs[0]
        assert bound == 7
        assert res.best_size == 5
        assert bound - res.best_size == 2
        assert res.proven_optimal
        assert res.best_size != bound
        # repeated runs agree in every field, node counts included
        assert runs[0] == runs[1] == runs[2]
        # independent ceiling: 6 pairwise trivially-intersecting planes would
        # cover 18 of the 15 nonzero vectors of F_2^4, which is impossible
        assert 6 * (2**2 - 1) > 2**4 - 1
        assert 5 * (2**2 - 1) <= 2**4 - 1
