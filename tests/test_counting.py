"""Binomial and Gaussian counting, two independent routes each."""

import itertools
import math
import re

import pytest
from hypothesis import given, strategies as st

from lattice_sb import (
    binomial,
    build_powerset_lattice,
    build_projective_lattice,
    gaussian,
    whitney,
    whitney_closed_form,
)
from lattice_sb import counting, fq
from lattice_sb.counting import check_family, is_prime
from oracles import gaussian_pascal


# --- binomial ---------------------------------------------------------------------


def test_binomial_matches_subset_enumeration():
    for n in range(8):
        for k in range(n + 1):
            count = sum(1 for _ in itertools.combinations(range(n), k))
            assert binomial(n, k) == count


def test_binomial_total_convention():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_agrees_with_math_comb():
    for n in range(12):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)


# --- gaussian ---------------------------------------------------------------------


def test_gaussian_known_value():
    assert gaussian(4, 2, 2) == 35


def test_gaussian_total_convention():
    assert gaussian(4, 5, 2) == 0
    assert gaussian(4, -1, 2) == 0
    assert gaussian(0, 0, 2) == 1
    with pytest.raises(ValueError):
        gaussian(-1, 0, 2)
    with pytest.raises(ValueError):
        gaussian(3, 1, 1)


def test_gaussian_symmetry():
    for n in range(9):
        for k in range(n + 1):
            for q in (2, 3, 5):
                assert gaussian(n, k, q) == gaussian(n, n - k, q)


def test_product_and_pascal_routes_agree():
    for n in range(11):
        for k in range(-1, n + 2):
            for q in (2, 3, 5):
                assert gaussian(n, k, q) == gaussian_pascal(n, k, q), (n, k, q)


@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=16),
    st.sampled_from([2, 3, 5, 7]),
)
def test_gaussian_satisfies_pascal_recurrence(n, k, q):
    lhs = gaussian(n, k, q)
    rhs = gaussian(n - 1, k - 1, q) + q**k * gaussian(n - 1, k, q)
    assert lhs == rhs


def test_gaussian_counts_one_dimensional_subspaces():
    # [n 1]_q is the number of lines: (q^n - 1) / (q - 1)
    for n in range(1, 8):
        for q in (2, 3, 5):
            assert gaussian(n, 1, q) == (q**n - 1) // (q - 1)


# --- whitney ----------------------------------------------------------------------


def test_whitney_powerset(pow3, pow4):
    assert whitney(pow3) == [1, 3, 3, 1]
    assert whitney(pow4) == [1, 4, 6, 4, 1]


def test_whitney_projective(sub3):
    assert whitney(sub3) == [1, 7, 7, 1]


def test_whitney_l2(l2):
    assert whitney(l2) == [1, 3, 2, 1]


def test_whitney_closed_form_matches_materialized():
    for n in range(6):
        lat = build_powerset_lattice(n)
        got = whitney(lat)
        for k in range(n + 1):
            assert whitney_closed_form("powerset", n, k) == got[k]
    for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        lat = build_projective_lattice(n, q)
        got = whitney(lat)
        for k in range(n + 1):
            assert whitney_closed_form("projective", n, k, q) == got[k]


def test_whitney_closed_form_bad_family():
    with pytest.raises(ValueError):
        whitney_closed_form("simplicial", 3, 1)


# --- family parameters ------------------------------------------------------------


@pytest.mark.parametrize("family, n, q, text", [
    ("bogus", 3, 2, "unknown family: 'bogus'"),
    ("powerset", -1, None, "n must be >= 0, got -1"),
    ("projective", -2, 2, "n must be >= 0, got -2"),
    ("projective", 3, None, "projective family needs q"),
    ("projective", 3, 4, "q must be a prime, got 4"),
    ("projective", 0, 1, "q must be a prime, got 1"),
])
def test_check_family_refuses(family, n, q, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        check_family(family, n, q)


def test_check_family_accepts():
    for family, n, q in (("powerset", 0, None), ("powerset", 5, None), ("projective", 0, 2),
                         ("projective", 3, 7), ("projective", 10**6, 3)):
        check_family(family, n, q)


def test_fq_keeps_the_field_check():
    assert (fq.is_prime, fq.check_field) == (is_prime, counting.check_field)
