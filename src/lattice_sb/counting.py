"""Exact counting: binomials, Gaussian binomials, Whitney numbers.

Everything returns exact Python ints; any log2 rendering happens at output
time only.
"""

from __future__ import annotations

from math import comb

from .lattice import Lattice

FAMILIES = ("powerset", "projective")


def binomial(n: int, k: int) -> int:
    """C(n, k) with the total convention: out-of-range k gives 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_nq(n: int, q: int):
    if n < 0:
        raise ValueError("n must be >= 0")
    if q < 2:
        raise ValueError("q must be >= 2")


def gaussian(n: int, k: int, q: int) -> int:
    """Count of k-dim subspaces of an n-dim space over a q-element field.

    Product formula; each partial product is itself a Gaussian binomial, so
    the stepwise integer division is exact.
    """
    _check_nq(n, q)
    if k < 0 or k > n:
        return 0
    r = 1
    for i in range(1, k + 1):
        r = r * (q ** (n - k + i) - 1) // (q ** i - 1)
    return r


def whitney(lat: Lattice) -> list[int]:
    """Element counts per height level of a built lattice."""
    counts = [0] * (lat.total_height() + 1)
    for h in lat.heights:
        counts[h] += 1
    return counts


def check_family(family: str, q: int | None):
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if family == "projective" and q is None:
        raise ValueError("projective family needs q")


def whitney_closed_form(family: str, n: int, k: int, q: int | None = None) -> int:
    """Height-k count for the power-set / projective family lattices."""
    check_family(family, q)
    return binomial(n, k) if family == "powerset" else gaussian(n, k, q)
