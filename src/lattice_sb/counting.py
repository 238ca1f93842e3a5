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


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def check_field(q: int):
    if not is_prime(q):
        raise ValueError(f"q must be a prime, got {q}")


def check_family(family: str, n: int, q: int | None):
    """The one check of a family's parameters: a known family, n >= 0 and,
    for Sub(F_q^n), a q that is given and prime."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if family == "projective":
        if q is None:
            raise ValueError("projective family needs q")
        check_field(q)


def whitney_closed_form(family: str, n: int, k: int, q: int | None = None) -> int:
    """Height-k count for the power-set / projective family lattices."""
    check_family(family, n, q)
    return binomial(n, k) if family == "powerset" else gaussian(n, k, q)
