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
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_nq(n: int, q: int):
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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


# The prime bases 2..41 of the Miller-Rabin test, and psi_13, the least
# composite that passes all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(q: int) -> bool:
    """Whether q is prime, exactly, for q < PRIME_LIMIT: a Miller-Rabin test
    on PRIME_BASES, which takes O(log q) multiplications per base.

    Raises ValueError for q >= PRIME_LIMIT, where the test is not exact.
    """
    if q >= PRIME_LIMIT:
        raise ValueError(f"q must be below {PRIME_LIMIT}, where primality is decided exactly, got {q}")
    if q < 2:
        return False
    for a in PRIME_BASES:
        if q % a == 0:
            return q == a
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = 2^s * odd
    for a in PRIME_BASES:
        x = pow(a, (q - 1) >> s, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
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
