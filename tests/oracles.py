"""Second implementations of library jobs, kept as independent test oracles.

The library decides each job one way; these routines decide the same things
another way, and only the tests call them.

The projective lattice takes its order from point masks: a subspace is the
mask of its 1-spaces, and A <= B is a subset test on the masks.  The
elimination routines (reduce_vector, subspace_leq, subspace_sum,
subspace_intersect) decide the same relations by linear algebra and serve
as the reference for that order.  Primality is decided by trial division
here, against the Miller-Rabin test of `counting.is_prime`.

Two independent Gaussian-binomial algorithms are kept on purpose as mutual
oracles: `counting.gaussian`, a term of the Whitney row made by the ratio
recurrence [n,k+1]_q = [n,k]_q [n-k]_q / [k+1]_q with exact division, and
`gaussian_pascal` here (q-Pascal recurrence).

The valuation predicates read a lattice only through join, meet and covers,
so they check the height metric without the cover-pair tests that decide
`Lattice.is_modular`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

from lattice_sb.fq import Subspace, rref


# --- Gaussian binomials ------------------------------------------------------------


@lru_cache(maxsize=None)
def gaussian_pascal(n: int, k: int, q: int) -> int:
    """Same count via the q-Pascal recurrence; independent cross-check route."""
    if n < 0 or q < 2:
        raise ValueError(f"need n >= 0 and q >= 2, got n={n}, q={q}")
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_pascal(n - 1, k - 1, q) + q**k * gaussian_pascal(n - 1, k, q)


# --- primality ---------------------------------------------------------------------


def is_prime_by_trial_division(q: int) -> bool:
    """Whether q is prime, by trial division up to sqrt(q)."""
    return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))


# --- elimination on F_q^n ----------------------------------------------------------


def zero_subspace(ambient: int, q: int) -> Subspace:
    return rref([], ambient, q)


def full_space(ambient: int, q: int) -> Subspace:
    eye = [[1 if j == i else 0 for j in range(ambient)] for i in range(ambient)]
    return rref(eye, ambient, q)


def reduce_vector(sub: Subspace, vec: Sequence[int]) -> tuple[int, ...]:
    """Residue of vec after elimination against the subspace basis."""
    v = [int(x) % sub.q for x in vec]
    if len(v) != sub.ambient:
        raise ValueError("vector length mismatch")
    for row in sub.rows:
        piv = next(i for i, x in enumerate(row) if x)
        if v[piv]:
            f = v[piv]
            v = [(a - f * b) % sub.q for a, b in zip(v, row)]
    return tuple(v)


def contains_vector(sub: Subspace, vec: Sequence[int]) -> bool:
    return not any(reduce_vector(sub, vec))


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    """A is a subspace of B."""
    _check_same_space(a, b)
    return all(contains_vector(b, row) for row in a.rows)


def _check_same_space(a: Subspace, b: Subspace):
    if a.q != b.q or a.ambient != b.ambient:
        raise ValueError("subspaces live in different ambient spaces")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_space(a, b)
    return rref(list(a.rows) + list(b.rows), a.ambient, a.q)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: reduce [[x|x] for x in A] + [[y|0] for y in B]; rows with a
    zero left block carry a basis of the intersection in the right block."""
    _check_same_space(a, b)
    n, q = a.ambient, a.q
    big = [list(r) + list(r) for r in a.rows] + [list(r) + [0] * n for r in b.rows]
    red = rref(big, 2 * n, q).rows
    inter = [r[n:] for r in red if not any(r[:n])]
    return rref(inter, n, q)


def rank(rows: Iterable[Sequence[int]], ambient: int, q: int) -> int:
    return rref(rows, ambient, q).dim


# --- valuations --------------------------------------------------------------------


def _check_valuation_len(lat, v: Sequence[int]):
    if len(v) != len(lat.names):
        raise ValueError("valuation must assign a value to every element")


def is_valuation(lat, v: Sequence[int]) -> bool:
    """True iff v(x v y) + v(x ^ y) == v(x) + v(y) for every pair."""
    _check_valuation_len(lat, v)
    n = len(lat.names)
    return all(v[lat.join(a, b)] + v[lat.meet(a, b)] == v[a] + v[b]
               for a in range(n) for b in range(a, n))


def is_isotone(lat, v: Sequence[int]) -> bool:
    """Monotone along the order; checking covers suffices by transitivity."""
    _check_valuation_len(lat, v)
    return all(v[lo] <= v[hi] for lo, hi in lat.covers)


def is_positive_isotone(lat, v: Sequence[int]) -> bool:
    """Strictly increasing along the strict order (strict on every cover)."""
    _check_valuation_len(lat, v)
    return all(v[lo] < v[hi] for lo, hi in lat.covers)
