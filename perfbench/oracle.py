"""Reference values for checking lattice-sb output, derived without lattice-sb.

Nothing here imports the program under test.  Counts come from binomials and
q-binomials, GV-type lower bounds from closed-form ball volumes, and scheme
checks from explicit vector spans, so a fault in the program cannot hide in
its own oracle.

Subspaces of F_q^n are frozensets of vectors (tuples); power-set elements are
frozensets of points 1..n.
"""

from __future__ import annotations

import math
from itertools import combinations, product

CSV_HEADER = "family,q,n,d,m,M,lsb,lsb_log2,gv_lower,gv_lower_log2,oracle_max"


# --- counting ------------------------------------------------------------------


def qbinom(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def level(family: str, n: int, k: int, q: int | None) -> int:
    """Whitney number: elements of height k in 2^[n] or Sub(F_q^n)."""
    if family == "powerset":
        return math.comb(n, k) if 0 <= k <= n else 0
    return qbinom(n, k, q)


def whitney(family: str, n: int, q: int | None = None) -> list[int]:
    return [level(family, n, k, q) for k in range(n + 1)]


def size(family: str, n: int, q: int | None = None) -> int:
    return sum(whitney(family, n, q))


def puncture_budget(d: int, distributive: bool) -> int:
    """Coatom punctures a distance-d scheme survives (the paper's alpha)."""
    return d - 1 if distributive else (d - 1) // 2


def lsb(family: str, n: int, d: int, q: int | None = None, window=None) -> int:
    """Singleton-type bound: size of the alpha-times punctured lattice,
    restricted to heights [m - alpha, M - alpha] for a window (m, M)."""
    a = puncture_budget(d, family == "powerset")
    m, top = window if window else (0, n)
    return sum(level(family, n - a, k, q) for k in range(max(0, m - a), top - a + 1))


def _meeting(family: str, n: int, q: int | None, k: int, j: int, i: int) -> int:
    """Height-j elements whose meet with a fixed height-k element has height i."""
    if family == "powerset":
        return math.comb(k, i) * math.comb(n - k, j - i) if j - i <= n - k else 0
    return q ** ((k - i) * (j - i)) * qbinom(k, i, q) * qbinom(n - k, j - i, q)


def gv_lower(family: str, n: int, d: int, q: int | None = None, window=None) -> int:
    """ceil(|space| / largest ball of radius d-1), balls and centres in the window."""
    lo, hi = window if window else (0, n)
    levels = range(lo, hi + 1)
    space = sum(level(family, n, k, q) for k in levels)
    if family == "powerset" and window is None:
        # Hamming balls do not depend on the centre.
        return -(-space // sum(math.comb(n, t) for t in range(min(d - 1, n) + 1)))
    vol = max(
        sum(_meeting(family, n, q, k, j, i)
            for j in levels for i in range(min(k, j) + 1) if k + j - 2 * i <= d - 1)
        for k in levels
    )
    return -(-space // vol)


def log2_cell(v: int | None) -> str:
    """A CSV log2 cell: four decimals, empty for missing or zero."""
    return "" if not v else f"{round(math.log2(v), 4):.4f}"


def bounds_row(family: str, q, n: int, d: int, lsb_v: int, gv_v: int | None) -> str:
    qs = "" if q is None else str(q)
    gv_s = "" if gv_v is None else str(gv_v)
    return f"{family},{qs},{n},{d},,,{lsb_v},{log2_cell(lsb_v)},{gv_s},{log2_cell(gv_v)},"


# --- subspaces ---------------------------------------------------------------


def span(rows, q: int, n: int) -> frozenset:
    """All F_q-linear combinations of the rows (vectors of length n)."""
    vecs = {(0,) * n}
    for r in rows:
        vecs = {tuple((a + c * b) % q for a, b in zip(v, r)) for v in vecs for c in range(q)}
    return frozenset(vecs)


def dim(sub: frozenset, q: int) -> int:
    return round(math.log(len(sub), q))


def rref(rows, q: int) -> list[list[int]]:
    """Reduced row echelon basis of the row space (zero rows dropped)."""
    m = [[x % q for x in r] for r in rows]
    out: list[list[int]] = []
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in m if r[col]), None)
        if piv is None:
            continue
        m.remove(piv)
        inv = pow(piv[col], -1, q)
        piv = [(x * inv) % q for x in piv]
        m = [[(a - r[col] * b) % q for a, b in zip(r, piv)] for r in m]
        out = [[(a - r[col] * b) % q for a, b in zip(r, piv)] for r in out]
        out.append(piv)
    return out


def basis(sub: frozenset, q: int) -> list[list[int]]:
    return rref(sorted(sub), q)


def subspace_text(sub: frozenset, q: int) -> str:
    """The program's text form: RREF rows joined by '/', zero space as one zero row."""
    rows = basis(sub, q)
    n = len(next(iter(sub)))
    return "/".join("".join(map(str, r)) for r in rows) if rows else "0" * n


def parse_subspace(text: str, q: int) -> frozenset:
    rows = [[int(ch) for ch in part] for part in text.split("/")]
    return span(rows, q, len(rows[0]))


def id_order_key(sub: frozenset, q: int):
    """Position of a subspace in the program's documented element order:
    dimension, then pivot columns lexicographically, then the free RREF
    entries counted up in base q."""
    rows = basis(sub, q)
    pivots = tuple(next(j for j, x in enumerate(r) if x) for r in rows)
    n = len(next(iter(sub)))
    free = tuple(rows[i][j] for i in range(len(rows)) for j in range(pivots[i] + 1, n)
                 if j not in pivots)
    return (len(rows), pivots, free)


def all_subspaces(n: int, q: int) -> tuple[list[frozenset], list[tuple[int, int]]]:
    """Every subspace of F_q^n and the cover pairs between them, by adjoining
    one vector at a time to the spaces one dimension down."""
    vectors = list(product(range(q), repeat=n))
    zero = frozenset([(0,) * n])
    index = {zero: 0}
    subs, covers, frontier = [zero], [], [zero]
    while frontier:
        nxt = []
        for s in frontier:
            bs = basis(s, q) if len(s) > 1 else []
            for v in vectors:
                if v in s:
                    continue
                t = span(bs + [list(v)], q, n)
                if t not in index:
                    index[t] = len(subs)
                    subs.append(t)
                    nxt.append(t)
                covers.append((index[s], index[t]))
        frontier = nxt
    return subs, sorted(set(covers))


def hyperplanes(sub: frozenset, q: int) -> list[frozenset]:
    """Subspaces of codimension one inside sub."""
    n = len(next(iter(sub)))
    k = dim(sub, q)
    found = set()
    if k >= 1:
        for rows in combinations(sorted(sub), k - 1):
            t = span(rows, q, n)
            if dim(t, q) == k - 1:
                found.add(t)
    return list(found)


# --- power-set elements --------------------------------------------------------


def subset_name(s) -> str:
    """The program's name of a subset of {1..n}: '{1,3}'."""
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def parse_subset(name: str) -> frozenset:
    body = name.strip("{}")
    return frozenset(int(x) for x in body.split(",")) if body else frozenset()


def word_set(word: str) -> frozenset:
    """Support of a binary word, as points 1..n (character i is point i+1)."""
    return frozenset(i + 1 for i, ch in enumerate(word) if ch == "1")
