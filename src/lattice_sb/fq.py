"""Prime-field linear algebra and the stock lattices.

Subspaces of F_q^n are canonicalized as reduced row echelon matrices, so
equality of subspaces is equality of values, and the RREF is a subspace's
canonical name.  On top of that sit the constructors for the projective
lattice Sub(F_q^n), the power-set lattice, and the four small named example
lattices (M3, N5, L1, L2).

The projective lattice takes its order from vector masks: vector x of F_q^n
is bit sum(x_i * q^i), a subspace is the mask of its vectors, and A <= B is
a subset test on the masks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .counting import check_family, check_field, gaussian, is_prime  # noqa: F401  (fq.is_prime stays)
from .lattice import (
    CapExceeded,
    Lattice,
    LatticeError,
    build_lattice,
    check_cap,
    check_window,
    element_cap,
    iter_bits,
    sublattice_closure,
    with_names,
)

NAMED_LATTICES = ("M3", "N5", "L1", "L2")


class Subspace(NamedTuple):
    """A subspace of F_q^ambient, stored as its canonical RREF basis rows."""

    q: int
    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def _rref_raw(rows: list[list[int]], width: int, q: int) -> list[list[int]]:
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), -1)
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, q)
        if inv != 1:
            rows[r] = [(x * inv) % q for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], lead)]
        r += 1
        if r == len(rows):
            break
    return rows[:r]


def rref(rows: Iterable[Sequence[int]], ambient: int, q: int) -> Subspace:
    """Canonical reduced row echelon form of a row space.

    Args:
        rows: spanning vectors (any number, any order; reduced mod q).
        ambient: vector length n.
        q: prime field size.

    Returns:
        The spanned Subspace; zero rows vanish, so the zero subspace has an
        empty row tuple.
    """
    check_field(q)
    mat = []
    for row in rows:
        row = [int(x) % q for x in row]
        if len(row) != ambient:
            raise ValueError(f"row length {len(row)} != ambient {ambient}")
        mat.append(row)
    out = _rref_raw(mat, ambient, q)
    return Subspace(q, ambient, tuple(tuple(r) for r in out))


def enumerate_grassmannian(n: int, k: int, q: int) -> Iterator[Subspace]:
    """All k-dim subspaces of F_q^n, one canonical RREF matrix each.

    Deterministic order: pivot column sets ascending lexicographically, free
    entries counting up in base q.
    """
    check_family("projective", n, q)
    if k < 0 or k > n:
        return
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivot_set]
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        for vals in product(range(q), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, j), val in zip(free, vals):
                rows[i][j] = val
            yield Subspace(q, n, tuple(tuple(r) for r in rows))


def all_subspaces(n: int, q: int) -> Iterator[Subspace]:
    """Every subspace of F_q^n, dimension-ascending; matches projective ids."""
    for k in range(n + 1):
        yield from enumerate_grassmannian(n, k, q)


@lru_cache(maxsize=4)
def _projective_index(n: int, q: int) -> tuple[tuple[Subspace, ...], dict[Subspace, int]]:
    """The subspace of each projective id, and the id of each subspace."""
    subs = tuple(all_subspaces(n, q))
    return subs, {s: i for i, s in enumerate(subs)}


# --- text format -------------------------------------------------------------


def subspace_to_text(sub: Subspace) -> str:
    """Rows as digit strings joined by '/'; the zero subspace is one zero row."""
    if sub.q > 7:
        raise ValueError("text format supports q <= 7")
    if sub.dim == 0:
        return "0" * sub.ambient
    return "/".join("".join(str(x) for x in row) for row in sub.rows)


def subspace_from_text(text: str, ambient: int, q: int) -> Subspace:
    if q > 7:
        raise ValueError("text format supports q <= 7")
    rows = []
    for part in text.strip().split("/"):
        if len(part) != ambient or not part.isdigit():
            raise ValueError(f"bad subspace row {part!r} (need {ambient} digits)")
        row = [int(ch) for ch in part]
        if any(x >= q for x in row):
            raise ValueError(f"entry out of range for q={q} in row {part!r}")
        rows.append(row)
    return rref(rows, ambient, q)


# --- lattice constructors ----------------------------------------------------


def family_size(family: str, n: int, q: int | None, max_elements: int | None = None) -> int:
    """The element count of a family lattice, after the checks its builder
    makes before building: the builder and the closed forms that stand in for
    it raise CapExceeded (or ValueError on bad input) at the same inputs.
    Power-set n above 20 is over every cap, whatever max_elements says.

    Sub(F_q^n) is counted one level at a time, the top (one element) last,
    and the count stops once it passes the cap, so a refusal takes bounded
    time and names the exact count only where the count finished.  It has at
    least 2^n elements, so an n above the cap's bit length is over the cap
    before any level is counted.
    """
    check_family(family, n, q)
    if family == "powerset":
        if n > 20:
            raise CapExceeded("power-set lattice supported for 0 <= n <= 20")
        return check_cap(1 << n, f"power-set lattice on {n} points", max_elements)
    what, cap = f"Sub(F_{q}^{n})", element_cap(max_elements)
    size = cap + 1 if n > cap.bit_length() else 0
    for k in range(n + 1):
        if size > cap:
            raise CapExceeded(f"{what} has more than {cap} elements; cap is {cap} (raise via max_elements)")
        size += gaussian(n, k, q)
    return check_cap(size, what, max_elements)


def build_powerset_lattice(n: int, max_elements: int | None = None) -> Lattice:
    """The lattice of subsets of {1..n}; element ids are subset bitmasks.

    The result records its family as ("powerset", n, None).  n above 20 is
    over every cap, so it raises CapExceeded whatever max_elements says.
    """
    size = family_size("powerset", n, None, max_elements)
    names = [_subset_name(s) for s in range(size)]
    covers = [(s, s | (1 << i)) for s in range(size) for i in range(n) if not (s >> i) & 1]
    lat = build_lattice(names, covers)
    lat.family = ("powerset", n, None)
    return lat


def _subset_name(s: int) -> str:
    return "{" + ",".join(str(i + 1) for i in iter_bits(s)) + "}"


def build_projective_lattice(n: int, q: int, max_elements: int | None = None) -> Lattice:
    """The lattice of all subspaces of F_q^n, ordered by inclusion.

    Ids follow all_subspaces(n, q) order, so height equals dimension, and
    the name of an element is subspace_name of its subspace.  Covers join
    subspaces of consecutive dimensions whose vector masks are nested.  Each
    subspace is keyed by its smallest nonzero vector (the zero space by the
    zero vector), and a (k+1)-space b is tested only against the k-spaces
    whose key lies in b: a k-space inside b has its key in b.  The result
    records its family as ("projective", n, q); n = 0 gives the one-element
    lattice of the zero space.
    """
    family_size("projective", n, q, max_elements)
    subs = _projective_index(n, q)[0]
    masks = _vector_masks(subs)
    by_key: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    for i, s in enumerate(subs):
        rest = masks[i] ^ 1  # the zero vector is bit 0, and keys the zero space
        by_key[s.dim].setdefault((rest & -rest).bit_length() - 1 if rest else 0, []).append(i)
    key_masks = [sum(1 << v for v in level) for level in by_key]
    covers = []
    for b, s in enumerate(subs):
        if s.dim:
            mb, below = masks[b], by_key[s.dim - 1]
            keys = mb & key_masks[s.dim - 1]
            covers += [(a, b) for v in iter_bits(keys) for a in below[v] if not masks[a] & ~mb]
    lat = build_lattice([subspace_name(s) for s in subs], covers)
    lat.family = ("projective", n, q)
    return lat


def _vector_masks(subs: Sequence[Subspace]) -> list[int]:
    """The mask of the vectors of each subspace; vector x is bit sum(x_i * q^i).

    The span of RREF rows r_1..r_k is the span of r_2..r_k plus the
    multiples of r_1.  Dropping the first row of an RREF matrix leaves an
    RREF matrix of one dimension less, so with subs dimension-ascending
    that span is already known.  Vectors stay integer-coded throughout.
    """
    spans: dict[tuple, list[int]] = {(): [0]}
    masks = []
    for s in subs:
        if s.rows:
            q, place = s.q, [s.q**i for i in range(s.ambient)]
            rest = spans[s.rows[1:]]
            codes = list(rest)
            for a in range(1, q):
                step = [(p, a * x) for p, x in zip(place, s.rows[0])]
                for c in rest:
                    codes.append(sum((c // p + ax) % q * p for p, ax in step))
            spans[s.rows] = codes
        mask = 0
        for c in spans[s.rows]:
            mask |= 1 << c
        masks.append(mask)
    return masks


class FamilyWindow:
    """The elements of a family lattice at the heights of a window, with the
    height distance, and no Lattice behind them.

    Local ids 0..m-1 follow the lattice ids ascending, so names, heights and
    the order of members are those of the built lattice.  Each element
    carries a mask: its vectors on Sub(F_q^n), its subset on 2^[n].  On
    Sub(F_q^n) the meet of a and b is the mask intersection, so
    d(a, b) = h(a) + h(b) - 2 h(a ^ b) takes h(a ^ b) as log_q of the count
    of common vectors: the subspace distance.  On 2^[n] it is the Hamming
    distance, the popcount of a ^ b.  The search, greedy packing and
    make_scheme read only names, heights, height, total_height, distance,
    distances, family and len, which a Lattice offers too.  `window` is the
    (m, M) it holds, and window_ids refuses any other.
    """

    def __init__(self, family: tuple, window: tuple[int, int], names, heights, masks, meet_height):
        self.family = family  # (family, n, q), as a family builder records it
        self.window = window
        self.names = tuple(names)
        self.heights = tuple(heights)
        self._masks = tuple(masks)
        self._meet_height = meet_height  # common vectors -> h(a ^ b); None on 2^[n]

    def __len__(self) -> int:
        return len(self.names)

    def height(self, x: int) -> int:
        return self.heights[x]

    def total_height(self) -> int:
        """The height of the whole lattice, n, whatever the window."""
        return self.family[1]

    def distance(self, a: int, b: int) -> int:
        return self.distances(a, (b,))[0]

    def distances(self, a: int, others: Iterable[int]) -> list[int]:
        """[distance(a, b) for b in others]."""
        h, masks, meet = self.heights, self._masks, self._meet_height
        ha, ma = h[a], masks[a]
        if meet is None:
            return [(ma ^ masks[b]).bit_count() for b in others]
        return [ha + h[b] - 2 * meet[(ma & masks[b]).bit_count()] for b in others]


def family_window(family: str, n: int, q: int | None, window: tuple[int, int] | None = None,
                  max_elements: int | None = None) -> FamilyWindow:
    """The window of 2^[n] or Sub(F_q^n) as a FamilyWindow, without building
    the lattice.

    Raises as the family's builder would (fq.family_size, which counts the
    whole lattice against the cap), then ValueError for a window outside the
    heights 0..n, with the text of the search's own window check.  None
    means (0, n).  A search, a greedy packing or window_ids with another
    window raises ValueError: the object holds no other element.
    """
    family_size(family, n, q, max_elements)
    check_window(window, n)
    lo, hi = window or (0, n)
    if family == "powerset":
        masks = [s for s in range(1 << n) if lo <= s.bit_count() <= hi]
        names = [_subset_name(s) for s in masks]
        heights = [s.bit_count() for s in masks]
        return FamilyWindow(("powerset", n, None), (lo, hi), names, heights, masks, None)
    subs = [s for k in range(hi + 1) for s in enumerate_grassmannian(n, k, q)]
    masks = _vector_masks(subs)  # it needs every dimension up to hi
    keep = [i for i, s in enumerate(subs) if s.dim >= lo]
    return FamilyWindow(("projective", n, q), (lo, hi), [subspace_name(subs[i]) for i in keep],
                        [subs[i].dim for i in keep], [masks[i] for i in keep],
                        {q**k: k for k in range(n + 1)})


def subspace_name(sub: Subspace) -> str:
    """Element name of a subspace in the projective lattice.

    The text form for q <= 7; above that, entries may need several digits,
    so a row's entries are comma-separated and rows are joined by '/'.
    """
    if sub.q <= 7:
        return subspace_to_text(sub)
    rows = sub.rows or ((0,) * sub.ambient,)
    return "/".join(",".join(str(x) for x in row) for row in rows)


def subspace_id(lat: Lattice, sub: Subspace) -> int:
    """Element id of a subspace in a projective family lattice.

    Found from the family, not the names, so a lattice renamed by
    with_names (such as M3) maps a subspace to the same id.
    """
    _, n, q = lat.family
    return _projective_index(n, q)[1][sub]


def subspace_of(lat: Lattice, x: int) -> Subspace:
    """The subspace of element x of a projective family lattice; the
    inverse of subspace_id."""
    _, n, q = lat.family
    return _projective_index(n, q)[0][x]


def build_named_lattice(name: str, max_elements: int | None = None) -> Lattice:
    """One of the stock examples: M3, N5, L1, L2.

    M3 is Sub(F_2^2) with the classic labels; L2 is the seven-subspace
    sublattice of Sub(F_2^3) on the zero space, the lines <1>, <2>, <3>, the
    planes <1,3>, <3,5> and their join V, where <k> is spanned by the vector
    whose coordinate i is bit i of k.  Its seeds are the keys of its rename
    table.  The cap applies to the lattice returned, not to the Sub(F_2^n)
    it is cut from.
    """
    key = name.upper()
    if key == "M3":
        base = build_projective_lattice(2, 2)
        rename = {"00": "O", "01": "A", "10": "B", "11": "C", "10/01": "I"}
        lat = with_names(base, [rename[nm] for nm in base.names])
    elif key == "N5":
        lat = build_lattice(["d", "a", "b", "c", "u"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    elif key == "L1":
        lat = build_lattice(["{}", "{1}", "{1,2}", "{1,2,3}"], [(0, 1), (1, 2), (2, 3)])
    elif key == "L2":
        base = build_projective_lattice(3, 2)
        rename = {
            "000": "0",
            "100": "<1>",
            "010": "<2>",
            "110": "<3>",
            "100/010": "<1,3>",
            "101/011": "<3,5>",
            "100/010/001": "V",
        }
        sub = sublattice_closure(base, [base.name_to_id[nm] for nm in rename])
        lat = with_names(sub, [rename[nm] for nm in sub.names])
    else:
        raise LatticeError(f"unknown lattice name: {name!r} (expected one of {', '.join(NAMED_LATTICES)})")
    check_cap(len(lat), f"named lattice {key}", max_elements)
    return lat
