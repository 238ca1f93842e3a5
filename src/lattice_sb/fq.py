"""Prime-field linear algebra and the stock lattices.

Subspaces of F_q^n are canonicalized as reduced row echelon matrices, so
equality of subspaces is equality of values, and the RREF is a subspace's
canonical name.  On top of that sit the constructors for the projective
lattice Sub(F_q^n), the power-set lattice, and the four small named example
lattices (M3, N5, L1, L2).

Both family lattices are geometric, and each element of them is read as the
mask of the atoms below it: a subset of {1..n} is itself, a subspace of
F_q^n is the mask of its points (1-spaces), [n]_q bits at most.  One cover
rule (fq._build_family) and one height distance (FamilyWindow) read those
masks for both families.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .counting import is_prime  # noqa: F401  (fq.is_prime stays)
from .counting import check_family, check_field, gaussian, whitney_closed_form
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
    return _build_family(family_window("powerset", n, None, None, max_elements))


def _subset_name(s: int) -> str:
    return "{" + ",".join(str(i + 1) for i in iter_bits(s)) + "}"


def build_projective_lattice(n: int, q: int, max_elements: int | None = None) -> Lattice:
    """The lattice of all subspaces of F_q^n, ordered by inclusion.

    Ids follow all_subspaces(n, q) order, so height equals dimension, and
    the name of an element is subspace_name of its subspace.  The result
    records its family as ("projective", n, q); n = 0 gives the one-element
    lattice of the zero space.
    """
    return _build_family(family_window("projective", n, q, None, max_elements))


def _build_family(win: FamilyWindow) -> Lattice:
    """The lattice of a family window that holds every height.

    The elements that cover a are those one height up that hold every atom
    of a, as both families are atomistic: one AND of a bitset per atom of a,
    each bitset the elements of the next height that hold that atom.  The
    bottom has no atoms, so every atom covers it.
    """
    masks = win._masks
    levels: list[list[int]] = [[] for _ in range(win.total_height() + 1)]
    for x, h in enumerate(win.heights):
        levels[h].append(x)
    covers = []
    for lower, upper in zip(levels, levels[1:]):
        holding = win._above_atoms(upper)  # atom -> bit i for each upper[i] above it
        for a in lower:
            above = (1 << len(upper)) - 1
            for p in iter_bits(masks[a]):
                above &= holding[p]
            covers += [(a, upper[i]) for i in iter_bits(above)]
    lat = build_lattice(win.names, covers)
    lat.family = win.family
    return lat


def _point_masks(subs: Sequence[Subspace]) -> list[int]:
    """The mask of the points (1-spaces) of each subspace: point i is bit i,
    the i-th 1-space of subs, so a mask has at most [n]_q bits.  subs lists
    the subspaces of F_q^n dimension-ascending, from the zero space up to
    some dimension.

    The span of RREF rows r_1..r_k is the span V of r_2..r_k plus the
    multiples of r_1 + v for v in V.  r_1 + v is 0 before the pivot of r_1
    and 1 there, so it is the RREF row of its point, and the points the
    subspace adds to those of V are the <r_1 + v>.  Dropping the first row of
    an RREF matrix leaves an RREF matrix of one dimension less, so V is met
    before the subspace, and a point gets its bit where its 1-space is met.
    V is 0 in the first coordinate, so only the spans that are 0 there keep
    their vectors: at most q^(n-1) each, for the subspaces of F_q^(n-1).
    """
    zero = subs[0]
    q, n = zero.q, zero.ambient
    known = {(): ([(0,) * n], 0)}  # rows -> (the vectors of their span, its mask)
    points: dict[tuple[int, ...], int] = {}
    masks = [0]
    for s in subs[1:]:
        r1 = s.rows[0]
        vectors, mask = known[s.rows[1:]]
        if s.dim == 1:
            points[r1] = len(points)
        shifted = [tuple((x + y) % q for x, y in zip(r1, v)) for v in vectors]
        for u in shifted:
            mask |= 1 << points[u]
        masks.append(mask)
        if not r1[0]:
            known[s.rows] = (vectors + shifted + [tuple((a * x + y) % q for x, y in zip(r1, v))
                                                  for a in range(2, q) for v in vectors], mask)
    return masks


class FamilyWindow:
    """The elements of a family lattice at the heights of a window, with the
    height distance, and no Lattice behind them.

    Local ids 0..m-1 follow the lattice ids ascending, so names, heights and
    the order of members are those of the built lattice.  Each element
    carries the mask of the atoms below it: its subset on 2^[n], its points
    on Sub(F_q^n).  Both lattices are geometric, so the atoms of a ^ b are
    the common atoms of a and b, and d(a, b) = h(a) + h(b) - 2 h(a ^ b)
    reads h(a ^ b) off their count: the Hamming distance on 2^[n], the
    subspace distance on Sub(F_q^n).  make_scheme, the search and greedy
    packing read only names, heights, height, total_height, distance,
    distances, distance_rows, family and len, which a Lattice offers too.
    `window` is the (m, M) it holds, and window_ids refuses any other.
    """

    def __init__(self, family: tuple, window: tuple[int, int], names, heights, masks, atoms_at):
        self.family = family  # (family, n, q), as a family builder records it
        self.window = window
        self.names = tuple(names)
        self.heights = tuple(heights)
        self._masks = tuple(masks)
        self._atoms_at = tuple(atoms_at)  # height k -> atoms below an element of height k
        self._meet_height = {c: k for k, c in enumerate(atoms_at)}  # common atoms -> h(a ^ b)

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
        return [ha + h[b] - 2 * meet[(ma & masks[b]).bit_count()] for b in others]

    def _above_atoms(self, verts: Sequence[int]) -> list[int]:
        """Atom p -> the bitset of the positions j with p below verts[j]."""
        above = [0] * self._atoms_at[-1]
        for j, v in enumerate(verts):
            for p in iter_bits(self._masks[v]):
                above[p] |= 1 << j
        return above

    def distance_rows(self, verts: Sequence[int], d: int) -> tuple[list[int], list[int]]:
        """(adj, near) over the positions of verts: bit j of adj[i] is set
        where distance(verts[i], verts[j]) >= d, and near[i] counts the j
        within distance floor((d-1)/2) of verts[i], i itself included.

        One bitset per atom holds the positions of the elements above it.
        Added up as bit-sliced counters, the bitsets of the atoms of a give
        |atoms(a) & atoms(b)| at every position b at once.  On Sub(F_q^n) a
        common-atom count [k]_q means h(a ^ b) = k, so one comparison of the
        counters per height of the window and per threshold gives a's row
        and its ball.  On 2^[n] the bitsets of the atoms outside a and the
        complements of those in a add up to the size of the symmetric
        difference of a and b, the distance itself, so two comparisons serve
        every height.
        """
        t = (d - 1) // 2
        m = len(verts)
        full = (1 << m) - 1
        masks, atoms_at = self._masks, self._atoms_at
        above = self._above_atoms(verts)  # atom -> the positions above it
        adj, near = [], []
        if self.family[0] == "powerset":
            outside = [b ^ full for b in above]  # atom -> the positions not above it
            for v in verts:
                s = masks[v]
                counts = _bit_sliced_sum([outside[p] if s >> p & 1 else b for p, b in enumerate(above)])
                adj.append(_at_least(counts, d))
                near.append(m - _at_least(counts, t + 1).bit_count())
            return adj, near
        levels: dict[int, int] = {}  # height -> its positions
        for j, v in enumerate(verts):
            h = self.heights[v]
            levels[h] = levels.get(h, 0) | 1 << j
        for v in verts:
            counts = _bit_sliced_sum([above[p] for p in iter_bits(masks[v])])
            ha = self.heights[v]
            row = ball = 0
            for h, level in levels.items():
                top = min(ha, h)  # the highest meet
                k = (ha + h - d) // 2  # the highest meet at distance >= d
                if k >= top:
                    row |= level
                elif k >= 0:
                    row |= level & ~_at_least(counts, atoms_at[k] + 1)
                k = (ha + h - t + 1) // 2  # the lowest meet within distance t
                if k <= 0:
                    ball += level.bit_count()
                elif k <= top:
                    ball += (level & _at_least(counts, atoms_at[k])).bit_count()
            adj.append(row)
            near.append(ball)
        return adj, near


def _bit_sliced_sum(bitsets: Iterable[int]) -> list[int]:
    """The counters of how many of the bitsets hold each position, bit-sliced:
    bit j of counters[b] is bit b of the count at position j."""
    counters: list[int] = []
    for carry in bitsets:
        for b, c in enumerate(counters):
            counters[b] = c ^ carry
            carry &= c
            if not carry:
                break
        else:
            if carry:
                counters.append(carry)
    return counters


def _at_least(counters: list[int], k: int) -> int:
    """The positions whose bit-sliced count is at least k, for k >= 1."""
    if k >> len(counters):
        return 0
    ge, eq = 0, -1  # eq: the positions whose count agrees with k on the bits above b
    for b in range(len(counters) - 1, -1, -1):
        c = counters[b]
        if k >> b & 1:
            eq &= c
        else:
            ge |= eq & c
            eq &= ~c
    return ge | eq


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
        q = None  # 2^[n] records no field
        masks = [s for s in range(1 << n) if lo <= s.bit_count() <= hi]
        names, heights = [_subset_name(s) for s in masks], [s.bit_count() for s in masks]
    else:
        # the masks need every dimension up to hi, a prefix of the id order;
        # the whole lattice reads (and caches) the index subspace_id reads
        subs = _projective_index(n, q)[0] if hi == n else \
            [s for k in range(hi + 1) for s in enumerate_grassmannian(n, k, q)]
        kept = [(s, mask) for s, mask in zip(subs, _point_masks(subs)) if s.dim >= lo]
        masks = [mask for _, mask in kept]
        names, heights = [subspace_name(s) for s, _ in kept], [s.dim for s, _ in kept]
    atoms_at = [whitney_closed_form(family, k, 1, q) for k in range(n + 1)]
    return FamilyWindow((family, n, q), (lo, hi), names, heights, masks, atoms_at)


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
