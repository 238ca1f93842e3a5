"""Finite lattices built from cover relations.

Elements are dense integer ids 0..n-1 with display names.  The order is kept
in one form: per element, the bitmask of its up-set and of its down-set over
the positions of a topological order.  The cover relation is held once, as
the lower covers of each element; the sorted cover pairs are made only when
asked for.  Join and meet are computed on demand from these masks: the join
of a and b is the first of their common upper bounds in that order, the meet
the last of their common lower bounds.  No n x n table is stored.
validated_lattice, which build_lattice and the fq family builders both end
in, checks that every two upper covers of a common element have a join,
which with a bottom and a top makes the poset a lattice, so a Lattice is
only ever returned for inputs that really are lattices.  Instances are
immutable once returned (the fq family builders set `family` on the lattice
they build before they return it; the modularity and upper semimodularity
verdicts, the cover pairs and the name index are made once and kept) and
safe to share between threads.

A lattice made by a family builder of the fq module records that family in
`family`, as ("powerset", n, None) or ("projective", n, q); every other
lattice has None.  The family stands for what no check here can establish
cheaply, namely that each rank's distance graph is vertex-transitive, so only
the builders set it (and with_names keeps it).
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations, starmap
from operator import and_, or_
from typing import Iterable, Sequence

DEFAULT_MAX_ELEMENTS = 128


class LatticeError(ValueError):
    """Invalid lattice input: bad covers, not a lattice, unknown name."""


class NotALatticeError(LatticeError):
    """The input poset has a pair without a least upper bound; `pair` names
    the first pair of upper covers of a common element that has none."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class CapExceeded(LatticeError):
    """A lattice materialization would exceed the element cap."""


class HeightExceeded(ValueError):
    """A puncture budget or a window top lies above the lattice height: valid
    input that does not fit this lattice, such as one row of a bound table."""


def element_cap(max_elements: int | None = None) -> int:
    """Effective materialization cap: max_elements, else DEFAULT_MAX_ELEMENTS.

    Raises:
        LatticeError: max_elements is negative (an input error, not a cap hit).
    """
    if max_elements is None:
        return DEFAULT_MAX_ELEMENTS
    if max_elements < 0:
        raise LatticeError(f"max_elements (--max-elements) must be >= 0, got {max_elements}")
    return max_elements


def check_cap(size: int, what: str, max_elements: int | None) -> int:
    """Raise CapExceeded when `what`, a lattice of `size` elements, is over
    element_cap(max_elements); return size otherwise."""
    cap = element_cap(max_elements)
    if size > cap:
        raise CapExceeded(f"{what} has {size} elements; cap is {cap} (raise via max_elements)")
    return size


def iter_bits(mask: int):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """Finite lattice, immutable once returned, held as up/down bitmasks over
    the positions of a topological order; join, meet and distance are
    computed on demand.

    `order` lists the element ids in that order (position -> id), and
    `pup[x]`, `pdown[x]` are the positions of the elements above and below
    x, x included, so x's own position is the top bit of its down mask.  The
    order starts at the bottom and ends at the top.  The cover relation is
    held once, per element: `_lower_covers[x]` lists the elements x covers,
    ascending; the upper covers and the heights are derived from it, and
    `covers`, the sorted (lower, upper) pairs, is made on first use.
    validated_lattice makes every Lattice (with_names copies one) and checks
    that its order really is a lattice.
    """

    def __init__(self, names, lower_covers, pup, pdown, order, family=None):
        self.names = tuple(names)
        self._lower_covers = tuple(lower_covers)
        self._pup = tuple(pup)
        self._pdown = tuple(pdown)
        self._order = tuple(order)
        self.bottom = self._order[0]
        self.top = self._order[-1]
        self.family = family  # (family, n, q) of an fq builder, else None
        upper: list[list[int]] = [[] for _ in self.names]
        for hi, lower in enumerate(self._lower_covers):
            for lo in lower:
                upper[lo].append(hi)
        self._upper_covers = tuple(map(tuple, upper))
        # Height: longest cover path from the bottom, which comes first in order.
        heights = [0] * len(self.names)
        for x in self._order[1:]:
            heights[x] = max(map(heights.__getitem__, self._lower_covers[x])) + 1
        self.heights = tuple(heights)
        self._hpos = tuple(heights[x] for x in self._order)  # height by position

    @cached_property
    def name_to_id(self) -> dict[str, int]:
        """Name -> id; made on first use."""
        return {nm: i for i, nm in enumerate(self.names)}

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The Hasse-reduced (lower, upper) pairs, sorted; made when asked for."""
        return tuple((lo, hi) for lo, upper in enumerate(self._upper_covers) for hi in upper)

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Lattice({len(self.names)} elements, height {self.total_height()})"

    def name(self, x: int) -> str:
        return self.names[x]

    def join(self, a: int, b: int) -> int:
        ub = self._pup[a] & self._pup[b]
        return self._order[(ub & -ub).bit_length() - 1]

    def meet(self, a: int, b: int) -> int:
        return self._order[(self._pdown[a] & self._pdown[b]).bit_length() - 1]

    def leq(self, a: int, b: int) -> bool:
        return self._pdown[a] & ~self._pdown[b] == 0

    def height(self, x: int) -> int:
        return self.heights[x]

    def total_height(self) -> int:
        return self.heights[self.top]

    def distance(self, a: int, b: int) -> int:
        """Height-induced distance h(a v b) - h(a ^ b)."""
        return self.distances(a, (b,))[0]

    def distances(self, a: int, others: Iterable[int]) -> list[int]:
        """[distance(a, b) for b in others], in one loop over the masks."""
        hp, pup, pdown = self._hpos, self._pup, self._pdown
        ua, da = pup[a], pdown[a]
        return [hp[((ub := ua & pup[b]) & -ub).bit_length() - 1] - hp[(da & pdown[b]).bit_length() - 1]
                for b in others]

    def distance_rows(self, verts: Sequence[int], d: int) -> tuple[list[int], list[int]]:
        """(adj, near) over the positions of verts: bit j of adj[i] is set
        where distance(verts[i], verts[j]) >= d, and near[i] counts the j
        within distance floor((d-1)/2) of verts[i], i itself included.

        One distances() pass per vertex over the vertices after it."""
        m, t = len(verts), (d - 1) // 2
        adj, near = [0] * m, [1] * m
        for i in range(m):
            for j, dist in enumerate(self.distances(verts[i], verts[i + 1:]), i + 1):
                if dist >= d:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                elif dist <= t:
                    near[i] += 1
                    near[j] += 1
        return adj, near

    def atoms(self) -> list[int]:
        """Elements of height 1 (equivalently: covers of the bottom)."""
        return [x for x in range(len(self.names)) if self.heights[x] == 1]

    def coatoms(self) -> list[int]:
        """Elements covered by the top."""
        return sorted(self._lower_covers[self.top])

    def downset(self, x: int) -> list[int]:
        """All y <= x, ascending by id."""
        return sorted(self._order[i] for i in iter_bits(self._pdown[x]))

    def upset(self, x: int) -> list[int]:
        """All y >= x, ascending by id."""
        return sorted(self._order[i] for i in iter_bits(self._pup[x]))

    def elements_at_height(self, k: int) -> list[int]:
        return [x for x in range(len(self.names)) if self.heights[x] == k]

    # --- structure predicates --------------------------------------------
    # Each is one pass over the covers, over pairs of covers of a common
    # element, or over the join-irreducibles, through the height function
    # (longest chain from the bottom) or the position masks.

    def has_jordan_dedekind(self) -> bool:
        """All maximal chains between two comparable elements have equal length.

        Decided as "every cover raises the height by exactly one": then each
        maximal chain of [a, b] has length h(b) - h(a); conversely a cover
        lo < hi with h(hi) > h(lo) + 1 ends a chain from the bottom that is
        shorter than the longest one to hi.
        """
        h = self.heights
        return all(h[lo] == hx - 1 for hx, lower in zip(h, self._lower_covers) for lo in lower)

    def _covering_condition(self, upper: bool) -> bool:
        """On a graded lattice: any two upper covers of an element have their
        join two levels up (upper), or any two lower covers of an element have
        their meet two levels down.  The former is upper semimodularity: a, b
        covering a ^ b implies a v b covers a and b; the latter its dual."""
        hp, h, step = self._hpos, self.heights, (2 if upper else -2)
        masks, covers = (self._pup, self._upper_covers) if upper else (self._pdown, self._lower_covers)
        for x, common in _cover_pairs(masks, covers):
            want = h[x] + step
            if upper:  # keep the lowest position, the join; a meet is the highest
                common = [ub & -ub for ub in common]
            for ab in common:
                if hp[ab.bit_length() - 1] != want:
                    return False
        return True

    @cached_property
    def _upper_semimodular(self) -> bool:
        """Graded, and any two upper covers of an element have their join two
        levels up; decided once for is_modular and is_geometric."""
        return self.has_jordan_dedekind() and self._covering_condition(True)

    @cached_property
    def _modular(self) -> bool:
        return self._upper_semimodular and self._covering_condition(False)

    def is_modular(self) -> bool:
        """a <= c implies a v (b ^ c) == (a v b) ^ c.

        Decided as "graded, upper and lower semimodular", the semimodular
        conditions checked on pairs of covers of a common element (Stanley,
        Enumerative Combinatorics 1, Prop. 3.3.2 and its dual).  Decided once
        per lattice and kept.
        """
        return self._modular

    def is_distributive(self) -> bool:
        """a ^ (b v c) == (a ^ b) v (a ^ c) (equivalently, its dual).

        Decided as "every join-irreducible (exactly one lower cover) is
        join-prime": p <= a v b implies p <= a or p <= b.  Then x -> {join-
        irreducibles below x} is a lattice embedding into a power set
        (Birkhoff; Davey-Priestley, Introduction to Lattices and Order, ch. 5).
        p is join-prime iff the elements not above p are closed under joins,
        that is, iff they form a principal down-set: the last of them in the
        topological order lies above all of them.
        """
        full = (1 << len(self.names)) - 1
        order, pup, pdown = self._order, self._pup, self._pdown
        for p, lower in enumerate(self._lower_covers):
            if len(lower) == 1:
                rest = full & ~pup[p]  # never empty: it holds the bottom
                if pdown[order[rest.bit_length() - 1]] != rest:
                    return False
        return True

    def is_geometric(self) -> bool:
        """Atomistic (every element is the join of the atoms below it) and
        upper semimodular.

        Atomistic is decided as "every join-irreducible is an atom", since
        each element is the join of the join-irreducibles below it.
        Semimodular is decided as "graded, and any two upper covers of an
        element have their join two levels up" (Stanley, Enumerative
        Combinatorics 1, Prop. 3.3.2).
        """
        bottom = (self.bottom,)
        if any(len(lower) == 1 and lower != bottom for lower in self._lower_covers):
            return False
        return self._upper_semimodular


def _cover_pairs(masks, covers):
    """(x, an iterator of masks[a] & masks[b] over the pairs a, b of covers
    of x) for each element x with two covers or more, by id; covers and
    masks both go up (upper covers, up-sets) or both down.  The pairs are
    made and ANDed in C, one at a time."""
    for x, cov in enumerate(covers):
        if len(cov) > 1:
            yield x, starmap(and_, combinations([masks[c] for c in cov], 2))


def build_lattice(names: Iterable[str], covers: Iterable[Sequence[int]]) -> Lattice:
    """Build and validate a lattice from element names and cover pairs.

    The pairs are read once, into the predecessors and successors of each
    element, ordered by Kahn's algorithm, and handed to validated_lattice,
    which keeps the Hasse lower covers of each element; the Lattice makes
    its sorted `covers` pairs only when asked for them.

    Args:
        names: display names, one per element; ids follow this order.
        covers: (lower, upper) id pairs, each a list or tuple of two ints.
            Repeated and transitive pairs are tolerated and reduced to the
            true Hasse diagram.

    Raises:
        LatticeError: a cover entry that is not a list or tuple of two
            ints, a cover out of range or relating an element to itself;
            cyclic covers, duplicate names, or multiple minimal/maximal
            elements.
        NotALatticeError: some pair has no least upper bound.  The error
            names the first pair of upper covers of a common element without
            one, by that element's id, then in combinations order.
    """
    names = list(names)
    n = len(names)
    if n == 0:
        raise LatticeError("a lattice needs at least one element")
    if len(set(names)) != n:
        raise LatticeError("duplicate element names")

    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for pair in covers:
        lo, hi = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 else (None, None)
        if type(lo) is not int or type(hi) is not int:
            raise LatticeError(f"bad cover entry: {pair!r}")
        if not (0 <= lo < n and 0 <= hi < n):
            raise LatticeError(f"cover ({lo}, {hi}) out of range")
        if lo == hi:
            raise LatticeError(f"cover ({lo}, {hi}) relates an element to itself")
        succ[lo].append(hi)
        pred[hi].append(lo)

    # Kahn topological order, last ready element first; detects cycles.  Any
    # linear extension serves: no result depends on which one.
    indeg = [len(pred[x]) for x in range(n)]
    ready = [x for x in range(n) if indeg[x] == 0]
    order: list[int] = []
    while ready:
        x = ready.pop()
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                ready.append(y)
    if len(order) < n:
        raise LatticeError("cover relation contains a cycle")
    del succ, indeg  # freed before the closure
    return validated_lattice(names, pred, order, False)


def validated_lattice(names: list[str], pred: list, order: Sequence[int], hasse: bool) -> Lattice:
    """The Lattice of acyclic covers, once it passes the checks that every
    Lattice passes: one bottom, one top, and a join for every pair of upper
    covers of a common element.

    pred lists the predecessors of each element, and order is a linear
    extension of them.  With hasse, pred[x] is already x's Hasse lower
    covers, ascending; otherwise repeated and transitive pairs are dropped.
    Raises LatticeError or NotALatticeError as build_lattice does.
    """
    n = len(names)
    # The closure: up- and down-sets as bitmasks over positions in order.
    pdown = [0] * n
    for i, x in enumerate(order):
        pdown[x] = reduce(or_, map(pdown.__getitem__, pred[x]), 1 << i)
    pup = [0] * n  # filled after pdown: interleaved, the two fragment the heap
    for i, x in enumerate(order):
        pup[x] = 1 << i
    for x in reversed(order):
        m = pup[x]
        for p in pred[x]:
            pup[p] |= m

    # A minimal element has only itself below it, a maximal one above it.
    bottoms = [x for x in range(n) if pdown[x] & (pdown[x] - 1) == 0]
    tops = [x for x in range(n) if pup[x] & (pup[x] - 1) == 0]
    if len(bottoms) != 1:
        listed = ", ".join(repr(names[x]) for x in bottoms)
        raise LatticeError(f"multiple minimal elements: {listed}")
    if len(tops) != 1:
        listed = ", ".join(repr(names[x]) for x in tops)
        raise LatticeError(f"multiple maximal elements: {listed}")

    # True covers: no third element strictly between; a repeated pair counts once.
    for x, lower in enumerate(pred):
        down = pdown[x]
        pred[x] = tuple(lower) if hasse else tuple(sorted({p for p in lower if (pup[p] & down).bit_count() == 2}))
    lat = Lattice(names, pred, pup, pdown, order)
    # The cover-pair pass.  a and b have a join iff their common up-set is
    # the up-set of some element, which is then the join, so one set of the
    # up-sets tests all the pairs of an element's covers in C.  Only pairs of
    # upper covers of a common element are tested: a finite poset with a
    # bottom and a top in which each such pair has a join is a lattice.  By
    # induction on |P|: take u and v, neither of them the bottom, and atoms
    # p <= u and r <= v.  The up-sets of p and of r meet the hypothesis and
    # are smaller, so they are lattices.  If p = r, then u v v exists in the
    # up-set of p.  Otherwise s = p v r exists by the hypothesis at the
    # bottom, t = u v s exists in the up-set of p, and e = t v v exists in
    # the up-set of r.  Any common upper bound of u and v lies above p and r,
    # hence above s, then t, then e, so e = u v v.  With a bottom, every pair
    # then has a meet too: the join of its common lower bounds.
    # So a non-lattice with a bottom and a top always fails at some pair of
    # covers, and the error names the first such pair: by x's id, then in
    # combinations order of x's ascending upper covers.
    upsets = set(pup)
    for x, common in _cover_pairs(pup, lat._upper_covers):
        if not upsets.issuperset(common):
            a, b = next((a, b) for a, b in combinations(lat._upper_covers[x], 2) if pup[a] & pup[b] not in upsets)
            pair = (names[a], names[b])
            raise NotALatticeError(f"elements {pair[0]!r} and {pair[1]!r} have no least upper bound", pair)
    return lat


def with_names(lat: Lattice, names: Sequence[str]) -> Lattice:
    """The same lattice with replaced display names; ids, order and family
    are kept.

    Raises:
        LatticeError: names is not one distinct name per element.
    """
    if len(names) != len(lat) or len(set(names)) != len(lat):
        raise LatticeError(f"need {len(lat)} distinct names, got {len(set(names))} of {len(names)}")
    return Lattice(names, lat._lower_covers, lat._pup, lat._pdown, lat._order, lat.family)


def sublattice_closure(lat: Lattice, seed: Iterable[int]) -> Lattice:
    """Close a seed set under join and meet; return the induced sublattice.

    The result is a fresh Lattice with its own ids, heights and order;
    names are inherited from the parent.  Each pair of members is joined
    and met once, in the round after the later of the two is added.
    """
    ids = set(seed)
    if not ids:
        raise LatticeError("seed set is empty")
    for x in ids:
        if not 0 <= x < len(lat):
            raise LatticeError(f"seed element {x} out of range")
    old: list[int] = []
    new = sorted(ids)
    while new:
        added = []
        for i, a in enumerate(new):
            for b in old + new[i + 1:]:
                for x in (lat.join(a, b), lat.meet(a, b)):
                    if x not in ids:
                        ids.add(x)
                        added.append(x)
        old += new
        new = added
    return _restrict(lat, sorted(ids))


def _restrict(lat: Lattice, ids: list[int]) -> Lattice:
    """The subposet on ids, a sorted list, as a lattice with ids 0..len-1."""
    pos = {x: i for i, x in enumerate(ids)}
    pup, pdown, order = lat._pup, lat._pdown, lat._order
    mask = 0
    for x in ids:
        mask |= 1 << (pdown[x].bit_length() - 1)  # x's own position
    covers = []
    for x in ids:
        for j in iter_bits(pup[x] & mask):
            y = order[j]
            if (pup[x] & pdown[y] & mask).bit_count() == 2:  # x and y, none between
                covers.append((pos[x], pos[y]))
    return build_lattice([lat.names[x] for x in ids], covers)


def check_window(window: tuple[int, int] | None, height: int):
    """Raise ValueError unless the window [m, M] has 0 <= m <= M, and
    HeightExceeded if it has, but M lies above height."""
    if window is not None and not 0 <= window[0] <= window[1] <= height:
        error = HeightExceeded if 0 <= window[0] <= window[1] else ValueError
        raise error("need 0 <= m <= M <= n")


def window_ids(lat: Lattice, window: tuple[int, int] | None) -> list[int]:
    """Ids of the elements with height in [lo, hi], or all ids for no window.

    Every height 0..total_height() is taken, so the list is never empty.
    lat may be an fq.FamilyWindow, which holds the elements of one window.

    Raises:
        ValueError: the window is not within heights 0..total_height(), or
            lat is a family window made for another window.
    """
    check_window(window, lat.total_height())
    lo, hi = window or (0, lat.total_height())
    if getattr(lat, "window", (lo, hi)) != (lo, hi):
        raise ValueError(f"family window holds heights {lat.window}, not {(lo, hi)}")
    return [x for x in range(len(lat)) if lo <= lat.heights[x] <= hi]


def classify(lat: Lattice) -> dict:
    """Structure report used by the check command."""
    return {
        "elements": len(lat),
        "height": lat.total_height(),
        "jordan_dedekind": lat.has_jordan_dedekind(),
        "modular": lat.is_modular(),
        "distributive": lat.is_distributive(),
        "geometric": lat.is_geometric(),
    }


# --- serialization ---------------------------------------------------------


def to_json(lat: Lattice) -> str:
    """JSON form: {"elements": [names...], "covers": [[lower, upper]...]}."""
    import json  # only JSON reads and writes load it

    return json.dumps(
        {"elements": list(lat.names), "covers": [[lo, hi] for lo, hi in lat.covers]}
    )


def from_json(text: str, max_elements: int | None = None) -> Lattice:
    """Parse the to_json form and build the lattice.

    Given max_elements, inputs with more elements than element_cap(max_elements)
    raise CapExceeded before the lattice is built.  Without it the text is
    trusted as is, the one entry point where None means no cap rather than
    the default; the CLI always passes the resolved cap.
    """
    import json  # only JSON reads and writes load it

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise LatticeError(f"invalid lattice JSON: {e}") from None
    if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
        raise LatticeError('lattice JSON needs "elements" and "covers" keys')
    elements = obj["elements"]
    covers = obj["covers"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise LatticeError('"elements" must be a list of names')
    if max_elements is not None:
        check_cap(len(elements), "lattice JSON", max_elements)
    if not isinstance(covers, list):
        raise LatticeError('"covers" must be a list of [lower, upper] pairs')
    return build_lattice(elements, covers)


def to_dot(lat: Lattice) -> str:
    """Hasse diagram in DOT; upper elements drawn above (rankdir=BT)."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, nm in enumerate(lat.names):
        label = nm.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  e{i} [label="{label}"];')
    for lo, hi in lat.covers:
        lines.append(f"  e{lo} -> e{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
