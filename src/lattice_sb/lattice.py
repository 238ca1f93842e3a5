"""Finite lattices built from cover relations.

Elements are dense integer ids 0..n-1 with display names.  The order is kept
as per-element up/down bitmask sets, and join/meet are materialized n x n
tables computed (and validated) at construction time, so a Lattice is only
ever created for inputs that really are lattices.  Instances are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

DEFAULT_MAX_ELEMENTS = 128
ENV_MAX_ELEMENTS = "LATTICE_SB_MAX_ELEMENTS"


class LatticeError(ValueError):
    """Invalid lattice input: bad covers, not a lattice, unknown name."""


class NotALatticeError(LatticeError):
    """The input poset has a pair without a unique join or meet."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class CapExceeded(LatticeError):
    """A lattice materialization would exceed the element cap."""


def element_cap(max_elements: int | None = None) -> int:
    """Effective materialization cap: explicit arg, else env var, else default.

    Raises:
        LatticeError: the env var is not an integer, or either value is
            negative (an input error, not a cap hit).
    """
    if max_elements is not None:
        if max_elements < 0:
            raise LatticeError(f"max_elements (--max-elements) must be >= 0, got {max_elements}")
        return max_elements
    raw = os.environ.get(ENV_MAX_ELEMENTS)
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise LatticeError(f"{ENV_MAX_ELEMENTS} must be an integer, got {raw!r}") from None
        if cap < 0:
            raise LatticeError(f"{ENV_MAX_ELEMENTS} must be >= 0, got {raw!r}")
        return cap
    return DEFAULT_MAX_ELEMENTS


def iter_bits(mask: int):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _iter_bits_desc(mask: int):
    while mask:
        b = mask.bit_length() - 1
        yield b
        mask ^= 1 << b


class Lattice:
    """Immutable finite lattice with materialized join/meet tables."""

    def __init__(self, names, covers, up, down, heights, join_table, meet_table, bottom, top):
        self.names = tuple(names)
        self.covers = tuple(covers)  # Hasse-reduced (lower, upper) pairs, sorted
        self.heights = tuple(heights)
        self.join_table = join_table
        self.meet_table = meet_table
        self.bottom = bottom
        self.top = top
        self._up = tuple(up)
        self._down = tuple(down)
        self.name_to_id = {nm: i for i, nm in enumerate(self.names)}
        lower: list[list[int]] = [[] for _ in self.names]
        upper: list[list[int]] = [[] for _ in self.names]
        for lo, hi in self.covers:
            lower[hi].append(lo)
            upper[lo].append(hi)
        self._lower_covers = tuple(tuple(v) for v in lower)
        self._upper_covers = tuple(tuple(v) for v in upper)
        self._cache: dict[str, bool] = {}

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Lattice({len(self.names)} elements, height {self.total_height()})"

    def name(self, x: int) -> str:
        return self.names[x]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def leq(self, a: int, b: int) -> bool:
        return (self._up[a] >> b) & 1 == 1

    def height(self, x: int) -> int:
        return self.heights[x]

    def total_height(self) -> int:
        return self.heights[self.top]

    def distance(self, a: int, b: int) -> int:
        """Height-induced distance h(a v b) - h(a ^ b)."""
        return self.heights[self.join_table[a][b]] - self.heights[self.meet_table[a][b]]

    def atoms(self) -> list[int]:
        """Elements of height 1 (equivalently: covers of the bottom)."""
        return [x for x in range(len(self.names)) if self.heights[x] == 1]

    def coatoms(self) -> list[int]:
        """Elements covered by the top."""
        return sorted(self._lower_covers[self.top])

    def downset(self, x: int) -> list[int]:
        """All y <= x, ascending by id."""
        return list(iter_bits(self._down[x]))

    def upset(self, x: int) -> list[int]:
        """All y >= x, ascending by id."""
        return list(iter_bits(self._up[x]))

    def elements_at_height(self, k: int) -> list[int]:
        return [x for x in range(len(self.names)) if self.heights[x] == k]

    # --- valuations -------------------------------------------------------

    def _check_valuation_len(self, v: Sequence[int]):
        if len(v) != len(self.names):
            raise ValueError("valuation must assign a value to every element")

    def is_valuation(self, v: Sequence[int]) -> bool:
        """True iff v(x v y) + v(x ^ y) == v(x) + v(y) for every pair."""
        self._check_valuation_len(v)
        n = len(self.names)
        jt, mt = self.join_table, self.meet_table
        for a in range(n):
            va, ja, ma = v[a], jt[a], mt[a]
            for b in range(a, n):
                if v[ja[b]] + v[ma[b]] != va + v[b]:
                    return False
        return True

    def is_isotone(self, v: Sequence[int]) -> bool:
        """Monotone along the order; checking covers suffices by transitivity."""
        self._check_valuation_len(v)
        return all(v[lo] <= v[hi] for lo, hi in self.covers)

    def is_positive_isotone(self, v: Sequence[int]) -> bool:
        """Strictly increasing along the strict order (strict on every cover)."""
        self._check_valuation_len(v)
        return all(v[lo] < v[hi] for lo, hi in self.covers)

    # --- structure predicates (cached; the lattice is immutable) ----------

    def _cached(self, key, fn) -> bool:
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def has_jordan_dedekind(self) -> bool:
        """All maximal chains between any two comparable elements have equal length."""

        def compute() -> bool:
            n = len(self.names)
            order = sorted(range(n), key=lambda x: (self.heights[x], x))
            for a in range(n):
                up_a = self._up[a]
                minlen = {a: 0}
                maxlen = {a: 0}
                for x in order:
                    if x == a or not (up_a >> x) & 1:
                        continue
                    preds = [p for p in self._lower_covers[x] if (up_a >> p) & 1]
                    mn = min(minlen[p] for p in preds) + 1
                    mx = max(maxlen[p] for p in preds) + 1
                    if mn != mx:
                        return False
                    minlen[x] = mn
                    maxlen[x] = mx
            return True

        return self._cached("jordan_dedekind", compute)

    def is_modular(self) -> bool:
        """Exhaustive check of a <= c  =>  a v (b ^ c) == (a v b) ^ c."""

        def compute() -> bool:
            n = len(self.names)
            jt, mt = self.join_table, self.meet_table
            for a in range(n):
                ja = jt[a]
                for c in iter_bits(self._up[a]):
                    mtc = mt[c]
                    for b in range(n):
                        if ja[mt[b][c]] != mtc[ja[b]]:
                            return False
            return True

        return self._cached("modular", compute)

    def is_distributive(self) -> bool:
        """Exhaustive check of both distributive laws over all triples."""

        def compute() -> bool:
            n = len(self.names)
            jt, mt = self.join_table, self.meet_table
            for a in range(n):
                ja, ma = jt[a], mt[a]
                for b in range(n):
                    jb, mb = jt[b], mt[b]
                    for c in range(n):
                        if ja[mb[c]] != mt[ja[b]][ja[c]]:
                            return False
                        if ma[jb[c]] != jt[ma[b]][ma[c]]:
                            return False
            return True

        return self._cached("distributive", compute)

    def is_geometric(self) -> bool:
        """Every element is the join of the atoms below it."""

        def compute() -> bool:
            ats = self.atoms()
            for x in range(len(self.names)):
                acc = self.bottom
                for t in ats:
                    if self.leq(t, x):
                        acc = self.join_table[acc][t]
                if acc != x:
                    return False
            return True

        return self._cached("geometric", compute)


def build_lattice(names: Iterable[str], covers: Iterable[Sequence[int]]) -> Lattice:
    """Build and validate a lattice from element names and cover pairs.

    Args:
        names: display names, one per element; ids follow this order.
        covers: (lower, upper) id pairs.  Transitive edges are tolerated and
            reduced to the true Hasse diagram.

    Raises:
        LatticeError: cyclic covers, duplicate names, or multiple
            minimal/maximal elements.
        NotALatticeError: some pair has no unique least upper bound or
            greatest lower bound (the offending pair is named).
    """
    names = list(names)
    n = len(names)
    if n == 0:
        raise LatticeError("a lattice needs at least one element")
    if len(set(names)) != n:
        raise LatticeError("duplicate element names")

    edges = set()
    for pair in covers:
        lo, hi = int(pair[0]), int(pair[1])
        if not (0 <= lo < n and 0 <= hi < n):
            raise LatticeError(f"cover ({lo}, {hi}) out of range")
        if lo == hi:
            raise LatticeError(f"cover ({lo}, {hi}) relates an element to itself")
        edges.add((lo, hi))
    edges = sorted(edges)

    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in edges:
        succ[lo].append(hi)
        pred[hi].append(lo)

    # Kahn topological order; detects cycles.
    indeg = [len(pred[x]) for x in range(n)]
    stack = sorted((x for x in range(n) if indeg[x] == 0), reverse=True)
    order: list[int] = []
    while stack:
        x = stack.pop()
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                stack.append(y)
    if len(order) < n:
        raise LatticeError("cover relation contains a cycle")

    up = [1 << x for x in range(n)]
    for x in reversed(order):
        for y in succ[x]:
            up[x] |= up[y]
    down = [1 << x for x in range(n)]
    for x in order:
        for p in pred[x]:
            down[x] |= down[p]

    bottoms = [x for x in range(n) if down[x] == 1 << x]
    tops = [x for x in range(n) if up[x] == 1 << x]
    if len(bottoms) != 1:
        listed = ", ".join(repr(names[x]) for x in bottoms)
        raise LatticeError(f"multiple minimal elements: {listed}")
    if len(tops) != 1:
        listed = ", ".join(repr(names[x]) for x in tops)
        raise LatticeError(f"multiple maximal elements: {listed}")
    bottom, top = bottoms[0], tops[0]

    # True covers: no third element strictly between.
    hasse = tuple(
        (lo, hi)
        for lo, hi in edges
        if up[lo] & down[hi] == (1 << lo) | (1 << hi)
    )
    lower: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in hasse:
        lower[hi].append(lo)

    # Height: longest cover path from the bottom.
    heights = [0] * n
    for x in order:
        if x != bottom:
            heights[x] = max(heights[p] + 1 for p in lower[x])

    canon = list(range(n))
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for a in range(n):
        up_a, down_a = up[a], down[a]
        jr, mr = join_table[a], meet_table[a]
        for b in range(a, n):
            ub = up_a & up[b]
            j = -1
            for c in iter_bits(ub):
                if up[c] & ub == ub:
                    j = c
                    break
            if j < 0:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no least upper bound",
                    (names[a], names[b]),
                )
            lb = down_a & down[b]
            m = -1
            for c in _iter_bits_desc(lb):
                if down[c] & lb == lb:
                    m = c
                    break
            if m < 0:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no greatest lower bound",
                    (names[a], names[b]),
                )
            j, m = canon[j], canon[m]
            jr[b] = j
            join_table[b][a] = j
            mr[b] = m
            meet_table[b][a] = m

    return Lattice(names, hasse, up, down, heights, join_table, meet_table, bottom, top)


def with_names(lat: Lattice, names: Sequence[str]) -> Lattice:
    """The same lattice with replaced display names (id order preserved)."""
    return build_lattice(names, lat.covers)


def sublattice_closure(lat: Lattice, seed: Iterable[int]) -> Lattice:
    """Close a seed set under join and meet; return the induced sublattice.

    The result is a fresh Lattice with its own ids, heights, and tables;
    names are inherited from the parent.
    """
    ids = set(seed)
    if not ids:
        raise LatticeError("seed set is empty")
    for x in ids:
        if not 0 <= x < len(lat):
            raise LatticeError(f"seed element {x} out of range")
    changed = True
    while changed:
        changed = False
        cur = sorted(ids)
        for i, a in enumerate(cur):
            for b in cur[i:]:
                for x in (lat.join(a, b), lat.meet(a, b)):
                    if x not in ids:
                        ids.add(x)
                        changed = True
    return _restrict(lat, sorted(ids))


def _restrict(lat: Lattice, ids: list[int]) -> Lattice:
    pos = {x: i for i, x in enumerate(ids)}
    mask = 0
    for x in ids:
        mask |= 1 << x
    covers = []
    for x in ids:
        for y in iter_bits(lat._up[x] & mask & ~(1 << x)):
            between = lat._up[x] & lat._down[y] & mask & ~(1 << x) & ~(1 << y)
            if between == 0:
                covers.append((pos[x], pos[y]))
    return build_lattice([lat.names[x] for x in ids], covers)


def window_ids(lat: Lattice, window: tuple[int, int] | None) -> list[int]:
    """Ids of the elements with height in [lo, hi], or all ids for no window."""
    if window is None:
        return list(range(len(lat)))
    lo, hi = window
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid height window {lo} {hi}: need 0 <= lo <= hi")
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
    return json.dumps(
        {"elements": list(lat.names), "covers": [[lo, hi] for lo, hi in lat.covers]}
    )


def from_json(text: str, max_elements: int | None = None) -> Lattice:
    """Parse the to_json form and build the lattice.

    Given max_elements, inputs with more elements than element_cap(max_elements)
    raise CapExceeded before any table is built.  Without it the text is
    trusted as is; the CLI always passes the resolved cap.
    """
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
        cap = element_cap(max_elements)
        if len(elements) > cap:
            raise CapExceeded(
                f"lattice JSON has {len(elements)} elements; cap is {cap} "
                f"(raise via max_elements or LATTICE_SB_MAX_ELEMENTS)"
            )
    if not isinstance(covers, list):
        raise LatticeError('"covers" must be a list of [lower, upper] pairs')
    for c in covers:
        if not (isinstance(c, list) and len(c) == 2 and all(isinstance(v, int) for v in c)):
            raise LatticeError(f"bad cover entry: {c!r}")
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
