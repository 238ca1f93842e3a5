"""Exhaustive maximum-scheme search via branch and bound on the distance graph.

Vertices are the lattice elements inside the height window, edges join pairs
at distance >= d, and a maximum scheme is a maximum clique.  The search is
Tomita-style (greedy coloring bound, as in Tomita-Seki-Kameda MCS) with a
fixed vertex order (height, then element id), run serially one top-level
branch after another.

Each node colours its candidates class by class on bitsets: class c starts
from the uncoloured candidates and repeatedly takes the lowest one, removing
it and its neighbours, so a node costs O(|P|) big-int operations rather than
O(|P| * colours).  These are exactly the classes, each in ascending order,
of sequential greedy colouring in vertex order, so the branching order, the
bounds, the node counts and the schemes found are those of that colouring.
The MCS cut returns only candidates whose colour exceeds best - |R|; the
others would be pruned before they were expanded, so it saves work without
changing the node count.

The search starts from the largest of several greedy schemes: one over the
whole window in vertex order, and one on each height level alone; a tie
keeps the whole-window scheme.  The whole-window greedy fills the small low
levels first, but every code on one level is a code of the window: on
Sub(F_2^5), d=2, window (1,2) the whole-window greedy takes the 31 points,
which block every line, while the line level alone gives all 155 lines,
the optimum.  A higher start only prunes more, so it never adds nodes.

The search reads its lattice only through heights, total_height,
distance_rows and len, takes its cap from bounds.search_cap, which also
reads family and may ask is_modular(), and checks its result with
make_scheme, which also reads distance and distances.  fq.FamilyWindow
offers the same for a window of 2^[n] or Sub(F_q^n), built from the mask
of the atoms below each element; the command line searches those families
on it instead of building the lattice.  A family window holds one window's
elements, so window_ids refuses to search it with another.  Each builds the
distance graph in distance_rows its own way: a Lattice takes one
distances() pass per vertex, a family window adds up bit-sliced counters
of common atoms, which give a vertex's whole row in a few big-int
operations, by one rule for both families: an element of height k has
[k]_q atoms (k on 2^[n]), so a common-atom count gives the height of the
meet.

The search stops at a cap, an upper bound on the clique size where one is
known to hold, which bounds.search_cap decides: the sphere-packing bound,
whose balls _build_graph counts with the edges, and on the families the
anticode bound.  When the starting scheme reaches the cap it is proven
optimal at the root, with 0 nodes, and a branch whose clique reaches it
ends the whole search, proven.

Each branch starts from the starting scheme's size and never sees its earlier
siblings' improvements, and results merge in branch order.  Sharing the
incumbent would prune more, but it is an algorithm change of its own: it
changes the node counts, which the benchmark checks exactly.  The node
budget is one count over all branches, charged in branch order; the search
stops at the first branch it aborts.  The wall-clock budget, checked every
4096 nodes, is the only abort path that can vary between runs.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import NamedTuple

from .bounds import _check_distances, search_cap
from .lattice import Lattice, iter_bits, window_ids
from .schemes import Scheme, make_scheme


class SearchProblem(NamedTuple):
    lattice: Lattice  # or an fq.FamilyWindow
    d: int
    window: tuple[int, int] | None = None
    budget_nodes: int = 10_000_000
    budget_secs: float = 60.0


class SearchResult(NamedTuple):
    members: tuple[int, ...]  # element ids of problem.lattice, sorted
    best_size: int
    proven_optimal: bool
    nodes: int


def _build_graph(lat: Lattice, d: int, ids: list[int]):
    """(verts, adj, ball): the window in vertex order, its distance graph as
    neighbour bitsets, and the fewest window elements within distance
    floor((d-1)/2) of any one vertex, itself included.  ids must not be empty.

    The rows come from lat.distance_rows: per-pair distances on a Lattice,
    atom bitsets on a family window."""
    verts = sorted(ids, key=lambda x: (lat.heights[x], x))
    adj, near = lat.distance_rows(verts, d)
    return verts, adj, min(near)


class _Budget(Exception):
    pass


class _Capped(Exception):
    pass


class _BranchSearch:
    """The clique search, one top-level branch per run() call.

    The node count and the budgets span all runs; the incumbent does not.  A
    run ends, proven, at the first clique of cap members (never, without a
    cap).
    """

    def __init__(self, adj, node_budget, deadline, cap=None):
        self.adj = adj
        self.cap = len(adj) + 1 if cap is None else cap
        # non_adj[v]: every vertex except v and its neighbours
        self.non_adj = [~(a | (1 << v)) for v, a in enumerate(adj)]
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        self.best_size = 0
        self.best_mask = 0

    def run(self, v: int, cand_mask: int, start_best: int) -> bool:
        self.best_size = start_best
        self.best_mask = 0
        try:
            self._expand(1 << v, cand_mask, 1)
        except _Budget:
            return False
        except _Capped:
            pass
        return True

    def _expand(self, r_mask: int, p_mask: int, r_size: int):
        if self.nodes >= self.node_budget:
            raise _Budget
        self.nodes += 1
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _Budget
        if not p_mask:
            if r_size > self.best_size:
                self.best_size = r_size
                self.best_mask = r_mask
                if r_size >= self.cap:
                    raise _Capped
            return
        order, bound = self._color_sort(p_mask, self.best_size - r_size)
        adj = self.adj
        for idx in range(len(order) - 1, -1, -1):
            if r_size + bound[idx] <= self.best_size:
                return
            v = order[idx]
            self._expand(r_mask | (1 << v), p_mask & adj[v], r_size + 1)
            p_mask ^= 1 << v

    def _color_sort(self, p_mask: int, kmin: int):
        """Greedy colour classes of p_mask, built one at a time on bitsets.

        Returns (order, bound): the vertices class by class, each class
        ascending, and their colours, keeping only colours > kmin.  A clique
        meets each class at most once, so the colour bounds its growth.
        """
        non_adj = self.non_adj
        order: list[int] = []
        bound: list[int] = []
        rest = p_mask
        color = 0
        while rest:
            color += 1
            q = rest
            while q:
                low = q & -q
                v = low.bit_length() - 1
                rest ^= low
                q &= non_adj[v]
                if color > kmin:
                    order.append(v)
                    bound.append(color)
        return order, bound


def _greedy_mask(adj, order) -> tuple[int, int]:
    """The clique that greedy builds taking the vertices in the given order."""
    mask = 0
    size = 0
    for v in order:
        if adj[v] & mask == mask:
            mask |= 1 << v
            size += 1
    return mask, size


def _start(lat: Lattice, verts, adj) -> tuple[int, int]:
    """(mask, size) of the largest greedy scheme: over the whole window in
    vertex order, or on one height level alone; a tie keeps the former."""
    best_mask, best_size = _greedy_mask(adj, range(len(verts)))
    # verts is sorted by height, so each level is a run of consecutive vertices
    for _, level in itertools.groupby(range(len(verts)), key=lambda i: lat.heights[verts[i]]):
        mask, size = _greedy_mask(adj, level)
        if size > best_size:
            best_mask, best_size = mask, size
    return best_mask, best_size


def max_code(problem: SearchProblem) -> SearchResult:
    """Largest scheme with pairwise distance >= d inside the window.

    Returns the best scheme found, whether optimality was proven (budgets not
    exhausted, or a scheme reached the cap), and the deterministic node
    count.  The returned scheme is re-verified through the schemes module
    before being reported.  Raises ValueError, in this order, for a window
    outside the heights 0..height of the lattice (or another than a family
    window holds), d < 1, a negative node budget or a time budget that is
    not positive.
    """
    lat = problem.lattice
    ids = window_ids(lat, problem.window)
    _check_distances((problem.d,))
    if problem.budget_nodes < 0:
        raise ValueError(f"budget_nodes (--budget-nodes) must be >= 0, got {problem.budget_nodes}")
    if not problem.budget_secs > 0:
        raise ValueError(f"budget_secs (--budget-secs) must be > 0, got {problem.budget_secs}")
    verts, adj, ball = _build_graph(lat, problem.d, ids)
    m = len(verts)
    cap = search_cap(lat, problem.d, problem.window, m, ball)
    start_mask, start_size = _start(lat, verts, adj)
    deadline = time.monotonic() + problem.budget_secs

    search = _BranchSearch(adj, problem.budget_nodes, deadline, cap)
    best_mask, best_size = start_mask, start_size
    proven = True
    for v in range(m):
        if best_size >= search.cap:  # no branch can beat a scheme at the cap
            break
        proven = search.run(v, adj[v] & ~((1 << (v + 1)) - 1), start_size)
        if search.best_size > best_size:
            best_size, best_mask = search.best_size, search.best_mask
        if not proven:
            break

    members = tuple(sorted(verts[i] for i in iter_bits(best_mask)))
    if len(members) != best_size:
        raise RuntimeError("search bookkeeping error")
    if best_size >= 2:
        check = make_scheme(lat, members)
        if check.min_dist < problem.d:
            raise RuntimeError("search produced a scheme below the required distance")
    return SearchResult(members, best_size, proven, search.nodes)


def greedy_code(lat: Lattice, d: int, seed: int | None = None, window=None) -> Scheme:
    """Greedy maximal packing; meets the GV-type lower bound by maximality.

    Takes the window in the search's vertex order (height, then id), or in
    that order shuffled by seed.
    """
    _check_distances((d,))
    verts, adj, _ = _build_graph(lat, d, window_ids(lat, window))
    order = list(range(len(verts)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    mask, _ = _greedy_mask(adj, order)
    return make_scheme(lat, [verts[i] for i in iter_bits(mask)])

