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

Each branch starts from the greedy incumbent and never sees its earlier
siblings' improvements, and results merge in branch order.  Sharing the
incumbent would prune more, but it is an algorithm change of its own: it
changes the node counts, which the benchmark checks exactly.  The node
budget is one count over all branches, charged in branch order; the search
stops at the first branch it aborts.  The wall-clock budget, checked every
4096 nodes, is the only abort path that can vary between runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .bounds import kks_bound, puncture_budget
from .lattice import Lattice, iter_bits, window_ids
from .schemes import Scheme, make_scheme


@dataclass(frozen=True)
class SearchProblem:
    lattice: Lattice
    d: int
    window: tuple[int, int] | None = None
    budget_nodes: int = 10_000_000
    budget_secs: float = 60.0


@dataclass(frozen=True)
class SearchResult:
    members: tuple[int, ...]  # lattice element ids, sorted
    best_size: int
    proven_optimal: bool
    nodes: int


def _build_graph(lat: Lattice, d: int, ids: list[int]):
    verts = sorted(ids, key=lambda x: (lat.heights[x], x))
    m = len(verts)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if lat.distance(verts[i], verts[j]) >= d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return verts, adj


class _Budget(Exception):
    pass


class _BranchSearch:
    """The clique search, one top-level branch per run() call.

    The node count and the budgets span all runs; the incumbent does not.
    """

    def __init__(self, adj, node_budget, deadline):
        self.adj = adj
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
            return True
        except _Budget:
            return False

    def _expand(self, r_mask: int, p_mask: int, r_size: int):
        if self.nodes >= self.node_budget:
            raise _Budget
        self.nodes += 1
        if self.deadline is not None and self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _Budget
        if not p_mask:
            if r_size > self.best_size:
                self.best_size = r_size
                self.best_mask = r_mask
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


def _greedy_mask(adj, m: int) -> tuple[int, int]:
    mask = 0
    size = 0
    for v in range(m):
        if adj[v] & mask == mask:
            mask |= 1 << v
            size += 1
    return mask, size


def max_code(problem: SearchProblem) -> SearchResult:
    """Largest scheme with pairwise distance >= d inside the window.

    Returns the best scheme found, whether optimality was proven (budgets not
    exhausted), and the deterministic node count.  The returned scheme is
    re-verified through the schemes module before being reported.
    """
    if problem.d < 1:
        raise ValueError("minimum distance must be >= 1")
    lat = problem.lattice
    ids = window_ids(lat, problem.window)
    if not ids:
        return SearchResult((), 0, True, 0)
    verts, adj = _build_graph(lat, problem.d, ids)
    m = len(verts)
    greedy_mask, greedy_size = _greedy_mask(adj, m)
    deadline = time.monotonic() + problem.budget_secs if problem.budget_secs else None

    search = _BranchSearch(adj, problem.budget_nodes, deadline)
    best_size, best_mask = greedy_size, greedy_mask
    proven = True
    for v in range(m):
        proven = search.run(v, adj[v] & ~((1 << (v + 1)) - 1), greedy_size)
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
    """Greedy maximal packing; meets the GV-type lower bound by maximality."""
    if d < 1:
        raise ValueError("minimum distance must be >= 1")
    ids = window_ids(lat, window)
    if not ids:
        raise ValueError("empty height window")
    order = sorted(ids, key=lambda x: (lat.heights[x], x))
    if seed is not None:
        random.Random(seed).shuffle(order)
    chosen: list[int] = []
    for x in order:
        if all(lat.distance(x, y) >= d for y in chosen):
            chosen.append(x)
    return make_scheme(lat, chosen)


@dataclass(frozen=True)
class ProbeRow:
    q: int
    n: int
    l: int
    d: int
    alpha: int
    bound: int
    best_size: int
    gap: int
    attained: bool
    degenerate: bool  # alpha == 0: the bound counts the whole window
    proven_optimal: bool
    nodes: int


def conjecture_probe(
    q: int,
    n: int,
    l: int,
    d: int,
    budget_nodes: int = 10_000_000,
    budget_secs: float = 60.0,
    max_elements: int | None = None,
) -> ProbeRow:
    """Compare the constant-dimension bound against the exact search optimum.

    alpha = 0 rows are flagged degenerate (the bound is the whole window and
    is trivially attained); they are excluded from evidence tallies.
    """
    from .fq import build_projective_lattice

    lat = build_projective_lattice(n, q, max_elements)
    res = max_code(SearchProblem(lat, d, (l, l), budget_nodes, budget_secs))
    bound = kks_bound(n, l, d, q)
    alpha = puncture_budget(d, False)
    return ProbeRow(
        q=q,
        n=n,
        l=l,
        d=d,
        alpha=alpha,
        bound=bound,
        best_size=res.best_size,
        gap=bound - res.best_size,
        attained=res.best_size == bound,
        degenerate=alpha == 0,
        proven_optimal=res.proven_optimal,
        nodes=res.nodes,
    )
