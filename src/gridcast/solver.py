"""Exact broadcast domination numbers by budgeted complete search.

Iterative deepening on the tower count k: a complete depth-first search at
each level means every failed level certifies that no broadcast of that size
exists, so the first success is optimal. Within a level the search branches
on the lexicographically first deficient vertex; its candidate towers are the
grid vertices that supply it positive signal, tried in order of decreasing
marginal deficiency coverage (ties broken lexicographically), with candidates
already refuted at a branch point excluded from the subtree.

Every child is counted as one node expansion, but only interior children are
placed. A child's gain (the deficiency it would repair) is computed once, when
the candidates are ranked: a child whose gain covers the whole deficit is the
answer, and one that leaves more deficit than the remaining towers could
repair (each repairs at most `max_unit_coverage`) is refuted, both without
touching the signal totals. The same bound prunes whole levels: exact_gamma
starts at the deficit bound ceil(r*m*n / max_unit_coverage), below which a
level's root is already refuted.

At the root only, candidates are additionally reduced to one representative
per orbit of the grid's symmetry group (8 symmetries for square grids, 4
otherwise). This is sound because the domination number is invariant under
grid automorphisms; the naive enumerator used to cross-check the solver
applies no such reduction.

Setup builds no per-cell table: a cell's cover (the cells a tower there
reaches, with their signals) is built from one offset list the first time the
search reads it, and symmetry images are computed only for the root's
candidates. So a level's setup is O(mn) and everything after it is bounded
by the budget. Ranking one cell's candidates may build a cover for each
before a node is counted, so max_seconds is checked as covers are built too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import lower_t2
from .grid import (
    BroadcastParams,
    Coord,
    GridDims,
    TowerSet,
    check_broadcast,
    signal_field,
)

DEFAULT_MAX_NODES = 10_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Caps on node expansions and, optionally, wall-clock seconds.

    Passed to exact_gamma, they bound the whole solve; passed to
    find_broadcast_of_size, one level including its setup.
    """

    max_nodes: int = DEFAULT_MAX_NODES
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.max_seconds is not None and not (
            math.isfinite(self.max_seconds) and self.max_seconds > 0
        ):
            raise ValueError(f"max_seconds must be finite and > 0, got {self.max_seconds}")


class BudgetExhaustedError(Exception):
    """The search budget ran out before the level completed."""

    def __init__(self, nodes_expanded: int):
        super().__init__(f"search budget exhausted after {nodes_expanded} node expansions")
        self.nodes_expanded = nodes_expanded


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal" | "budget_exhausted"
    gamma: int | None
    witness: TowerSet | None
    nodes_expanded: int
    # (k, nodes expanded at level k) for every level searched, in order.
    level_nodes: tuple[tuple[int, int], ...] = ()


def _cell_images(u: int, m: int, n: int) -> list[int]:
    """The images of cell u = x*n + y under the grid's 4 or 8 automorphisms."""
    x, y = divmod(u, n)
    images = [(x, y), (m - 1 - x, y), (x, n - 1 - y), (m - 1 - x, n - 1 - y)]
    if m == n:
        images += [(y, x), (m - 1 - y, x), (y, m - 1 - x), (m - 1 - y, m - 1 - x)]
    return [a * n + b for a, b in images]


def max_unit_coverage(dims: GridDims, params: BroadcastParams) -> int:
    """The most total deficiency one tower can repair on an empty grid.

    That is the capped coverage sum(min(r, signal)) of a tower on the central
    vertex ((m-1)//2, (n-1)//2). For every radius, the number of grid
    vertices within that L1 distance of a tower is largest at the centre
    (per axis, min(d, x) + min(d, m-1-x) is largest when x is central), and
    the capped signal is a non-increasing function of the distance, so no
    tower covers more. Placed towers only shrink what a later one can repair.
    The sum reads signal_field on the grid clipped to distance t-1 of the
    centre, at most (2t-1)^2 vertices: the tower supplies nothing beyond it.
    """
    reach = params.t - 1
    cx, cy = (dims.m - 1) // 2, (dims.n - 1) // 2
    x0, y0 = max(cx - reach, 0), max(cy - reach, 0)
    box = GridDims(min(cx + reach, dims.m - 1) - x0 + 1, min(cy + reach, dims.n - 1) - y0 + 1)
    field = signal_field(box, params.t, np.array([[cx - x0, cy - y0]]))
    # Signals never exceed t, so capping at min(r, t) keeps the sum in int64.
    return int(np.minimum(field, min(params.r, params.t)).sum())


class _Search:
    """One complete search for a broadcast of at most `slots` towers.

    Signal totals are maintained incrementally: placing or removing a tower
    touches only the cells inside its signal diamond.
    """

    def __init__(self, dims: GridDims, params: BroadcastParams, budget: SearchBudget):
        # The clock starts before setup, so setup is charged to max_seconds.
        self.deadline = (
            None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
        )
        m, n, t = dims.m, dims.n, params.t
        self.m, self.n, self.r = m, n, params.r
        self.budget = budget
        # (dx, dy, signal) for every offset within distance t-1 that fits in
        # the grid, in (dx, dy) order; covers are built from it on first use.
        wx, wy = min(t - 1, m - 1), min(t - 1, n - 1)
        self.offsets = [
            (dx, dy, t - abs(dx) - abs(dy))
            for dx in range(-wx, wx + 1)
            for dy in range(-wy, wy + 1)
            if abs(dx) + abs(dy) < t
        ]
        self.cover: list[list[tuple[int, int]] | None] = [None] * (m * n)
        self.max_unit_coverage = max_unit_coverage(dims, params)
        self.field = [0] * (m * n)
        self.stack: list[int] = []
        self.nodes = 0

    def _cover(self, u: int) -> list[tuple[int, int]]:
        """The (cell, signal) pairs a tower on u supplies, in cell order; cached."""
        # Ranking builds a cover per candidate before any node is counted.
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhaustedError(self.nodes)
        m, n = self.m, self.n
        x, y = divmod(u, n)
        cells = [
            (u + dx * n + dy, s)
            for dx, dy, s in self.offsets
            if 0 <= x + dx < m and 0 <= y + dy < n
        ]
        self.cover[u] = cells
        return cells

    def _root_representatives(self, ranked: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Keep the first-ranked candidate of each symmetry orbit."""
        rank = {u: i for i, (_, u) in enumerate(ranked)}
        return [
            (g, u)
            for i, (g, u) in enumerate(ranked)
            if all(rank.get(w, i) >= i for w in _cell_images(u, self.m, self.n))
        ]

    def run(self, slots: int) -> list[int] | None:
        # r >= 1, so the empty grid is deficient; prune a hopeless root.
        deficit = self.r * len(self.field)
        if deficit > slots * self.max_unit_coverage:
            return None
        return self._dfs(slots, deficit, set(), 0)

    def _dfs(
        self, slots: int, deficit: int, forbidden: set[int], start: int
    ) -> list[int] | None:
        """Branch on the first deficient cell at or after `start`.

        Cells before `start` are satisfied. The caller has checked that
        `deficit`, the total shortfall, is positive and that `slots`
        towers could still repair it. Each child is counted as a node; one
        that covers the whole deficit, or leaves more than the remaining
        towers could repair, is decided from its gain without being placed.
        """
        field, r, cover = self.field, self.r, self.cover
        v = start
        while field[v] >= r:
            v += 1
        # Rank by gain, the deficiency each candidate would repair. Placed
        # towers are in `forbidden` too.
        ranked = []
        for u, _ in cover[v] or self._cover(v):
            if u in forbidden:
                continue
            gain = 0
            for c, s in cover[u] or self._cover(u):
                d = r - field[c]
                if d > 0:
                    gain += d if d < s else s
            ranked.append((-gain, u))
        ranked.sort()
        if not self.stack:
            ranked = self._root_representatives(ranked)
        reach = (slots - 1) * self.max_unit_coverage
        max_nodes, deadline = self.budget.max_nodes, self.deadline
        tried = []
        for neg_gain, u in ranked:
            if self.nodes >= max_nodes:
                raise BudgetExhaustedError(self.nodes)
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhaustedError(self.nodes)
            self.nodes += 1
            left = deficit + neg_gain
            if left == 0:
                return self.stack + [u]
            forbidden.add(u)
            tried.append(u)
            if left <= reach:
                cells = cover[u]
                for c, s in cells:
                    field[c] += s
                self.stack.append(u)
                found = self._dfs(slots - 1, left, forbidden, v)
                self.stack.pop()
                for c, s in cells:
                    field[c] -= s
                if found is not None:
                    return found
        for u in tried:
            forbidden.discard(u)
        return None


def find_broadcast_of_size(
    dims: GridDims,
    params: BroadcastParams,
    k: int,
    budget: SearchBudget | None = None,
) -> tuple[TowerSet | None, int]:
    """Complete search for a valid broadcast of at most k towers.

    Returns (witness, nodes_expanded); the witness is None when no broadcast
    of size k exists, which doubles as an optimality certificate for k+1 and
    above. Raises BudgetExhaustedError (carrying the node count) if the
    budget runs out before the level is decided.
    """
    if k < 0:
        raise ValueError(f"tower count k must be >= 0, got {k}")
    search = _Search(dims, params, budget or SearchBudget())
    found = search.run(k)
    if found is None:
        return None, search.nodes
    n = dims.n
    return TowerSet(Coord(u // n, u % n) for u in found), search.nodes


def exact_gamma(
    dims: GridDims,
    params: BroadcastParams,
    budget: SearchBudget | None = None,
) -> SolveResult:
    """The minimum size of a (t,r) broadcast, with a witness.

    Levels k are tried in increasing order; each exhausted level certifies
    that no smaller broadcast exists, so the first hit is optimal. The first
    level is the deficit bound ceil(r*m*n / max_unit_coverage), below which a
    level's root is pruned, raised to the area lower bound when that applies
    (t >= 3 and r >= 2). The budget covers the whole solve: each level gets
    the nodes and seconds the earlier ones left.

    A broadcast exists iff towers on every vertex are one, and that is
    decided on the min(m,t) x min(n,t) corner box with towers on all of it,
    so its arrays grow with the box, not the grid. With towers everywhere,
    vertex (x, y) receives the sum of t - |x-a| - |y-b| over the towers
    (a, b) within reach. Per axis the distances from a corner are 0, 1, ...,
    m-1, and from any x the i-th smallest distance is at most i, because at
    least min(i+1, m) positions lie within distance i of x. Signal falls with
    distance, so pairing distances in sorted order shows no vertex receives
    less than a corner: the grid is valid iff (0, 0) receives r. Only towers
    with a < t and b < t reach (0, 0), and those are exactly the box's, so
    (0, 0) receives the same total in the box; by the same argument it is the
    box's minimum, and the box's verdict is the grid's.
    """
    budget = budget or SearchBudget()
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    box = GridDims(min(dims.m, params.t), min(dims.n, params.t))
    every_vertex = np.indices((box.m, box.n)).reshape(2, -1).T
    if not check_broadcast(box, params, TowerSet(every_vertex)).valid:
        raise ValueError(
            f"no ({params.t},{params.r}) broadcast exists on {dims.m}x{dims.n}: "
            "even towers on every vertex fall short"
        )
    k = -(-params.r * dims.m * dims.n // max_unit_coverage(dims, params))
    if params.t >= 3 and params.r >= 2:
        k = max(k, lower_t2(dims.m, dims.n, params.t))
    total_nodes = 0
    levels: list[tuple[int, int]] = []
    while True:
        seconds = None if deadline is None else deadline - time.monotonic()
        if total_nodes >= budget.max_nodes or (seconds is not None and seconds <= 0):
            return SolveResult("budget_exhausted", None, None, total_nodes, tuple(levels))
        left = SearchBudget(budget.max_nodes - total_nodes, seconds)
        try:
            witness, nodes = find_broadcast_of_size(dims, params, k, left)
        except BudgetExhaustedError as exc:
            levels.append((k, exc.nodes_expanded))
            return SolveResult(
                "budget_exhausted", None, None, total_nodes + exc.nodes_expanded, tuple(levels)
            )
        total_nodes += nodes
        levels.append((k, nodes))
        if witness is not None:
            return SolveResult("optimal", len(witness), witness, total_nodes, tuple(levels))
        k += 1
