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

The search is one loop over an explicit stack of frames, one per branch
point on the current path, so its depth is bounded by the tower count, not
by Python's recursion limit. Setup builds no table: a cell's cover (the cells
a tower there reaches, with their signals) is built from the row spans of its
diamond the first time the search reads it, and symmetry images are computed
only for the root's candidates. So a level's setup is O(mn) and everything
after it is bounded by the budget. Ranking one cell's candidates may build a
cover for each before a node is counted, so max_seconds is checked as covers
are built too, once per diamond row; a cover cut short is not kept. Every
witness is re-checked by check_broadcast before it is returned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

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


def _one_tower_field(dims: GridDims, t: int, x: int, y: int) -> np.ndarray:
    """One tower's signal_field on the at most (2t-1)^2 vertices it reaches."""
    reach = t - 1
    x0, y0 = max(x - reach, 0), max(y - reach, 0)
    box = GridDims(min(x + reach, dims.m - 1) - x0 + 1, min(y + reach, dims.n - 1) - y0 + 1)
    return signal_field(box, t, np.array([[x - x0, y - y0]]))


def max_unit_coverage(dims: GridDims, params: BroadcastParams) -> int:
    """The most total deficiency one tower can repair on an empty grid.

    That is the capped coverage sum(min(r, signal)) of a tower on the central
    vertex ((m-1)//2, (n-1)//2). For every radius, the number of grid
    vertices within that L1 distance of a tower is largest at the centre
    (per axis, min(d, x) + min(d, m-1-x) is largest when x is central), and
    the capped signal is a non-increasing function of the distance, so no
    tower covers more. Placed towers only shrink what a later one can repair.
    """
    field = _one_tower_field(dims, params.t, (dims.m - 1) // 2, (dims.n - 1) // 2)
    # Signals never exceed t, so capping at min(r, t) keeps the sum in int64.
    return int(np.minimum(field, min(params.r, params.t)).sum())


class SolverInvariantError(RuntimeError):
    """A witness the search returned failed the independent verifier."""


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
        self.m, self.n, self.t, self.r = dims.m, dims.n, params.t, params.r
        self.budget = budget
        self.cover: list[list[tuple[int, int]] | None] = [None] * (dims.m * dims.n)
        self.max_unit_coverage = max_unit_coverage(dims, params)
        self.field = [0] * (dims.m * dims.n)
        self.nodes = 0

    def _cover(self, u: int) -> list[tuple[int, int]]:
        """The (cell, signal) pairs a tower on u supplies, in cell order; cached."""
        m, n, t, deadline = self.m, self.n, self.t, self.deadline
        x, y = divmod(u, n)
        cells = []
        # Row a of the diamond: signal s on column y, falling by one per column.
        # Ranking builds a cover per candidate before any node is counted, and
        # one cover holds up to (2t-1)^2 cells, so the clock is read per row.
        for a in range(max(x - t + 1, 0), min(x + t, m)):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhaustedError(self.nodes)
            s = t - abs(a - x)
            cells += [(a * n + b, s - abs(b - y)) for b in range(max(y - s + 1, 0), min(y + s, n))]
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

    def _ranked(self, v: int, forbidden: set[int]) -> list[tuple[int, int]]:
        """(-gain, u) for each allowed u reaching v, sorted; gain is the deficiency repaired."""
        field, r, cover = self.field, self.r, self.cover
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
        return ranked

    def run(self, slots: int) -> list[int] | None:
        """The cells of a broadcast of at most `slots` towers, or None.

        A frame is one branch point: its ranked children still to try, the
        cell it branches on, the deficit (the total shortfall, positive) and
        the towers left. Each child is counted as a node; one that covers the
        whole deficit, or leaves more than the remaining towers could repair,
        is decided from its gain without being placed. Any other is placed,
        and the frame of its subtree branches on the first deficient cell at
        or after the parent's, because cells before it are satisfied. Tried
        children stay forbidden until their frame is done.
        """
        field, r, cover, unit = self.field, self.r, self.cover, self.max_unit_coverage
        max_nodes, deadline = self.budget.max_nodes, self.deadline
        # r >= 1, so the empty grid is deficient; prune a hopeless root.
        deficit = r * len(field)
        if deficit > slots * unit:
            return None
        forbidden: set[int] = set()
        placed: list[int] = []
        # Only the root's candidates are reduced by the grid's symmetries.
        ranked = self._root_representatives(self._ranked(0, forbidden))
        frames = [(iter(ranked), ranked, 0, deficit, slots)]
        while frames:
            children, ranked, v, deficit, slots = frames[-1]
            for neg_gain, u in children:
                if self.nodes >= max_nodes:
                    raise BudgetExhaustedError(self.nodes)
                if deadline is not None and time.monotonic() > deadline:
                    raise BudgetExhaustedError(self.nodes)
                self.nodes += 1
                left = deficit + neg_gain
                if left == 0:
                    return placed + [u]
                forbidden.add(u)
                if left <= (slots - 1) * unit:
                    for c, s in cover[u]:
                        field[c] += s
                    placed.append(u)
                    while field[v] >= r:
                        v += 1
                    ranked = self._ranked(v, forbidden)
                    frames.append((iter(ranked), ranked, v, left, slots - 1))
                    break
            else:
                frames.pop()
                forbidden.difference_update([u for _, u in ranked])
                if placed:
                    for c, s in cover[placed.pop()]:
                        field[c] -= s
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
    budget runs out before the level is decided. Every witness is re-checked
    with check_broadcast first; one that fails raises SolverInvariantError.
    """
    if k < 0:
        raise ValueError(f"tower count k must be >= 0, got {k}")
    search = _Search(dims, params, budget or SearchBudget())
    found = search.run(k)
    if found is None:
        return None, search.nodes
    witness = TowerSet(Coord(u // dims.n, u % dims.n) for u in found)
    if not check_broadcast(dims, params, witness).valid:
        raise SolverInvariantError(
            f"the solver's {len(witness)}-tower witness on {dims.m}x{dims.n} "
            f"is not a ({params.t},{params.r}) broadcast"
        )
    return witness, search.nodes


def exact_gamma(
    dims: GridDims,
    params: BroadcastParams,
    budget: SearchBudget | None = None,
) -> SolveResult:
    """The minimum size of a (t,r) broadcast, with a witness.

    Levels k are tried in increasing order; each exhausted level certifies
    that no smaller broadcast exists, so the first hit is optimal. The first
    level is the deficit bound ceil(r*m*n / max_unit_coverage), below which a
    level's root is pruned. The budget covers the whole solve: each level gets
    the nodes and seconds the earlier ones left.

    A broadcast exists iff towers on every vertex are one. With towers
    everywhere, vertex (x, y) receives the sum of t - |x-a| - |y-b| over the
    towers (a, b) within reach. Per axis the distances from a corner are 0,
    1, ..., m-1, and from any x the i-th smallest distance is at most i,
    because at least min(i+1, m) positions lie within distance i of x. Signal
    falls with distance, so pairing distances in sorted order shows no vertex
    receives less than a corner: the grid is valid iff (0, 0) receives r.
    Only towers with a < t and b < t reach (0, 0), and by symmetry the tower
    on (a, b) sends (0, 0) what a tower on (0, 0) sends (a, b). So (0, 0)
    receives one tower's field summed over the min(m,t) x min(n,t) box.
    """
    budget = budget or SearchBudget()
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    if int(_one_tower_field(dims, params.t, 0, 0).sum()) < params.r:
        raise ValueError(
            f"no ({params.t},{params.r}) broadcast exists on {dims.m}x{dims.n}: "
            "even towers on every vertex fall short"
        )
    k = -(-params.r * dims.m * dims.n // max_unit_coverage(dims, params))
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
