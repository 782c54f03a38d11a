"""Exact broadcast domination numbers by budgeted complete search.

Iterative deepening on the tower count k: a complete depth-first search at
each level means every failed level certifies that no broadcast of that size
exists, so the first success is optimal. Within a level the search branches
on the lexicographically first deficient vertex; its candidate towers are the
grid vertices that supply it positive signal, tried in order of decreasing
marginal deficiency coverage (ties broken lexicographically), with candidates
already refuted at a branch point excluded from the subtree.

At the root only, candidates are additionally reduced to one representative
per orbit of the grid's symmetry group (8 symmetries for square grids, 4
otherwise). This is sound because the domination number is invariant under
grid automorphisms; the naive enumerator used to cross-check the solver
applies no such reduction.
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
    check_cell_cap,
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


def _grid_symmetries(m: int, n: int) -> list[list[int]]:
    """Index permutations for the grid's automorphisms (cell index = x*n + y)."""
    transforms = [
        lambda x, y: (x, y),
        lambda x, y: (m - 1 - x, y),
        lambda x, y: (x, n - 1 - y),
        lambda x, y: (m - 1 - x, n - 1 - y),
    ]
    if m == n:
        transforms += [
            lambda x, y: (y, x),
            lambda x, y: (m - 1 - y, x),
            lambda x, y: (y, m - 1 - x),
            lambda x, y: (m - 1 - y, m - 1 - x),
        ]
    perms = []
    for f in transforms:
        perm = [0] * (m * n)
        for x in range(m):
            for y in range(n):
                fx, fy = f(x, y)
                perm[x * n + y] = fx * n + fy
        perms.append(perm)
    return perms


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
        m, n, t, r = dims.m, dims.n, params.t, params.r
        self.n = n
        self.r = r
        self.budget = budget
        radius = t - 1
        cover: list[list[tuple[int, int]]] = []
        for x in range(m):
            for y in range(n):
                entries = []
                for ux in range(max(0, x - radius), min(m, x + radius + 1)):
                    span = radius - abs(ux - x)
                    for uy in range(max(0, y - span), min(n, y + span + 1)):
                        entries.append((ux * n + uy, t - abs(ux - x) - abs(uy - y)))
                cover.append(entries)
        self.cover = cover
        # No tower can repair more total deficiency than this, anywhere.
        self.max_unit_coverage = max(
            sum(min(r, s) for _, s in entries) for entries in cover
        )
        self.field = [0] * (m * n)
        self.total_deficit = r * m * n
        self.placed = [False] * (m * n)
        self.stack: list[int] = []
        self.symmetries = _grid_symmetries(m, n)
        self.nodes = 0

    def _place(self, u: int) -> None:
        field, r = self.field, self.r
        repaired = 0
        for c, s in self.cover[u]:
            old = field[c]
            new = old + s
            field[c] = new
            if old < r:
                repaired += (r - old) - (r - new if new < r else 0)
        self.total_deficit -= repaired
        self.placed[u] = True

    def _unplace(self, u: int) -> None:
        field, r = self.field, self.r
        restored = 0
        for c, s in self.cover[u]:
            old = field[c]
            new = old - s
            field[c] = new
            if new < r:
                restored += (r - new) - (r - old if old < r else 0)
        self.total_deficit += restored
        self.placed[u] = False

    def _first_deficient(self) -> int:
        r = self.r
        for c, v in enumerate(self.field):
            if v < r:
                return c
        return -1

    def _marginal_coverage(self, u: int) -> int:
        field, r = self.field, self.r
        total = 0
        for c, s in self.cover[u]:
            d = r - field[c]
            if d > 0:
                total += d if d < s else s
        return total

    def _root_representatives(self, order: list[int]) -> list[int]:
        rank = {u: i for i, u in enumerate(order)}
        kept = []
        for u in order:
            my_rank = rank[u]
            if all(
                rank.get(perm[u], my_rank) >= my_rank for perm in self.symmetries
            ):
                kept.append(u)
        return kept

    def run(self, slots: int) -> list[int] | None:
        return self._dfs(slots, set())

    def _dfs(self, slots: int, forbidden: set[int]) -> list[int] | None:
        if self.total_deficit == 0:
            return list(self.stack)
        if slots == 0 or self.total_deficit > slots * self.max_unit_coverage:
            return None
        v = self._first_deficient()
        candidates = [
            u for u, _ in self.cover[v] if not self.placed[u] and u not in forbidden
        ]
        candidates.sort(key=lambda u: (-self._marginal_coverage(u), u))
        if not self.stack:
            candidates = self._root_representatives(candidates)
        tried = []
        for u in candidates:
            if self.nodes >= self.budget.max_nodes:
                raise BudgetExhaustedError(self.nodes)
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise BudgetExhaustedError(self.nodes)
            self.nodes += 1
            self._place(u)
            self.stack.append(u)
            found = self._dfs(slots - 1, forbidden)
            self.stack.pop()
            self._unplace(u)
            if found is not None:
                return found
            forbidden.add(u)
            tried.append(u)
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

    Levels k are tried in increasing order starting from the area lower bound
    (when it applies, i.e. t >= 3 and r >= 2) or from 1; each exhausted level
    certifies that no smaller broadcast exists, so the first hit is optimal.
    The budget covers the whole solve: each level gets the nodes and seconds
    the earlier ones left.
    """
    budget = budget or SearchBudget()
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    check_cell_cap(dims)
    every_vertex = np.indices((dims.m, dims.n)).reshape(2, -1).T
    if not check_broadcast(dims, params, TowerSet(every_vertex)).valid:
        raise ValueError(
            f"no ({params.t},{params.r}) broadcast exists on {dims.m}x{dims.n}: "
            "even towers on every vertex fall short"
        )
    if params.t >= 3 and params.r >= 2:
        k = lower_t2(dims.m, dims.n, params.t)
    else:
        k = 1
    total_nodes = 0
    while True:
        seconds = None if deadline is None else deadline - time.monotonic()
        if total_nodes >= budget.max_nodes or (seconds is not None and seconds <= 0):
            return SolveResult("budget_exhausted", None, None, total_nodes)
        left = SearchBudget(budget.max_nodes - total_nodes, seconds)
        try:
            witness, nodes = find_broadcast_of_size(dims, params, k, left)
        except BudgetExhaustedError as exc:
            return SolveResult("budget_exhausted", None, None, total_nodes + exc.nodes_expanded)
        total_nodes += nodes
        if witness is not None:
            return SolveResult("optimal", len(witness), witness, total_nodes)
        k += 1
