"""Independent reference implementations used only to cross-check the library.

Distances come from breadth-first search on the explicit grid graph and the
domination number from exhaustive subset enumeration. The scalar helpers
manhattan_dist and signal give one vertex pair's distance and signal, for
tests that sum a field tower by tower; the grid tests check the distance
against breadth-first search. naive_weighted_coverage recomputes the
weighted coverage behind the solver's certified lower bound, one tower at a
time, and naive_weighted_deficit the weighted shortfall behind its weighted
prune, vertex by vertex. Nothing here shares a code path with the
library's array arithmetic or its search.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np


def manhattan_dist(u, v) -> int:
    """Shortest-path distance between grid vertices u and v, in closed form."""
    return abs(u.x - v.x) + abs(u.y - v.y)


def signal(t: int, tower, v) -> int:
    """Signal max(t - dist, 0) that a strength-t tower supplies to v."""
    return max(t - manhattan_dist(tower, v), 0)


def bfs_distances(m: int, n: int) -> np.ndarray:
    """All-pairs shortest-path matrix of the m x n grid graph.

    Cell index is x * n + y, matching the library's lexicographic order.
    """
    num = m * n
    dist = np.full((num, num), -1, dtype=np.int64)
    for sx in range(m):
        for sy in range(n):
            src = sx * n + sy
            dist[src, src] = 0
            queue = deque([(sx, sy)])
            while queue:
                x, y = queue.popleft()
                here = dist[src, x * n + y]
                for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if 0 <= nx < m and 0 <= ny < n and dist[src, nx * n + ny] < 0:
                        dist[src, nx * n + ny] = here + 1
                        queue.append((nx, ny))
    return dist


def coverage_matrix(m: int, n: int, t: int) -> np.ndarray:
    """coverage[tower_index, cell_index] = signal supplied, from BFS distances."""
    return np.maximum(t - bfs_distances(m, n), 0)


def naive_weighted_coverage(m: int, n: int, t: int, r: int, weights) -> int:
    """The most sum_v min(r, signal) * weights[v] one tower sends, tower by tower."""
    coverage = np.minimum(coverage_matrix(m, n, t), r)
    flat = [int(w) for w in np.asarray(weights).ravel()]
    return max(
        sum(int(coverage[u, v]) * flat[v] for v in range(m * n)) for u in range(m * n)
    )


def naive_weighted_deficit(m: int, n: int, t: int, r: int, towers, weights) -> int:
    """sum_v weights[v] * max(0, r - total_v) for towers given as (x, y) pairs."""
    totals = naive_signal_totals(m, n, t, towers)
    return sum(int(weights[x][y]) * max(0, r - total) for (x, y), total in totals.items())


def naive_signal_totals(m: int, n: int, t: int, towers) -> dict[tuple[int, int], int]:
    """Per-vertex totals summed tower by tower; towers are (x, y) pairs inside the grid."""
    coverage = coverage_matrix(m, n, t)
    totals: dict[tuple[int, int], int] = {}
    for x in range(m):
        for y in range(n):
            totals[(x, y)] = int(sum(coverage[tx * n + ty, x * n + y] for tx, ty in towers))
    return totals


def naive_gamma(m: int, n: int, t: int, r: int) -> int | None:
    """Minimum broadcast size by enumerating all subsets of each size.

    Subsets of one size are checked as a single numpy batch; returns None when
    even towers on every vertex cannot reach r.
    """
    coverage = coverage_matrix(m, n, t)
    num = m * n
    if coverage.sum(axis=0).min() < r:
        return None
    for k in range(1, num + 1):
        idx = np.array(list(combinations(range(num), k)), dtype=np.int64)
        totals = coverage[idx].sum(axis=1)
        if bool((totals >= r).all(axis=1).any()):
            return k
    return None
