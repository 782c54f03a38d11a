"""Grid geometry, signal arithmetic, and the broadcast verifier.

Every other module trusts the primitives here: Manhattan distance in closed
form (the grid graph itself is never materialized), per-tower signal, dense
signal-field accumulation, and the validity check that a candidate tower set
supplies at least ``r`` total signal to every grid vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

# Signal totals are ordinary 64-bit integers. The worst-case total at one
# vertex is t * |towers|, so with the caps below it stays under 1e10 << 2**63.
MAX_STRENGTH = 10_000
MAX_TOWERS = 1_000_000


@dataclass(frozen=True, order=True)
class Coord:
    """Integer lattice point (x, y).

    Coordinates may be negative: positions on the infinite grid are legal.
    Membership in a finite grid is always checked against a GridDims.
    """

    x: int
    y: int


@dataclass(frozen=True)
class GridDims:
    """Dimensions of an m x n grid graph with vertex set {0..m-1} x {0..n-1}."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.m}x{self.n}")

    def contains(self, v: Coord) -> bool:
        return 0 <= v.x < self.m and 0 <= v.y < self.n

    def vertices(self) -> Iterator[Coord]:
        """All vertices in lexicographic (x, y) order."""
        for x in range(self.m):
            for y in range(self.n):
                yield Coord(x, y)


@dataclass(frozen=True)
class BroadcastParams:
    """Tower signal strength t and required total signal r."""

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"signal strength t must be >= 1, got {self.t}")
        if self.r < 1:
            raise ValueError(f"required signal r must be >= 1, got {self.r}")


@dataclass(frozen=True)
class TowerSet:
    """A deduplicated tower set in lexicographic order.

    Canonical ordering makes serialization and test output deterministic;
    any iterable of Coords is normalized on construction.
    """

    towers: tuple[Coord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "towers", tuple(sorted(set(self.towers))))

    def __iter__(self) -> Iterator[Coord]:
        return iter(self.towers)

    def __len__(self) -> int:
        return len(self.towers)

    def __contains__(self, v: object) -> bool:
        return v in self.towers


@dataclass(frozen=True, eq=False)
class SignalField:
    """Total received signal per vertex; ``values[x, y]`` is the total at (x, y)."""

    dims: GridDims
    values: np.ndarray


@dataclass(frozen=True)
class BroadcastVerdict:
    """Outcome of check_broadcast.

    ``deficiencies`` lists every vertex receiving less than r, with its total,
    in lexicographic order. ``outside_towers`` is a warning, not an error:
    towers outside the grid still radiate signal inward, but a final broadcast
    must lie inside the grid.
    """

    valid: bool
    deficiencies: tuple[tuple[Coord, int], ...] = ()
    outside_towers: tuple[Coord, ...] = ()


def manhattan_dist(u: Coord, v: Coord) -> int:
    """Shortest-path distance between two grid vertices, in closed form."""
    return abs(u.x - v.x) + abs(u.y - v.y)


def signal(t: int, tower: Coord, v: Coord) -> int:
    """Signal max(t - dist, 0) that a strength-t tower supplies to v."""
    if t < 1:
        raise ValueError(f"signal strength t must be >= 1, got {t}")
    return max(t - manhattan_dist(tower, v), 0)


@lru_cache(maxsize=None)
def _diamond_kernel(t: int) -> np.ndarray:
    # (2t-1) x (2t-1) stamp of one tower's signal, centered at index (t-1, t-1).
    offsets = np.abs(np.arange(2 * t - 1) - (t - 1))
    return np.maximum(t - (offsets[:, None] + offsets[None, :]), 0).astype(np.int64)


def signal_field(dims: GridDims, t: int, towers: Iterable[Coord]) -> SignalField:
    """Accumulate the total signal every grid vertex receives.

    Towers outside the grid are legal (their signal radiates in); this is
    needed when evaluating a halo of an infinite pattern against the grid.
    """
    towers = list(towers)
    if t < 1:
        raise ValueError(f"signal strength t must be >= 1, got {t}")
    if t > MAX_STRENGTH or len(towers) > MAX_TOWERS:
        raise ValueError(
            f"inputs exceed documented bounds (t <= {MAX_STRENGTH}, "
            f"|towers| <= {MAX_TOWERS}); signal totals could overflow"
        )
    values = np.zeros((dims.m, dims.n), dtype=np.int64)
    radius = t - 1
    kernel = _diamond_kernel(t)
    for tw in towers:
        x0 = max(tw.x - radius, 0)
        x1 = min(tw.x + radius, dims.m - 1)
        y0 = max(tw.y - radius, 0)
        y1 = min(tw.y + radius, dims.n - 1)
        if x0 > x1 or y0 > y1:
            continue
        values[x0 : x1 + 1, y0 : y1 + 1] += kernel[
            x0 - tw.x + radius : x1 - tw.x + radius + 1,
            y0 - tw.y + radius : y1 - tw.y + radius + 1,
        ]
    return SignalField(dims, values)


def check_broadcast(dims: GridDims, params: BroadcastParams, towers: TowerSet) -> BroadcastVerdict:
    """Decide whether ``towers`` is a (t,r) broadcast on the grid.

    Valid iff every vertex receives total signal >= r. Deficient vertices are
    reported lexicographically with their received totals.
    """
    field = signal_field(dims, params.t, towers)
    short = np.argwhere(field.values < params.r)
    deficiencies = tuple(
        (Coord(int(x), int(y)), int(field.values[x, y])) for x, y in short
    )
    outside = tuple(tw for tw in towers if not dims.contains(tw))
    return BroadcastVerdict(not deficiencies, deficiencies, outside)
