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
# Largest grid (m * n vertices) that gets a per-vertex array: an int64 signal
# field of this size takes 256 MiB.
MAX_CELLS = 2**25


@dataclass(frozen=True, order=True, slots=True)
class Coord:
    """Integer lattice point (x, y).

    Coordinates may be negative: positions on the infinite grid are legal.
    Membership in a finite grid is always checked against a GridDims. Coords
    appear only at the API and document edges: towers live in TowerSet.xy and
    verdicts in integer arrays.
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


def coords_of(xy: np.ndarray) -> Iterator[Coord]:
    """The rows of a (k, 2) integer array as Coords, in row order."""
    return map(Coord, xy[:, 0].tolist(), xy[:, 1].tolist())


def _as_xy(towers: Iterable[Coord] | np.ndarray) -> np.ndarray:
    """Towers as a (k, 2) int64 array, in input order and with duplicates kept."""
    if isinstance(towers, TowerSet):
        return towers.xy
    if isinstance(towers, np.ndarray):
        if not np.issubdtype(towers.dtype, np.integer):
            raise ValueError(f"tower arrays must hold integers, got {towers.dtype}")
        return np.asarray(towers, dtype=np.int64).reshape(-1, 2)
    try:
        return np.array([(c.x, c.y) for c in towers], dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise ValueError("tower coordinates must fit in 64-bit integers") from None


class TowerSet:
    """A deduplicated tower set in lexicographic order.

    ``xy`` is the one representation: a read-only (k, 2) int64 array of
    distinct rows sorted by (x, y). Canonical ordering makes serialization and
    test output deterministic. Any iterable of Coords, or any (k, 2) integer
    array, is normalized on construction; iteration yields Coords.
    """

    __slots__ = ("xy",)

    def __init__(self, towers: Iterable[Coord] | np.ndarray = ()) -> None:
        xy = _as_xy(towers)
        if not isinstance(towers, TowerSet):
            x, y = xy[:, 0], xy[:, 1]
            if ((x[:-1] < x[1:]) | ((x[:-1] == x[1:]) & (y[:-1] < y[1:]))).all():
                xy = xy.copy()
            else:
                xy = xy[np.lexsort((y, x))]
                distinct = np.ones(len(xy), dtype=bool)
                distinct[1:] = (xy[1:] != xy[:-1]).any(axis=1)
                xy = xy[distinct]
            xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TowerSet is immutable")

    @property
    def towers(self) -> tuple[Coord, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[Coord]:
        return coords_of(self.xy)

    def __len__(self) -> int:
        return len(self.xy)

    def __contains__(self, v: object) -> bool:
        if not isinstance(v, Coord):
            return False
        x, y = self.xy[:, 0], self.xy[:, 1]
        return bool(((x == v.x) & (y == v.y)).any())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TowerSet):
            return NotImplemented
        return np.array_equal(self.xy, other.xy)

    def __hash__(self) -> int:
        return hash(self.xy.tobytes())

    def __repr__(self) -> str:
        return f"TowerSet({list(self)!r})"


class _Field(np.ndarray):
    # signal_field's array, which also answers ``.values`` (itself, as a plain
    # ndarray): the benchmark's library test (perfbench/test_perfbench.py)
    # still reads the field through that attribute of the old wrapper.
    @property
    def values(self) -> np.ndarray:
        return self.view(np.ndarray)


@dataclass(frozen=True, eq=False)
class BroadcastVerdict:
    """Outcome of check_broadcast, as int64 arrays.

    ``deficiencies`` is the (k, 2) array of vertices receiving less than r, in
    lexicographic order, and ``received`` the (k,) array of their totals.
    ``outside_towers`` (j, 2) is a warning, not an error: towers outside the
    grid still radiate signal inward, but a final broadcast must lie inside
    the grid.
    """

    valid: bool
    deficiencies: np.ndarray
    received: np.ndarray
    outside_towers: np.ndarray


def manhattan_dist(u: Coord, v: Coord) -> int:
    """Shortest-path distance between two grid vertices, in closed form."""
    return abs(u.x - v.x) + abs(u.y - v.y)


def signal(t: int, tower: Coord, v: Coord) -> int:
    """Signal max(t - dist, 0) that a strength-t tower supplies to v."""
    if t < 1:
        raise ValueError(f"signal strength t must be >= 1, got {t}")
    return max(t - manhattan_dist(tower, v), 0)


@lru_cache(maxsize=16)
def _diamond_kernel(t: int, a: int, b: int) -> np.ndarray:
    # (2a+1) x (2b+1) stamp of one tower's signal, centered at index (a, b).
    # a and b are at most the grid sides minus one: no larger offset between
    # two vertices of the grid exists, so the kernel is bounded by the grid.
    ox = np.abs(np.arange(2 * a + 1) - a)
    oy = np.abs(np.arange(2 * b + 1) - b)
    return np.maximum(t - (ox[:, None] + oy[None, :]), 0).astype(np.int64)


# Rough fixed cost of one Python-level step (a stamp or a shifted slice), in
# array-element operations; it only decides which of the two field algorithms
# in signal_field is cheaper.
_STEP_OVERHEAD = 3000


def check_cell_cap(dims: GridDims) -> None:
    """Raise ValueError if the grid has more than MAX_CELLS vertices.

    Called before any per-cell array or grid-sized tower list is built, so an
    oversized request fails fast instead of exhausting memory.
    """
    if dims.m * dims.n > MAX_CELLS:
        raise ValueError(
            f"grid {dims.m}x{dims.n} has {dims.m * dims.n} vertices, "
            f"more than the supported {MAX_CELLS}"
        )


def signal_field(dims: GridDims, t: int, towers: Iterable[Coord]) -> np.ndarray:
    """The (m, n) int64 array of total signal; ``[x, y]`` is the total at (x, y).

    Towers outside the grid are legal (their signal radiates in); this is
    needed when evaluating a halo of an infinite pattern against the grid.
    A tower repeated in a plain list counts once per copy.

    Dense towers: image of tower counts, padded by t-1, added once per diamond
    offset as a shifted slice. Sparse towers with large t: each tower's
    diamond is stamped on its own. The cheaper one is chosen from the grid
    size, t and the tower count.
    """
    if t < 1:
        raise ValueError(f"signal strength t must be >= 1, got {t}")
    if not isinstance(towers, (TowerSet, np.ndarray)):
        towers = list(towers)
    if t > MAX_STRENGTH or len(towers) > MAX_TOWERS:
        raise ValueError(
            f"inputs exceed documented bounds (t <= {MAX_STRENGTH}, "
            f"|towers| <= {MAX_TOWERS}); signal totals could overflow"
        )
    check_cell_cap(dims)
    xy = _as_xy(towers)
    m, n = dims.m, dims.n
    radius = t - 1
    x, y = xy[:, 0], xy[:, 1]
    near = xy[(x > -t) & (x < m + radius) & (y > -t) & (y < n + radius)]
    values = np.zeros((m, n), dtype=np.int64)
    if _shift_is_cheaper(m, n, t, len(near)):
        _add_shifted(values, near, radius)
    else:
        _add_stamps(values, near, t)
    return values.view(_Field)


def _shift_is_cheaper(m: int, n: int, t: int, towers: int) -> bool:
    # One shifted slice per diamond offset, against one stamp per tower; a
    # stamp covers at most its diamond's bounding box clipped to the grid.
    offsets = 2 * t * (t - 1) + 1
    stamp = min(2 * t - 1, m) * min(2 * t - 1, n)
    return offsets * (m * n + _STEP_OVERHEAD) <= towers * (_STEP_OVERHEAD + stamp)


def _add_shifted(values: np.ndarray, near: np.ndarray, radius: int) -> None:
    # A tower at distance d supplies t - d = radius + 1 - d, which is the number
    # of k in [d, radius]; so the field is the sum over k of ``within``, the
    # tower count in the radius-k diamond around each vertex.
    m, n = values.shape
    # Every count below is at most len(near) <= MAX_TOWERS < 2**31.
    image = np.zeros((m + 2 * radius, n + 2 * radius), dtype=np.int32)
    np.add.at(image, (near[:, 0] + radius, near[:, 1] + radius), 1)
    within = np.zeros((m, n), dtype=np.int32)
    for d in range(radius + 1):
        for dx in range(-d, d + 1):
            dy = d - abs(dx)
            for sy in {-dy, dy}:
                within += image[radius + dx : radius + dx + m, radius + sy : radius + sy + n]
        values += within


def _add_stamps(values: np.ndarray, near: np.ndarray, t: int) -> None:
    # A tower outside the grid reaches each vertex through the tower's
    # clamped image, so it acts like that image with strength t - excess,
    # excess being its L1 distance to the grid.
    m, n = values.shape
    a, b = min(t, m) - 1, min(t, n) - 1
    kernel = _diamond_kernel(t, a, b)
    clamped = np.clip(near, 0, (m - 1, n - 1))
    excess = np.abs(near - clamped).sum(axis=1)
    for tx, ty, e in zip(clamped[:, 0].tolist(), clamped[:, 1].tolist(), excess.tolist()):
        x0, x1 = max(tx - a, 0), min(tx + a, m - 1)
        y0, y1 = max(ty - b, 0), min(ty + b, n - 1)
        stamp = kernel[x0 - tx + a : x1 - tx + a + 1, y0 - ty + b : y1 - ty + b + 1]
        values[x0 : x1 + 1, y0 : y1 + 1] += np.maximum(stamp - e, 0) if e else stamp


def check_broadcast(dims: GridDims, params: BroadcastParams, towers: TowerSet) -> BroadcastVerdict:
    """Decide whether ``towers`` is a (t,r) broadcast on the grid.

    Valid iff every vertex receives total signal >= r. Deficient vertices are
    reported lexicographically with their received totals.
    """
    values = signal_field(dims, params.t, towers).view(np.ndarray)
    short = np.argwhere(values < params.r)
    xy = _as_xy(towers)
    x, y = xy[:, 0], xy[:, 1]
    outside = xy[(x < 0) | (x >= dims.m) | (y < 0) | (y >= dims.n)]
    return BroadcastVerdict(not len(short), short, values[short[:, 0], short[:, 1]], outside)
