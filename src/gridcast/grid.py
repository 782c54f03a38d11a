"""Grid geometry, signal arithmetic, and the broadcast verifier.

Every other module trusts the primitives here: dense signal-field
accumulation from Manhattan distances in closed form (the grid graph itself
is never materialized) and the validity check that a candidate tower set
supplies at least ``r`` total signal to every grid vertex.

The signal field is exact in the narrowest integer dtype that holds it
(see signal_field): t times the most towers on any 2t - 1 consecutive rows,
the only towers one grid row hears, and for a TowerSet at most
(2t^3 + t) / 3. So any TowerSet is int8 at t <= 5 and int16 at t <= 36, and
the paper's pattern, a few towers to a window, is int16 up to t = 60 on the
benchmark's grids. It is built in one of three layouts: a row-tent
recurrence (each diamond row is a tent along y) in about 5t passes over an
image with one row per padded grid row that holds towers, the same over an
image with a row for every padded row, or one stamp per tower. The paper's
pattern puts towers on one row in t - 1, so its image is small; sparse
towers that fill many rows are stamped. The three are priced side by side,
from costs measured on int8 and int16 fields, and the cheapest is chosen
once.
A tower's image row is found by one lookup, the count of image rows before
its own. The verifier's reported totals are always int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# The worst-case signal total at one vertex is t * |towers| (at most
# (2t^3 + t) / 3 for distinct towers). Towers are capped at MAX_CELLS too,
# so it stays under 3.4e11 << 2**63.
MAX_STRENGTH = 10_000
# Largest grid (m * n vertices): a signal field of this size takes 32 MiB
# in int8 and 256 MiB in int64.
MAX_CELLS = 2**25
# signal_field's dtypes, narrowest first, with the largest total each holds.
_FIELD_DTYPES = ((2**7 - 1, np.int8), (2**15 - 1, np.int16), (2**31 - 1, np.int32))


def check_strength(t: int, least: int = 1) -> None:
    """Refuse a tower strength t outside [least, MAX_STRENGTH] with ValueError."""
    if not least <= t <= MAX_STRENGTH:
        raise ValueError(f"strength t must be in [{least}, {MAX_STRENGTH}], got {t}")


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
    """Dimensions of an m x n grid graph with vertex set {0..m-1} x {0..n-1}.

    Grids of more than MAX_CELLS vertices are refused here, so an oversized
    request fails fast before any per-vertex array or tower list is built.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.m}x{self.n}")
        if self.m * self.n > MAX_CELLS:
            raise ValueError(
                f"grid {self.m}x{self.n} has {self.m * self.n} vertices, "
                f"more than the supported {MAX_CELLS}"
            )


@dataclass(frozen=True)
class BroadcastParams:
    """Tower signal strength t and required total signal r."""

    t: int
    r: int

    def __post_init__(self) -> None:
        check_strength(self.t)
        if self.r < 1:
            raise ValueError(f"required signal r must be >= 1, got {self.r}")


def _as_xy(towers: Iterable[Coord] | np.ndarray) -> np.ndarray:
    """Towers as a (k, 2) int64 array, in input order and with duplicates kept.

    An array of any other shape is refused: reshaping it would pair the
    coordinates of different towers.
    """
    if isinstance(towers, TowerSet):
        return towers.xy
    try:
        if not isinstance(towers, np.ndarray):
            return np.array([(c.x, c.y) for c in towers], dtype=np.int64).reshape(-1, 2)
        if not np.issubdtype(towers.dtype, np.integer):
            raise ValueError(f"tower arrays must hold integers, got {towers.dtype}")
        if towers.ndim != 2 or towers.shape[1] != 2:
            raise ValueError(f"tower arrays must have shape (k, 2), got {towers.shape}")
        if towers.dtype == np.uint64 and towers.max(initial=0) >= 2**63:
            raise OverflowError  # the cast to int64 would wrap it
        return np.asarray(towers, dtype=np.int64)
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
            ordered = x[:-1] == x[1:]
            ordered &= y[:-1] < y[1:]
            ordered |= x[:-1] < x[1:]
            ordered = ordered.all()  # frees the k - 1 bools before any copy
            if ordered:
                xy = xy.copy()
            else:
                xy = xy[np.lexsort((y, x))]
                distinct = np.ones(len(xy), dtype=bool)
                # A row differs from the last iff its two bools, read as one
                # uint16, are nonzero.
                distinct[1:] = (xy[1:] != xy[:-1]).view(np.uint16).ravel() != 0
                xy = xy[distinct]
            xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TowerSet is immutable")

    @property
    def towers(self) -> tuple[Coord, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[Coord]:
        return map(Coord, self.xy[:, 0].tolist(), self.xy[:, 1].tolist())

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


class InvariantError(RuntimeError):
    """An internal result failed its independent check against the verifier.

    The base of ConstructionInvariantError and SolverInvariantError, so the
    CLI names one class for exit 1 and need not load the solver to catch it.
    """


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


# Measured costs that decide which field layout signal_field takes, in
# element operations of an int8 or int16 tent pass (about 0.09 ns each), the
# dtypes of nearly every field: one Python-level step of the tents
# (one pass, or one strided add) costs about 1.8 us, one stamp 3.2 us, each
# stamp row 15 ns more, since each row slice of a 2-D add is its own inner
# loop, and each stamp cell about 0.2 ns, two elements. The tents are priced
# by the padded rows that hold towers and by the runs of evenly spaced rows
# they form, so the paper's pattern, whose towers lie on one row in t - 1,
# is priced by those rows alone.
_STEP_OVERHEAD = 20_000
_STAMP_OVERHEAD = 34_000
_ROW_OVERHEAD = 160


def signal_field(dims: GridDims, t: int, towers: Iterable[Coord]) -> np.ndarray:
    """The (m, n) array of total signal; ``[x, y]`` is the total at (x, y).

    Towers outside the grid are legal (their signal radiates in); this is
    needed when evaluating a halo of an infinite pattern against the grid.
    A tower repeated in a plain list counts once per copy.

    The totals are exact in the narrowest of int8, int16, int32 and int64
    that holds the least of these bounds on what one vertex receives, at
    most t from each tower it hears. A vertex in grid row x hears only the
    towers on padded rows x..x + 2t - 2, so t times the most towers on any
    2t - 1 consecutive rows bounds it, and so does t * len(towers). For a
    TowerSet so does (2t^3 + t) / 3: its towers are distinct, so no vertex
    receives more than t + sum(4d(t - d) for d in 1..t-1), a tower on every
    cell within reach. The window is tested only for a dtype the other two
    miss, by one pass over the towers' sorted rows. No partial sum exceeds
    the bound: an image count or box is at most the towers on one row, which
    one window holds, a tent row at most t times them (and t^2 for distinct
    towers), and the strided adds and the stamps (each at most t per cell)
    only add to totals that end at most the bound.

    Towers on few rows, or dense: row a of a tower's diamond is a tent of
    height t - |a| along y. The tents of every height are built in about 3t
    passes over an image of tower counts with one row for each padded row
    that holds towers, or for every padded row, and each is added to the
    totals shifted by +-a rows, one strided slice per run of evenly spaced
    rows: about 5t passes in all. A tower's image row is the number of
    image rows before its own, read from one running count over the padded
    rows. Sparse towers on many rows with large t: each tower's diamond is
    stamped on its own, one row slice at a time. The three layouts are
    priced side by side, from the grid size, t, the tower count and the
    rows that hold towers, and the cheapest is taken.
    """
    check_strength(t)
    if not isinstance(towers, (TowerSet, np.ndarray)):
        towers = list(towers)
    if len(towers) > MAX_CELLS:
        raise ValueError(
            f"inputs exceed documented bounds (|towers| <= {MAX_CELLS}); "
            "signal totals could overflow"
        )
    xy = _as_xy(towers)
    m, n = dims.m, dims.n
    radius = t - 1
    x, y = xy[:, 0], xy[:, 1]
    reach = (x > -t) & (x < m + radius) & (y > -t) & (y < n + radius)
    near = xy if reach.all() else np.compress(reach, xy, axis=0)
    most = t * len(xy)
    if isinstance(towers, TowerSet):
        most = min(most, (2 * t**3 + t) // 3)
    near_x = near[:, 0]
    if most > _FIELD_DTYPES[0][0] and not isinstance(towers, TowerSet):
        near_x = np.sort(near_x)  # a TowerSet's rows are already in order
    dtype = next(
        (d for top, d in _FIELD_DTYPES if most <= top or _window_holds(near_x, top // t, radius)),
        np.int64,
    )
    values = np.zeros((m, n), dtype=dtype)
    held = np.zeros(m + 2 * radius, dtype=bool)
    held[near_x + radius] = True
    rows = np.flatnonzero(held)
    runs = _row_runs(rows)
    layout = _field_layout(m, n, t, len(near), len(rows), len(runs))
    if layout == "every row":
        held, rows, runs = np.ones_like(held), np.arange(len(held)), np.zeros(1, dtype=np.intp)
    if layout == "stamps":
        _add_stamps(values, near, t)
    else:
        _add_tents(values, near, held, rows, runs)
    return values.view(_Field)


def _window_holds(x: np.ndarray, most: int, radius: int) -> bool:
    # Whether no 2 * radius + 1 consecutive rows, the rows whose towers reach
    # one grid row, hold more than ``most`` of the towers on the sorted rows
    # x: most + 1 of them do iff some x[i + most] - x[i] <= 2 * radius. One
    # pass over the towers, run only for a dtype the other bounds miss.
    return most >= len(x) or (x[most:] - x[: len(x) - most]).min() > 2 * radius


def _row_runs(rows: np.ndarray) -> np.ndarray:
    # Index of the first of each run of sorted rows at one step: a row joins
    # the run of the row before it unless the step between them changes.
    if not len(rows):
        return np.empty(0, dtype=np.intp)
    if rows[-1] - rows[0] == len(rows) - 1:
        return np.zeros(1, dtype=np.intp)  # consecutive rows, found without a diff
    step = np.diff(rows)
    return np.concatenate(([0], np.flatnonzero(step[1:] != step[:-1]) + 2))


def _tent_cost(rows: int, runs: int, n: int, t: int) -> int:
    # About t steps, each of three recurrence passes over a rows x
    # (n + 2t - 2) image and two adds of it into the totals, one strided
    # slice per run of rows at one step.
    return t * (5 * rows * (n + 2 * t - 2) + (3 + 2 * runs) * _STEP_OVERHEAD)


def _field_layout(m: int, n: int, t: int, towers: int, rows: int, runs: int) -> str:
    # The cheapest of the three layouts for ``towers`` towers whose padded
    # rows number ``rows`` in ``runs`` runs: tents on those "occupied rows",
    # tents on "every row" of the m + 2t - 2 padded rows (one run), or
    # "stamps", each covering at most its diamond's bounding box clipped to
    # the grid, ``high`` row slices of ``wide`` cells. Ties go to the tents,
    # and between them to the occupied rows.
    occupied, every = _tent_cost(rows, runs, n, t), _tent_cost(m + 2 * t - 2, 1, n, t)
    high, wide = min(2 * t - 1, m), min(2 * t - 1, n)
    stamps = towers * (_STAMP_OVERHEAD + high * (_ROW_OVERHEAD + 2 * wide))
    if stamps < min(occupied, every):
        return "stamps"
    return "every row" if every < occupied else "occupied rows"


def _add_tents(
    values: np.ndarray, near: np.ndarray, held: np.ndarray, rows: np.ndarray, runs: np.ndarray
) -> None:
    # ``held`` marks which of the m + 2 * radius padded rows (grid row +
    # radius) the image has a row for, every tower's among them; ``rows``
    # are their indices and ``runs`` where each run of rows at one step
    # starts. ``box`` is the tower count within |dy| <= j of each image row
    # and grid column, and ``tent`` the sum of the boxes for j < height: one
    # tower's tent of that height along y. Row a of the diamond is the tent
    # of height radius + 1 - |a|, added to the totals of grid rows rows +
    # shift, shift = +-a - radius: one strided slice for each run.
    m, n = values.shape
    radius = (len(held) - m) // 2
    k, w = len(rows), n + 2 * radius
    bounds = runs.tolist() + [k]
    plan = []
    for lo, hi in zip(bounds, bounds[1:]):
        plan.append((lo, hi, int(rows[lo]), int(rows[lo + 1] - rows[lo]) if hi - lo > 1 else 1))
    # Each tower's index into the flattened image: its image row, the number
    # of marked rows before its own, times w, plus its padded column.
    flat = np.multiply(np.cumsum(held, dtype=np.int32)[near[:, 0] + radius] - 1, w, dtype=np.int64)
    flat += near[:, 1] + radius
    image = np.bincount(flat, minlength=k * w).astype(values.dtype).reshape(k, w)
    box = image[:, radius : radius + n].copy()
    tent = box.copy()
    for a in range(radius, -1, -1):
        if a < radius:
            j = radius - a
            box += image[:, radius + j : radius + j + n]
            box += image[:, radius - j : radius - j + n]
            tent += box
        for shift in (a - radius, -a - radius) if a else (-radius,):
            for lo, hi, first, step in plan:
                # Image row lo + i lands on grid row first + shift + i * step;
                # i0:i1 are those inside the grid.
                i0 = max(-((first + shift) // step), 0)
                i1 = min(-((first + shift - m) // step), hi - lo)
                if i0 < i1:
                    start = first + shift + i0 * step
                    stop = start + (i1 - i0 - 1) * step + 1
                    values[start:stop:step] += tent[lo + i0 : lo + i1]


def _kernel(t: int, m: int, n: int, dtype: np.dtype) -> np.ndarray:
    # One strength-t tower's (2a+1) x (2b+1) stamp, centered at index (a, b),
    # for a = min(t, m) - 1 and b = min(t, n) - 1: no two vertices of an
    # m x n grid are further apart, so the stamp holds all the tower sends
    # the grid. It is built in dtype, which holds t, and every
    # t - |dx| - |dy| lies in [2 - t, t].
    dx, dy = (np.abs(np.arange(1 - min(t, c), min(t, c))).astype(dtype) for c in (m, n))
    kernel = np.subtract.outer(t - dx, dy)
    np.maximum(kernel, 0, out=kernel)
    return kernel


def _add_stamps(values: np.ndarray, near: np.ndarray, t: int) -> None:
    # A tower outside the grid reaches each vertex through the tower's
    # clamped image, so it acts like that image with strength t - excess,
    # excess being its L1 distance to the grid. Its kernel is built at that
    # strength, so it is no larger than its reach into the grid; one with
    # excess t or more adds nothing. Towers in the grid share one kernel.
    m, n = values.shape
    clamped = np.clip(near, 0, (m - 1, n - 1))
    excess = np.abs(near - clamped).sum(axis=1)
    inside = _kernel(t, m, n, values.dtype) if (excess == 0).any() else None
    for tx, ty, e in zip(clamped[:, 0].tolist(), clamped[:, 1].tolist(), excess.tolist()):
        if e >= t:
            continue
        kernel = _kernel(t - e, m, n, values.dtype) if e else inside
        a, b = kernel.shape[0] // 2, kernel.shape[1] // 2
        x0, x1 = max(tx - a, 0), min(tx + a, m - 1)
        y0, y1 = max(ty - b, 0), min(ty + b, n - 1)
        values[x0 : x1 + 1, y0 : y1 + 1] += kernel[
            x0 - tx + a : x1 - tx + a + 1, y0 - ty + b : y1 - ty + b + 1
        ]


def check_broadcast(
    dims: GridDims, params: BroadcastParams, towers: Iterable[Coord] | np.ndarray
) -> BroadcastVerdict:
    """Decide whether ``towers`` is a (t,r) broadcast on the grid.

    Valid iff every vertex receives total signal >= r. Deficient vertices are
    reported lexicographically with their received totals: they come from one
    scan of the flattened field, whose ascending indices x*n + y are already
    in (x, y) order, split back into coordinates by divmod with n. That scan
    runs only when the field's minimum is below r, so a valid broadcast costs
    one reduction over the field. Towers given as any other iterable than a
    TowerSet or an array are read once, into an int64 array, so an
    iterator's outside towers are still reported.
    """
    if not isinstance(towers, (TowerSet, np.ndarray)):
        towers = _as_xy(towers)
    values = signal_field(dims, params.t, towers).view(np.ndarray).reshape(-1)
    flat = np.flatnonzero(values < params.r) if values.min() < params.r else np.empty(0, np.intp)
    short = np.empty((len(flat), 2), dtype=np.int64)
    np.divmod(flat, dims.n, out=(short[:, 0], short[:, 1]))
    xy = _as_xy(towers)
    x, y = xy[:, 0], xy[:, 1]
    outside = xy[(x < 0) | (x >= dims.m) | (y < 0) | (y >= dims.n)]
    received = values[flat].astype(np.int64)
    return BroadcastVerdict(not len(flat), short, received, outside)
