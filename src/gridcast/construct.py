"""Explicit (t,2) broadcasts on finite grids.

Two constructions: evenly spaced towers for 1 x m paths, and letterboxing for
everything else. Letterboxing embeds the target grid inside a halo grid of
padding t-2, intersects a periodic tower pattern with the halo, and replaces
each tower outside the grid with its nearest grid vertex. Replacement never
collides and never reduces any vertex's signal, so the result verifies as a
(t,2) broadcast of exactly the intersection's cardinality.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, replace

import numpy as np

from .bounds import upper_t2
from .grid import (
    BroadcastParams,
    Coord,
    GridDims,
    InvariantError,
    TowerSet,
    check_broadcast,
    check_strength,
)
from .lattice import (
    DiamondLattice,
    count_in_window,  # noqa: F401 -- unused; perfbench/bench_trace.py patches this attribute
    rectilinear_lattice,
    towers_in_window,
)


class ConstructionInvariantError(InvariantError):
    """A construction consistency check failed: a replacement collided, the
    result failed verification, or it exceeded the upper bound.

    Unreachable for paths and rectilinear patterns, whose halo intersection
    always dominates the grid. A sheared pattern is always a good infinite
    broadcast but can still lack that halo property, and then this is the
    gate that catches it.
    """


@dataclass(frozen=True)
class ConstructionResult:
    """A verified construction; ``generator`` is "path", "letterbox" or "best-anchor".

    raw_count is the tower count of the halo intersection before replacement;
    replacement preserves cardinality, so len(towers) == raw_count.
    ``replacements`` is a read-only (k, 2, 2) int64 array: ``[i, 0]`` is the
    i-th halo tower outside the grid, in the halo window's (x, y) order, and
    ``[i, 1]`` the grid vertex it was clamped to. A path has no pattern: its
    anchor is None and its replacements array is empty, of shape (0, 2, 2).
    """

    towers: TowerSet
    anchor: Coord | None
    raw_count: int
    replacements: np.ndarray
    generator: str


# A path's replacements: none, in the (k, 2, 2) shape of a letterbox's.
_NONE_MOVED = np.empty((0, 2, 2), dtype=np.int64)
_NONE_MOVED.flags.writeable = False


def _verified(dims: GridDims, t: int, result: ConstructionResult) -> ConstructionResult:
    """``result`` once check_broadcast finds its towers a (t,2) broadcast on the grid.

    A deficient vertex raises ConstructionInvariantError naming the generator,
    grid, t, anchor and the first deficiency.
    """
    verdict = check_broadcast(dims, BroadcastParams(t, 2), result.towers)
    if not verdict.valid:
        raise ConstructionInvariantError(
            f"{result.generator} result failed verification on {dims.m}x{dims.n}, t={t}, "
            f"anchor={result.anchor}; first deficiency "
            f"({Coord(*verdict.deficiencies[0].tolist())!r}, {verdict.received[0]})"
        )
    return result


def path_construct(dims: GridDims, t: int) -> ConstructionResult:
    """Broadcast for an m x 1 or 1 x n path: towers at intervals of 2(t-1).

    Along the path's length L, k = ceil((L+1) / (2(t-1))) towers start at
    t-2; the final position is clamped to the last vertex when the spacing
    overshoots. Raises ValueError for any other grid, or for t outside
    [3, MAX_STRENGTH] (through grid.check_strength, which also keeps the
    int64 positions from overflowing). The result is verified before being
    returned.
    """
    if dims.m > 1 and dims.n > 1:
        raise ValueError(f"path construction requires m or n of 1, got {dims.m}x{dims.n}")
    check_strength(t, least=3)
    length = max(dims.m, dims.n)
    spacing = 2 * (t - 1)
    k = -((-(length + 1)) // spacing)
    # The towers run along x on an m x 1 path (1 x 1 included), along y on 1 x n.
    step = (1, 0) if dims.n == 1 else (0, 1)
    towers = TowerSet(np.outer(np.minimum(t - 2 + spacing * np.arange(k), length - 1), step))
    return _verified(dims, t, ConstructionResult(towers, None, len(towers), _NONE_MOVED, "path"))


def letterbox_construct(dims: GridDims, lattice: DiamondLattice) -> ConstructionResult:
    """Intersect a pattern with the halo grid and clamp outside towers in.

    The broadcast has the pattern's strength t. Raises ValueError for a path
    (m or n of 1). Raises ConstructionInvariantError if a replacement collides
    or the final verification fails; neither can happen for a rectilinear
    pattern.
    """
    if dims.m <= 1 or dims.n <= 1:
        raise ValueError("letterboxing requires m, n > 1; use path_construct for paths")
    t = lattice.t
    halo = t - 2
    lo, hi = Coord(-halo, -halo), Coord(dims.m - 1 + halo, dims.n - 1 + halo)
    raw = towers_in_window(lattice, lo, hi)
    clamped = np.clip(raw.xy, 0, (dims.m - 1, dims.n - 1))
    moved = (clamped != raw.xy).any(axis=1)
    replacements = np.empty((np.count_nonzero(moved), 2, 2), dtype=np.int64)
    replacements[:, 0], replacements[:, 1] = raw.xy[moved], clamped[moved]
    replacements.flags.writeable = False
    # raw holds distinct towers, so the set shrinks iff a replacement landed
    # on a kept tower or on another replacement. Clamping a rectilinear
    # pattern keeps raw's (x, y) order, since at most one of its columns lies
    # in each halo strip plus the grid edge, so this TowerSet sorts nothing.
    towers = TowerSet(clamped)
    if len(towers) != len(raw):
        raise ConstructionInvariantError(
            f"replacement collision letterboxing {dims.m}x{dims.n}, t={t}, "
            f"anchor={lattice.anchor}"
        )
    return _verified(
        dims, t, ConstructionResult(towers, lattice.anchor, len(raw), replacements, "letterbox")
    )


class AnchorCounts(Mapping[Coord, int]):
    """Read-only map from each anchor in [0, 2(t-1))^2 to its halo tower count.

    ``array`` is the (2(t-1), 2(t-1)) int64 array of counts, ``array[x, y]``
    the count at anchor (x, y). It is the sum over the parity p of
    outer(cx[p], cy[p]), where cx[p][x] counts the halo x-coordinates of
    parity-p towers at anchor x; only the factors are stored.
    """

    def __init__(self, cx: np.ndarray, cy: np.ndarray):
        self._cx, self._cy = cx, cy

    @property
    def period(self) -> int:
        return self._cx.shape[1]

    @property
    def array(self) -> np.ndarray:
        counts = self._cx.T @ self._cy
        counts.setflags(write=False)
        return counts

    def __getitem__(self, anchor: Coord) -> int:
        match anchor:
            case Coord(x, y) if 0 <= x < self.period and 0 <= y < self.period:
                return int(self._cx[:, x] @ self._cy[:, y])
        raise KeyError(anchor)

    def __iter__(self) -> Iterator[Coord]:
        return (Coord(x, y) for x in range(self.period) for y in range(self.period))

    def __len__(self) -> int:
        return self.period**2

    def best_anchor(self) -> Coord:
        """The lexicographically least anchor of least count: np.argmin of ``array``.

        An anchor's count depends only on its factor columns cx[:, x] and
        cy[:, y], and an axis has at most four distinct columns (a residue
        class meets an interval of length L floor(L/P) or ceil(L/P) times), so
        comparing the distinct pairs finds the minimum without the full array.
        """
        xs, x_first = np.unique(self._cx, axis=1, return_index=True)
        ys, y_first = np.unique(self._cy, axis=1, return_index=True)
        pair_counts = xs.T @ ys
        i, j = np.nonzero(pair_counts == pair_counts.min())
        x = x_first[i].min()
        return Coord(int(x), int(y_first[j[x_first[i] == x]].min()))


def anchor_raw_counts(dims: GridDims, t: int) -> AnchorCounts:
    """Halo-intersection tower count for every rectilinear anchor in [0, 2(t-1))^2.

    Anchors outside one period are redundant, so this sweep is exhaustive. The
    counts average to exactly (m+2(t-2))(n+2(t-2)) / (2(t-1)^2) over the
    period, which is what guarantees the minimum meets the floor bound.

    Closed form: the rectilinear pattern at anchor a is
    {a + (i, j)(t-1) : i = j mod 2}, and the halo window is the product of two
    intervals. For each parity p, the pattern's towers with i = j = p mod 2
    are exactly the points whose x is congruent to a.x + p(t-1) and whose y
    is congruent to a.y + p(t-1) modulo 2(t-1): a product set. So the count
    at a is the sum over p of two per-axis residue counts multiplied, exact
    in integer arithmetic with no per-anchor loop. Grids over MAX_CELLS are
    refused by GridDims, and t outside [3, MAX_STRENGTH] by
    grid.check_strength here, which keeps every count in int64.
    """
    check_strength(t, least=3)
    halo = t - 2
    step = t - 1
    period = 2 * step
    # residues[p, a]: the class, mod period, of the parity-p towers at anchor a.
    residues = np.arange(period) + np.array([[0], [step]])

    def axis_counts(side: int) -> np.ndarray:
        # Integers in [-halo, side - 1 + halo] congruent to each residue.
        return (side - 1 + halo - residues) // period - (-halo - 1 - residues) // period

    return AnchorCounts(axis_counts(dims.m), axis_counts(dims.n))


def best_anchor_construct(dims: GridDims, t: int) -> ConstructionResult:
    """Build a verified (t,2) broadcast on any grid, within the floor bound.

    Paths use the spacing construction (letterboxing assumes m, n > 1).
    Everything else letterboxes at the anchor minimizing raw_count (ties:
    lexicographically least); only the winning anchor is fully constructed
    and verified, the sweep itself needs nothing but the counts.
    """
    if dims.m > 1 and dims.n > 1:
        counts = anchor_raw_counts(dims, t)
        best_anchor = counts.best_anchor()
        result = replace(
            letterbox_construct(dims, rectilinear_lattice(t, best_anchor)),
            generator="best-anchor",
        )
        # The closed form and the enumeration share no code: check they agree.
        if result.raw_count != counts[best_anchor]:
            raise ConstructionInvariantError(
                f"closed-form count {counts[best_anchor]} at anchor {best_anchor} "
                f"differs from the {result.raw_count} towers enumerated on "
                f"{dims.m}x{dims.n}, t={t}"
            )
    else:
        result = path_construct(dims, t)
    bound = upper_t2(dims.m, dims.n, t)
    if len(result.towers) > bound:
        raise ConstructionInvariantError(
            f"{result.generator} result size {len(result.towers)} exceeds bound {bound} "
            f"on {dims.m}x{dims.n}, t={t}"
        )
    return result


def construct(dims: GridDims, t: int) -> TowerSet:
    """The towers of best_anchor_construct: verified, within the floor bound."""
    return best_anchor_construct(dims, t).towers
