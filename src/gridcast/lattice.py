"""Infinite periodic tower patterns whose broadcast outlines tile the plane.

A DiamondLattice places towers at ``anchor + a*u + b*w`` for all integer
(a, b), with basis vectors

    u = (t-1, t-1)            w = (shear, shear - 2(t-1))

The basis determinant is -2(t-1)^2 for every shear, so each pattern has one
tower per 2(t-1)^2 cells. ``shear = t-1`` gives the rectilinear pattern whose
diamond outlines align into a diagonal lattice; other shears produce offset
tilings.

Every pattern supplies total signal >= 2 to every plane vertex, whatever its
shear and anchor, so validate_pattern accepts them all. In p = x+y, q = x-y
the Manhattan distance is max(|dp|, |dq|). Towers lie on the lines
q = q0 (mod 2(t-1)), spaced 2(t-1) apart in p. Any vertex is within t-1 in q
of some line and within t-1 in p of a tower on it; if both offsets are below
t-1 that tower supplies >= 2. An offset of exactly t-1 puts the vertex midway
between two lines, or between two towers on one line, so two towers at
distance t-1 supply 1 each. validate_pattern confirms it with the grid
verifier, check_broadcast, on one finite box per pattern.

towers_in_window walks the window column by column, so it builds its tower
array in (x, y) order for every shear and TowerSet keeps it without a sort.
count_in_window never materializes towers and walks lattice rows instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .grid import (
    MAX_CELLS, BroadcastParams, Coord, GridDims, TowerSet, check_broadcast, check_strength,
)

__all__ = [
    "DiamondLattice",
    "PatternVerdict",
    "rectilinear_lattice",
    "towers_in_window",
    "count_in_window",
    "window_density",
    "validate_pattern",
]


@dataclass(frozen=True)
class DiamondLattice:
    """Periodic tower pattern of strength-t towers."""

    t: int
    anchor: Coord
    shear: int

    def __post_init__(self) -> None:
        check_strength(self.t, least=3)

    @property
    def basis_u(self) -> Coord:
        return Coord(self.t - 1, self.t - 1)

    @property
    def basis_w(self) -> Coord:
        return Coord(self.shear, self.shear - 2 * (self.t - 1))


@dataclass(frozen=True)
class PatternVerdict:
    """validate_pattern outcome; ``counterexample`` is the first under-supplied vertex."""

    valid: bool
    counterexample: Coord | None = None


def rectilinear_lattice(t: int, anchor: Coord = Coord(0, 0)) -> DiamondLattice:
    """The aligned diagonal pattern: basis ((t-1, t-1), (t-1, -(t-1)))."""
    return DiamondLattice(t, anchor, t - 1)


def _ceil_div(p: int, q: int) -> int:
    # q > 0 assumed
    return -((-p) // q)


def _window_rows(lattice: DiamondLattice, x0: int, x1: int, y0: int, y1: int):
    """Yield the tower count of each lattice row meeting [x0,x1] x [y0,y1].

    A row holds the towers anchor + a*u + b*w of one b, and along it both
    coordinates grow by t-1. The walk ranges over lattice coefficients rather
    than scanning cells: b is pinned by x - y modulo the basis, and for each b
    the feasible a values form an interval (intersection of the x-window and
    y-window constraints). Shear c and c + (t-1) give the same lattice (w + u
    replaces w), so the walk uses the shear reduced mod t-1. Rows with no
    tower in the window are skipped.
    """
    step = lattice.t - 1
    period = 2 * step
    wx = lattice.shear % step
    wy = wx - period
    ax, ay = lattice.anchor.x, lattice.anchor.y
    rx0, rx1 = x0 - ax, x1 - ax
    ry0, ry1 = y0 - ay, y1 - ay
    for b in range(_ceil_div(rx0 - ry1, period), (rx1 - ry0) // period + 1):
        a_lo = max(_ceil_div(rx0 - b * wx, step), _ceil_div(ry0 - b * wy, step))
        a_hi = min((rx1 - b * wx) // step, (ry1 - b * wy) // step)
        if a_lo <= a_hi:
            yield a_hi - a_lo + 1


def towers_in_window(lattice: DiamondLattice, lo: Coord, hi: Coord) -> TowerSet:
    """All towers with lo <= (x, y) <= hi componentwise, canonically ordered.

    The walk goes column by column, so the array it builds is already in
    (x, y) order and TowerSet keeps it without sorting. With s = t-1,
    c = shear mod s and g = gcd(s, c), a tower in column x solves
    a*s + b*c = x - ax and lies at y = ay + (x - ax) - 2s*b. Only columns
    with g | (x - ax) hold towers; b is fixed mod s/g, by
    b0 = (x - ax)/g * (c/g)^-1 mod s/g, so the column's y values step by
    P = 2s^2/g from ay + (x - ax) - 2s*b0 (the rectilinear c = 0 has g = s
    and P = 2s). Each column's x, first y and tower count are computed as
    arrays relative to the window corner.
    """
    if lo.x > hi.x or lo.y > hi.y:
        raise ValueError(f"inverted window: {lo} .. {hi}")
    s = lattice.t - 1
    c = lattice.shear % s
    g = gcd(s, c)
    cycle, period = s // g, 2 * s * s // g
    ax, ay = lattice.anchor.x, lattice.anchor.y
    # Columns holding towers: lo.x + first + g*j, whose x - ax is g*(q0 + j).
    first = (ax - lo.x) % g
    j = np.arange((hi.x - lo.x - first) // g + 1)
    q0 = (lo.x + first - ax) // g
    b0 = ((q0 % cycle + j) * pow(c // g, -1, cycle)) % cycle
    dx = first + g * j
    # y - lo.y of each column's lowest tower at or above lo.y, and its tower count.
    dy = ((ay - lo.y + lo.x - ax) % period + dx - 2 * s * b0) % period
    lengths = np.maximum((hi.y - lo.y - dy) // period + 1, 0)
    # A tower's index along its column; y grows by the period per tower.
    along = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    xy = np.empty((len(along), 2), dtype=np.int64)
    xy[:, 0] = np.repeat(dx, lengths) + lo.x
    xy[:, 1] = np.repeat(dy, lengths) + along * period + lo.y
    return TowerSet(xy)


def count_in_window(lattice: DiamondLattice, lo: Coord, hi: Coord) -> int:
    """Number of towers in the window, without materializing them, in O(t).

    Its strips are 2(t-1)^2 wide, so it walks lattice rows (O(t) of them); a
    column walk would visit O(t^2/g) columns, g = gcd(t-1, shear mod t-1).

    The basis determinant D = 2(t-1)^2 puts (D, 0) and (0, D) in the lattice,
    so every D x D block holds D^2 / D = D towers, and a W x H window with
    W = qx*D + rx, H = qy*D + ry holds qx*qy*D towers plus those of three
    remainder strips, each of which counts like the strip at ``lo``.
    """
    if lo.x > hi.x or lo.y > hi.y:
        raise ValueError(f"inverted window: {lo} .. {hi}")
    period = 2 * (lattice.t - 1) ** 2
    qx, rx = divmod(hi.x - lo.x + 1, period)
    qy, ry = divmod(hi.y - lo.y + 1, period)

    def strip(width: int, height: int) -> int:
        # An empty strip (width or height 0) has no feasible rows.
        return sum(_window_rows(lattice, lo.x, lo.x + width - 1, lo.y, lo.y + height - 1))

    return (
        qx * qy * period
        + qx * strip(period, ry)
        + qy * strip(rx, period)
        + strip(rx, ry)
    )


def window_density(lattice: DiamondLattice, side: int) -> Fraction:
    """Tower fraction of the side x side window anchored at the origin, exact."""
    if side < 1:
        raise ValueError(f"window side must be >= 1, got {side}")
    count = count_in_window(lattice, Coord(0, 0), Coord(side - 1, side - 1))
    return Fraction(count, side * side)


def validate_pattern(lattice: DiamondLattice) -> PatternVerdict:
    """Check that the pattern supplies total signal >= 2 to every plane vertex.

    Periodicity reduces the check to one vertex per residue class. With
    s = t-1 the shear reduces to c = shear mod s (w + u may replace w); the
    half-open parallelogram of u and the reduced w holds one vertex of each
    class and lies in the (s+c+1) x (3s-c+1) box at anchor + (0, c-2s).
    check_broadcast evaluates the box with every tower within s of it, and
    its first deficient vertex is the counterexample. A box over MAX_CELLS
    (some shears from t = 2897 on) raises ValueError.
    """
    s = lattice.t - 1
    c = lattice.shear % s
    lo = Coord(lattice.anchor.x, lattice.anchor.y + c - 2 * s)
    m, n = s + c + 1, 3 * s - c + 1
    if m * n > MAX_CELLS:
        raise ValueError(
            f"pattern check at t={lattice.t} needs a {m}x{n} box, "
            f"more than the supported {MAX_CELLS} vertices"
        )
    reach = Coord(lo.x - s, lo.y - s), Coord(lo.x + m - 1 + s, lo.y + n - 1 + s)
    shifted = TowerSet(towers_in_window(lattice, *reach).xy - (lo.x, lo.y))
    verdict = check_broadcast(GridDims(m, n), BroadcastParams(lattice.t, 2), shifted)
    if verdict.valid:
        return PatternVerdict(True, None)
    x, y = verdict.deficiencies[0].tolist()
    return PatternVerdict(False, Coord(lo.x + x, lo.y + y))
