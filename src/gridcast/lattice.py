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

Both window functions walk one geometry: the window's tower columns, whose
lowest tower offsets are affine in the column index modulo one period.
towers_in_window builds its tower array column by column, in (x, y) order
for every shear, so TowerSet keeps it without a sort. count_in_window
materializes nothing: it sums the per-column counts in closed form.
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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over 0 <= i < n, for m >= 1, in O(log m) steps.

    The standard Euclid-like recursion (as in the AtCoder Library): divmod
    normalises a and b into [0, m), so b may be negative, and the remaining
    sum counts lattice points under a line that is then read with x and y
    swapped.
    """
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += n * (n - 1) // 2 * qa + n * qb
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _columns(lattice: DiamondLattice, lo: Coord, hi: Coord) -> tuple[int, int, int, int, int, int]:
    """The window's tower columns: ``(first, g, count, alpha, beta, period)``.

    With s = t-1, c = shear mod s and g = gcd(s, c), a tower in column x
    solves a*s + b*c = x - ax and lies at y = ay + (x - ax) - 2s*b. Only
    columns with g | (x - ax) hold towers, so column j < count of the window
    is x = lo.x + first + g*j. There b is fixed mod s/g, by
    b = (x - ax)/g * (c/g)^-1 mod s/g, so the column's y values step by the
    period P = 2s^2/g (the rectilinear c = 0 has g = s and P = 2s). Since
    2s*(s/g) = P, the reduction of b mod s/g drops out mod P: the column's
    lowest tower at or above lo.y sits at y = lo.y + (alpha + beta*j) mod P.
    """
    if lo.x > hi.x or lo.y > hi.y:
        raise ValueError(f"inverted window: {lo} .. {hi}")
    s = lattice.t - 1
    c = lattice.shear % s
    g = gcd(s, c)
    cycle, period = s // g, 2 * s * s // g
    ax, ay = lattice.anchor.x, lattice.anchor.y
    first = (ax - lo.x) % g
    count = (hi.x - lo.x - first) // g + 1
    # Column j has x - ax = g*(q0 + j), and each step of j moves its y by beta.
    q0 = (lo.x + first - ax) // g
    beta = (g - 2 * s * pow(c // g, -1, cycle)) % period
    return first, g, count, (ay - lo.y + beta * q0) % period, beta, period


def towers_in_window(lattice: DiamondLattice, lo: Coord, hi: Coord) -> TowerSet:
    """All towers with lo <= (x, y) <= hi componentwise, canonically ordered.

    The walk goes column by column (see _columns), so the array it builds is
    already in (x, y) order and TowerSet keeps it without sorting. Each
    column's x, first y and tower count are computed as arrays relative to
    the window corner.
    """
    first, g, count, alpha, beta, period = _columns(lattice, lo, hi)
    j = np.arange(count)
    dx = first + g * j
    # y - lo.y of each column's lowest tower, and its tower count.
    dy = (alpha + beta * j) % period
    lengths = (hi.y - lo.y - dy) // period + 1
    # A tower's index along its column; y grows by the period per tower.
    along = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    xy = np.empty((len(along), 2), dtype=np.int64)
    xy[:, 0] = np.repeat(dx, lengths) + lo.x
    xy[:, 1] = np.repeat(dy, lengths) + along * period + lo.y
    return TowerSet(xy)


def count_in_window(lattice: DiamondLattice, lo: Coord, hi: Coord) -> int:
    """Number of towers in the window, in closed form, without materializing them.

    With H = hi.y - lo.y and dy_j = (alpha + beta*j) mod P (see _columns),
    column j holds (H - dy_j) // P + 1 towers. Writing the mod as
    x - P*(x // P) and -beta as (P - beta) - P splits that into
    1 - j + (beta*j + alpha) // P + ((P - beta)*j + H - alpha) // P, so the
    sum over the columns is two floor sums, each O(log P).
    """
    _, _, count, alpha, beta, period = _columns(lattice, lo, hi)
    return (
        count
        - count * (count - 1) // 2
        + _floor_sum(count, period, beta, alpha)
        + _floor_sum(count, period, period - beta, hi.y - lo.y - alpha)
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
    x, y = verdict.first(1)[0][0].tolist()
    return PatternVerdict(False, Coord(lo.x + x, lo.y + y))
