"""Closed-form bounds on grid broadcast domination numbers.

All arithmetic is exact: integers for the bounds themselves, fractions for
ratios. Besides the (t,2) pair, only Blessing et al.'s (2,2)/(3,2) upper
bounds are kept, because the paper's claim that the (3,2) bound is optimal is
stated against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class BlessingBounds(NamedTuple):
    b22: int
    b32: int


@dataclass(frozen=True)
class BoundReport:
    """Combined (t,2) bounds for one grid, with their exact ratio."""

    m: int
    n: int
    t: int
    upper_t2: int
    lower_t2: int
    ratio: Fraction


def _require_grid(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be positive, got {m}x{n}")


def _require_strength(t: int) -> None:
    if t < 3:
        raise ValueError(f"(t,2) bounds require t >= 3, got {t}")


def upper_t2(m: int, n: int, t: int) -> int:
    """Upper bound on the (t,2) broadcast domination number of an m x n grid.

    A halo of width t-2 around the grid intersected with an optimal periodic
    pattern, towers clamped inward, yields a broadcast of this size.
    """
    _require_grid(m, n)
    _require_strength(t)
    pad = 2 * (t - 2)
    return (m + pad) * (n + pad) // (2 * (t - 1) ** 2)


def lower_t2(m: int, n: int, t: int) -> int:
    """Lower bound ceil(mn / (2(t-1)^2)): the optimal-density area argument,
    strengthened to an integer."""
    _require_grid(m, n)
    _require_strength(t)
    denom = 2 * (t - 1) ** 2
    return -((-m * n) // denom)


def blessing_bounds(m: int, n: int) -> BlessingBounds:
    """Upper bounds for the (2,2) and (3,2) cases:
    floor((m+2)(n+2)/3) - 5 and floor((m+2)(n+2)/8) - 1."""
    _require_grid(m, n)
    area = (m + 2) * (n + 2)
    return BlessingBounds(b22=area // 3 - 5, b32=area // 8 - 1)


def bound_report(m: int, n: int, t: int) -> BoundReport:
    """Assemble both (t,2) bounds and their exact ratio (upper / lower >= 1)."""
    upper = upper_t2(m, n, t)
    lower = lower_t2(m, n, t)
    return BoundReport(
        m=m,
        n=n,
        t=t,
        upper_t2=upper,
        lower_t2=lower,
        ratio=Fraction(upper, lower),
    )
