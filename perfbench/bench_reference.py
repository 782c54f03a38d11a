"""Reference answers the benchmark checks gridcast's outputs against.

Nothing here imports gridcast. The signal field, the best letterbox anchor
and the (t,2) upper bound are recomputed from their definitions, so a defect
in the library cannot vouch for itself.
"""

from __future__ import annotations

import numpy as np

# Rough cost, in array-element operations, of one Python-level loop step; it
# only decides which of the two field algorithms below is cheaper.
_PER_TOWER_OVERHEAD = 2000


def upper_t2(m: int, n: int, t: int) -> int:
    """floor((m + 2(t-2)) (n + 2(t-2)) / (2 (t-1)^2))."""
    return (m + 2 * (t - 2)) * (n + 2 * (t - 2)) // (2 * (t - 1) ** 2)


def best_anchor(m: int, n: int, t: int) -> tuple[int, int, int]:
    """(ax, ay, count) of the rectilinear anchor with the fewest halo towers.

    The rectilinear pattern at anchor a is {a + (i, j)(t-1) : i = j mod 2}, so
    the number of its towers in the halo window [-(t-2), m-1+(t-2)] x
    [-(t-2), n-1+(t-2)] is a sum over the parity p of two per-axis counts.
    Ties go to the lexicographically least anchor.
    """
    step = t - 1
    period = 2 * step
    halo = t - 2
    anchors = np.arange(period)

    def axis_counts(size: int, parity: int) -> np.ndarray:
        # Integers in [-halo, size-1+halo] congruent to a + parity*step mod period.
        residue = anchors + parity * step
        return (size - 1 + halo - residue) // period - (-halo - 1 - residue) // period

    counts = sum(np.outer(axis_counts(m, p), axis_counts(n, p)) for p in (0, 1))
    ax, ay = np.unravel_index(int(np.argmin(counts)), counts.shape)
    return int(ax), int(ay), int(counts[ax, ay])


def _diamond(t: int) -> np.ndarray:
    offsets = np.abs(np.arange(2 * t - 1) - (t - 1))
    return np.maximum(t - (offsets[:, None] + offsets[None, :]), 0).astype(np.int64)


def signal_field(m: int, n: int, t: int, towers: np.ndarray) -> np.ndarray:
    """Total signal at every vertex of the m x n grid; ``towers`` is (k, 2).

    Small t: add shifted copies of the tower-count image, one per diamond
    offset. Large t with few towers: stamp each tower's diamond.
    """
    radius = t - 1
    values = np.zeros((m, n), dtype=np.int64)
    towers = np.asarray(towers, dtype=np.int64).reshape(-1, 2)
    xs, ys = towers[:, 0], towers[:, 1]
    near = (xs > -t) & (xs < m + radius) & (ys > -t) & (ys < n + radius)
    xs, ys = xs[near], ys[near]
    offsets = 2 * radius * radius + 2 * radius + 1
    if offsets * m * n <= len(xs) * ((2 * t - 1) ** 2 + _PER_TOWER_OVERHEAD):
        image = np.zeros((m + 2 * radius, n + 2 * radius), dtype=np.int64)
        np.add.at(image, (xs + radius, ys + radius), 1)
        for dx in range(-radius, radius + 1):
            span = radius - abs(dx)
            for dy in range(-span, span + 1):
                values += (t - abs(dx) - abs(dy)) * image[
                    radius + dx : radius + dx + m, radius + dy : radius + dy + n
                ]
        return values
    kernel = _diamond(t)
    for x, y in zip(xs.tolist(), ys.tolist()):
        x0, x1 = max(x - radius, 0), min(x + radius, m - 1)
        y0, y1 = max(y - radius, 0), min(y + radius, n - 1)
        values[x0 : x1 + 1, y0 : y1 + 1] += kernel[
            x0 - x + radius : x1 - x + radius + 1, y0 - y + radius : y1 - y + radius + 1
        ]
    return values


def stamp_cells(m: int, n: int, t: int, towers: np.ndarray) -> int:
    """Cells touched when each tower's (2t-1)^2 stamp is clipped to the grid."""
    towers = np.asarray(towers, dtype=np.int64).reshape(-1, 2)
    radius = t - 1
    xs, ys = towers[:, 0], towers[:, 1]
    width = np.minimum(xs + radius, m - 1) - np.maximum(xs - radius, 0) + 1
    height = np.minimum(ys + radius, n - 1) - np.maximum(ys - radius, 0) + 1
    return int((np.clip(width, 0, None) * np.clip(height, 0, None)).sum())
