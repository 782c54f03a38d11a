"""Text and SVG renderers for broadcast documents.

Coordinates follow the library convention: (0, 0) is the lower-left vertex,
x grows rightward, y grows upward. The ascii view therefore prints the top
row (y = n-1) first.
"""

from __future__ import annotations

import numpy as np

from .document import BroadcastDocument
from .grid import BroadcastParams, BroadcastVerdict, GridDims, check_broadcast

_CELL = 24  # svg pixels per grid step


def document_verdict(doc: BroadcastDocument) -> BroadcastVerdict:
    return check_broadcast(GridDims(doc.m, doc.n), BroadcastParams(doc.t, doc.r), doc.towers)


def render_ascii(doc: BroadcastDocument) -> str:
    """Towers as 'T', satisfied vertices as '.', deficient vertices as '!'."""
    verdict = document_verdict(doc)
    cells = np.full((doc.m, doc.n), ".")
    xy = doc.towers.xy
    inside = (xy >= 0).all(axis=1) & (xy < (doc.m, doc.n)).all(axis=1)
    cells[xy[inside, 0], xy[inside, 1]] = "T"
    cells[verdict.deficiencies[:, 0], verdict.deficiencies[:, 1]] = "!"
    return "".join("".join(row) + "\n" for row in cells.T[::-1])


def render_svg(doc: BroadcastDocument) -> str:
    """Grid, towers, and one diamond outline (radius t-1) per tower."""
    GridDims(doc.m, doc.n)  # refuses a grid over the cell cap before drawing
    radius = doc.t - 1
    pad = radius + 1
    width = (doc.m - 1 + 2 * pad) * _CELL
    height = (doc.n - 1 + 2 * pad) * _CELL

    def px(x: int) -> int:
        return (x + pad) * _CELL

    def py(y: int) -> int:
        return (doc.n - 1 - y + pad) * _CELL

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x in range(doc.m):
        parts.append(
            f'<line x1="{px(x)}" y1="{py(0)}" x2="{px(x)}" y2="{py(doc.n - 1)}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    for y in range(doc.n):
        parts.append(
            f'<line x1="{px(0)}" y1="{py(y)}" x2="{px(doc.m - 1)}" y2="{py(y)}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    for x in range(doc.m):
        for y in range(doc.n):
            parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="2" fill="#999999"/>')
    for tower in doc.towers:
        points = " ".join(
            f"{x},{y}"
            for x, y in (
                (px(tower.x - radius), py(tower.y)),
                (px(tower.x), py(tower.y + radius)),
                (px(tower.x + radius), py(tower.y)),
                (px(tower.x), py(tower.y - radius)),
            )
        )
        parts.append(
            f'<polygon points="{points}" fill="none" stroke="#2060c0" stroke-width="1.5"/>'
        )
    for tower in doc.towers:
        parts.append(
            f'<circle cx="{px(tower.x)}" cy="{py(tower.y)}" r="5" fill="#2060c0"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
