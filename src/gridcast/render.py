"""Text and SVG renderers for broadcast documents.

Coordinates follow the library convention: (0, 0) is the lower-left vertex,
x grows rightward, y grows upward. The ascii view therefore prints the top
row (y = n-1) first.

Each view is written in one pass. The ascii view paints one byte per vertex
into an n x (m+1) array whose last column holds the newlines, and decodes it
once. The svg view is a header plus five template fills (vertical lines,
horizontal lines, vertex dots, tower diamonds, tower dots), each one
printf-style ``%`` pass, so no format call is made per vertex or per tower.
Its pixel coordinates stay Python ints: tower coordinates span int64, and
int64 pixel arithmetic would overflow from |x| ~ 3.8e17. The svg view
refuses grids of more than 2**20 vertices: it is O(mn) text, and its memory
peaks at about 160 B per vertex, so 160 MiB at the cap. Like the ascii view,
it refuses a strength outside [1, MAX_STRENGTH].
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, product

import numpy as np

from .document import BroadcastDocument
from .grid import BroadcastParams, BroadcastVerdict, GridDims, check_broadcast, check_strength

_CELL = 24  # svg pixels per grid step
_SVG_MAX_CELLS = 2**20


def fill(template: str, sep: str, count: int, values: Iterable) -> str:
    """``count`` copies of a printf-style template joined by ``sep``, filled in one ``%``."""
    return sep.join([template] * count) % tuple(values)


def document_verdict(doc: BroadcastDocument) -> BroadcastVerdict:
    return check_broadcast(GridDims(doc.m, doc.n), BroadcastParams(doc.t, doc.r), doc.towers)


def render_ascii(doc: BroadcastDocument) -> str:
    """Towers as 'T', satisfied vertices as '.', deficient vertices as '!'."""
    bad = document_verdict(doc).deficiencies
    # Row i of the text holds grid row n-1-i and ends in its newline; cells is
    # the view of the vertices indexed by (x, y).
    text = np.full((doc.n, doc.m + 1), ord("."), dtype=np.uint8)
    text[:, -1] = ord("\n")
    cells = text[::-1, :-1].T
    xy = doc.towers.xy
    x, y = xy[:, 0], xy[:, 1]
    inside = (x >= 0) & (x < doc.m) & (y >= 0) & (y < doc.n)
    cells[tuple(xy[inside].T)] = ord("T")
    cells[tuple(bad.T)] = ord("!")
    return text.tobytes().decode("ascii")


def render_svg(doc: BroadcastDocument) -> str:
    """Grid, towers, and one diamond outline (radius t-1) per tower.

    Raises ValueError for a grid of more than 2**20 vertices, or for a strength
    the ascii view refuses too (grid.check_strength).
    """
    GridDims(doc.m, doc.n)  # refuses a grid over the cell cap before drawing
    check_strength(doc.t)
    if doc.m * doc.n > _SVG_MAX_CELLS:
        raise ValueError(f"svg output is limited to {_SVG_MAX_CELLS} vertices, got {doc.m}x{doc.n}")
    # Pixel column of x = 0..m-1 and pixel row of y = 0..n-1 (y runs downward),
    # with a margin of t steps: the diamond radius t-1, plus one.
    cols = range(doc.t * _CELL, (doc.m + doc.t) * _CELL, _CELL)
    rows = range((doc.n - 1 + doc.t) * _CELL, (doc.t - 1) * _CELL, -_CELL)
    width, height = cols[0] + cols[-1], rows[0] + rows[-1]
    reach = (doc.t - 1) * _CELL
    centres = [(cols[0] + x * _CELL, rows[0] - y * _CELL) for x, y in doc.towers.xy.tolist()]
    # A generator, so the corner values are freed once their fill is made.
    diamonds = (
        v for x, y in centres for v in (x - reach, y, x, y - reach, x + reach, y, x, y + reach)
    )
    return "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
        fill(f'<line x1="%d" y1="{rows[0]}" x2="%d" y2="{rows[-1]}" stroke="#cccccc" '
             'stroke-width="1"/>\n', "", len(cols), chain.from_iterable(zip(cols, cols))),
        fill(f'<line x1="{cols[0]}" y1="%d" x2="{cols[-1]}" y2="%d" stroke="#cccccc" '
             'stroke-width="1"/>\n', "", len(rows), chain.from_iterable(zip(rows, rows))),
        fill('<circle cx="%d" cy="%d" r="2" fill="#999999"/>\n', "",
             len(cols) * len(rows), chain.from_iterable(product(cols, rows))),
        fill('<polygon points="%d,%d %d,%d %d,%d %d,%d" fill="none" stroke="#2060c0" '
             'stroke-width="1.5"/>\n', "", len(centres), diamonds),
        fill('<circle cx="%d" cy="%d" r="5" fill="#2060c0"/>\n', "",
             len(centres), chain.from_iterable(centres)),
        "</svg>\n",
    ])
