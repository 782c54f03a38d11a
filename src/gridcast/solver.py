"""Exact broadcast domination numbers by budgeted complete search.

Witness first: a greedy placement shrunk by tabu swap descent (_UpperBound)
gives a broadcast of U towers, which check_broadcast must accept before U
bounds anything. The complete depth-first search then runs only at level
U-1, where a level means "at most k towers": a refuted level certifies that
U is optimal, and a witness found there becomes the new U, one level lower.
The lower bound is the floor: no level below it is searched, the swap
search aims no lower, and a U at the bound is optimal without any search.

The lower bound is the larger of the deficit bound ceil(r*m*n /
max_unit_coverage), below which a level's root is pruned, and a certified
weighted bound. For any integer weights w >= 0 on the grid's cells, let W
be the most sum_v min(r, signal(u, v)) * w_v over every grid cell u. Every
vertex v of a broadcast S receives r, so sum_{u in S} min(r, signal(u, v))
>= r; weighting by w_v and summing over v gives r * sum(w) <= |S| * W, so
|S| >= ceil(r * sum(w) / W). Weight 1 everywhere gives W =
max_unit_coverage, the deficit bound itself. The weights come from the
fractional-broadcast LP over the cells' symmetry classes, solved by a small
dense simplex in floats and rounded down to multiples of 2**-20. W is
recomputed from them in int64 over each class representative's row of the
signal kernel: every automorphism maps each class onto itself and keeps
every signal, so any cell's weighted coverage is its representative's. The
floats can weaken the bound but never make it unsound. The LP is skipped
above _LP_CLASSES classes, and the clock is read before each of its at
most _LP_PIVOTS pivots.

The level search prunes by the same weights. For towers S placed so far,
let D(S) = sum_v w_v * max(0, r - received_v) be their weighted deficit. A
further tower u raises each received_v by signal(u, v), so it lowers
max(0, r - received_v) by at most min(r, signal(u, v)), and D by at most
sum_v min(r, signal(u, v)) * w_v <= W. A broadcast has D = 0, so S extends
to one with j more towers only if D(S) <= j * W: a placed child whose D
exceeds (slots - 1) * W is refuted. Weight 1 everywhere is the deficit
prune below. Without weights (the LP skipped, out of clock, or W = 0) there
is no weighted check, and the search is the unweighted one, node for node.

Within a level the search branches on the lexicographically first deficient
vertex; its candidate towers are the grid vertices that supply it positive
signal, tried in order of decreasing marginal deficiency coverage (ties
broken lexicographically), with candidates already refuted at a branch point
excluded from the subtree.

Every child is counted as one node expansion, but only interior children are
placed. A child's gain (the deficiency it would repair) is computed once, when
the candidates are ranked: a child whose gain covers the whole deficit is the
answer, and one that leaves more deficit than the remaining towers could
repair (each repairs at most `max_unit_coverage`) is refuted, both without
touching the signal totals. The same bound prunes a whole level's root, and
find_broadcast_of_size returns at once for such a level, before it builds
any search state.

Before a child is placed, it is refuted when even its gain times the
heaviest weight within its reach cannot bring the frame's weighted deficit
down to (slots - 1) * W: that bounds what it repairs of D, so this refutes
only children the weighted check would, unplaced. The heaviest weights come
with the LP's, read off the same representative rows as W. A placed child
is then refuted by its weighted deficit, one popcount per weight bit of its
stacked planes against the bit's mask of the band, plus r times the weight
of the untouched rows below the band.

A placed child is also refuted by the packing bound. The deficient cells of
the 4t-2 rows from the parent's branch cell are picked greedily in row-major
order, each at least 2t-1 from the picks before it. No tower reaches two
picks, so each needs a tower of its own whatever r is, and the child is
refuted when the picks outnumber the towers left. The picks are not made
when disjoint radius-(t-1) diamonds around them could not outnumber those
towers in those rows.

At the root only, candidates are additionally reduced to one representative
per orbit of the grid's symmetry group (8 symmetries for square grids, 4
otherwise). This is sound because the domination number is invariant under
grid automorphisms; the naive enumerator used to cross-check the solver
applies no such reduction.

The search is one loop over an explicit stack of frames, one per branch
point on the current path, so its depth is bounded by the tower count, not
by Python's recursion limit. The received signal is held as bit planes, one
Python int per total 1..r, over the live band of rows that the frame's
subtree can still change; each frame keeps its own planes, so backtracking
undoes nothing. A candidate's gain is a popcount of its diamond templates
against the deficient cells, and a placement ORs the same templates, shifted
and masked by the planes, into new planes. Setup builds only the templates
and masks of one band, and symmetry images are computed only for the root's
candidates, so the work per node and the memory per frame grow with t, n
and r, never with m (the weighted check's masks, one set per band row, exist
only on grids small enough for the LP). For large t and r one template, one
gain or one plane of a placement is a pass over megabytes, and ranking one
cell computes up to (2t-1)^2 gains before a node is counted, so the clock is
read before each of those steps as well as once per node.
Every witness is re-checked by check_broadcast before it is returned.

The upper-bound search's placements, drops and swaps are nodes of the same
budget. It keeps one int64 field of the grid and evaluates every gain and
loss over the whole grid. A batch of gains whose count * min(r, t) *
(m*n)**2 is within _CONTRACT_MACS is summed in one pass against one int16
table of the capped signal min(signal(u, v), min(r, t)), (m*n) x (m*n) and
at most 2 * _CONTRACT_MACS / min(r, t) bytes (128 KiB at min(r, t) = 2),
built once per search, and reads the clock once; any larger batch is summed
from prefix sums in O(m*n) memory and reads it once per pass over the
batch. The clock is also read before each move and each batch of losses.

One meter (_Meter) bounds a solve. It is made from the caller's
SearchBudget as the first step of exact_gamma, or of find_broadcast_of_size
called on its own, and holds the nodes expanded so far, the node cap and the
deadline the budget's seconds give. The root prune, the LP, the swap search
and every level's setup and search run on that one meter: the swap search
and the levels count their nodes on it, every clock reading is against its
deadline, and no phase keeps a count or starts a clock of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._budget import DEFAULT_MAX_NODES, SearchBudget  # noqa: F401 -- re-exported
from .grid import BroadcastParams, GridDims, InvariantError, TowerSet, check_broadcast


class _Weights(NamedTuple):
    """Integer weights w >= 0 on the grid's cells, (m, n) int64; W, the most
    sum_v min(r, signal(u, v)) * w_v over every grid cell u; and heaviest[u],
    the largest w_v within distance t-1 of cell u = x*n + y."""

    cells: np.ndarray
    most: int
    heaviest: list[int]


class _Meter:
    """One solve's budget, made from its SearchBudget as the first step of
    exact_gamma, or of find_broadcast_of_size called on its own: the nodes
    expanded so far, the node cap and the deadline (a time.monotonic()
    reading, or None). The LP reads its deadline, and the swap search and
    every level count their nodes on it. A BudgetExhaustedError it raises
    carries its count, the solve's nodes so far."""

    # tick runs once per node of every search; slots keep its reads cheap.
    __slots__ = ("nodes", "cap", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes, self.cap, seconds = 0, budget.max_nodes, budget.max_seconds
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def late(self) -> bool:
        """Whether the deadline has passed."""
        return self.deadline is not None and time.monotonic() > self.deadline

    def check(self) -> None:
        """Raise BudgetExhaustedError if the deadline has passed."""
        if self.late():
            raise BudgetExhaustedError(self.nodes)

    def tick(self) -> None:
        """Count one node, or raise BudgetExhaustedError if the cap is reached
        or the deadline has passed."""
        deadline = self.deadline
        if self.nodes >= self.cap or (deadline is not None and time.monotonic() > deadline):
            raise BudgetExhaustedError(self.nodes)
        self.nodes += 1


class _LevelBudget(NamedTuple):
    """What exact_gamma hands a level: the solve's meter and the LP weights
    it solved once for every level (None: no weighted check).

    It rides in find_broadcast_of_size's budget argument because exact_gamma
    must reach each level through the module attribute
    solver.find_broadcast_of_size, which the benchmark's trace patches to
    time and count the level searches. Once the trace covers a private
    level entry, the meter and weights can be plain arguments of it.
    """

    meter: _Meter
    weights: _Weights | None


class BudgetExhaustedError(Exception):
    """The search budget ran out before the level completed."""

    def __init__(self, nodes_expanded: int):
        super().__init__(f"search budget exhausted after {nodes_expanded} node expansions")
        self.nodes_expanded = nodes_expanded


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal" | "budget_exhausted"
    gamma: int | None
    witness: TowerSet | None
    nodes_expanded: int
    # (k, nodes expanded at level k) for every level searched, in order.
    level_nodes: tuple[tuple[int, int], ...] = ()
    # The lower bound (the larger of the deficit bound and the certified LP
    # bound), the size of the smallest verified broadcast found so far (None
    # if the budget ran out before the upper-bound search had one; gamma when
    # optimal) and the upper-bound search's nodes: upper_nodes + the level
    # nodes == nodes_expanded.
    lower: int | None = None
    upper: int | None = None
    upper_nodes: int = 0
    # What proves gamma optimal: "lp" (it equals a certified bound above the
    # deficit bound), "bound" (it equals the deficit bound), "refuted" (a
    # level search refuted gamma - 1), or None when the budget ran out.
    certificate: str | None = None


def _orbits(cells: np.ndarray, m: int, n: int) -> np.ndarray:
    """The name of each cell u = x*n + y's orbit under the grid's 4 or 8
    automorphisms: the least of its images, a cell of the orbit. Two cells
    share an orbit iff they get the same name."""
    x, y = np.divmod(cells, n)
    images = [(x, y), (m - 1 - x, y), (x, n - 1 - y), (m - 1 - x, n - 1 - y)]
    if m == n:
        images += [(y, x), (m - 1 - y, x), (y, m - 1 - x), (m - 1 - y, m - 1 - x)]
    return np.array([a * n + b for a, b in images]).min(axis=0)


def _coverage(dims: GridDims, params: BroadcastParams, x: int, y: int) -> int:
    """sum_v min(r, signal(u, v)) for a tower on u = (x, y), over the at most
    (2t-1)^2 grid vertices it reaches.

    The signal t - |dx| - |dy| is built from the box's two int16 offset
    vectors (t <= 10000 and |dx|, |dy| <= t-1, so every value fits), capped
    to [0, min(r, t)] in place and summed in int64.
    """
    t = params.t
    dx = np.abs(np.arange(-min(x, t - 1), min(t, dims.m - x), dtype=np.int16))
    dy = np.abs(np.arange(-min(y, t - 1), min(t, dims.n - y), dtype=np.int16))
    signal = (t - dx)[:, None] - dy
    np.clip(signal, 0, min(params.r, t), out=signal)
    return int(signal.sum(dtype=np.int64))


def max_unit_coverage(dims: GridDims, params: BroadcastParams) -> int:
    """The most total deficiency one tower can repair on an empty grid.

    That is the capped coverage sum(min(r, signal)) of a tower on the central
    vertex ((m-1)//2, (n-1)//2). For every radius, the number of grid
    vertices within that L1 distance of a tower is largest at the centre
    (per axis, min(d, x) + min(d, m-1-x) is largest when x is central), and
    the capped signal is a non-increasing function of the distance, so no
    tower covers more. Placed towers only shrink what a later one can repair.
    The sum is _coverage's, over the box of cells the tower reaches.
    """
    return _coverage(dims, params, (dims.m - 1) // 2, (dims.n - 1) // 2)


# The LP bound is solved only on grids of at most _LP_CLASSES symmetry
# classes, by at most _LP_PIVOTS simplex pivots; its weights are rounded down
# to multiples of 2**-_WEIGHT_BITS before the integer check.
_LP_CLASSES = 136
_LP_PIVOTS = 1000
_WEIGHT_BITS = 20
_EPS = 1e-9
# The level search's weighted check stacks a frame's planes in groups of at
# most this many bits (and at least one plane).
_STACK_BITS = 1 << 12


def _sent(dims: GridDims, t: int) -> np.ndarray:
    """sent[m-1-x, n-1-y] is the signal that a tower on (x, y) sends each grid
    cell, in int16 since no signal exceeds t <= 10000: a view of one kernel
    of (2m-1) x (2n-1) cells, what a tower on (m-1, n-1) sends."""
    m, n = dims.m, dims.n
    # |dx| and |dy| are capped at t, past which nothing is sent, so every
    # t - |dx| - |dy| lies in [-t, t] and the kernel is built in int16.
    dx, dy = (np.minimum(np.abs(np.arange(1 - c, c)), t).astype(np.int16) for c in (m, n))
    kernel = np.subtract.outer(t - dx, dy)
    np.maximum(kernel, 0, out=kernel)
    return np.lib.stride_tricks.sliding_window_view(kernel, (m, n))


def _simplex(a: np.ndarray, c: np.ndarray, deadline: float | None) -> np.ndarray | None:
    """A y >= 0 maximising c.y subject to a @ y <= 1, or None if the clock
    passes the deadline first.

    Dense primal simplex from the slack basis, which is feasible since the
    right-hand side is 1, so it needs no phase 1: the entering column has
    the most negative reduced cost and the ratio test takes the lowest row,
    ties going to the lowest index. It stops after _LP_PIVOTS pivots with
    the basic solution it holds, and the clock is read before each pivot.
    """
    rows, cols = a.shape
    table = np.zeros((rows + 1, cols + rows + 1))
    table[:rows, :cols] = a
    table[np.arange(rows), cols + np.arange(rows)] = 1.0
    table[:rows, -1] = 1.0
    table[-1, :cols] = -c
    basis = np.arange(cols, cols + rows)
    ratios = np.empty(rows)
    for _ in range(_LP_PIVOTS):
        if deadline is not None and time.monotonic() > deadline:
            return None
        j = int(table[-1, :-1].argmin())
        if table[-1, j] >= -_EPS:
            break
        column = table[:rows, j]
        ratios.fill(np.inf)
        np.divide(table[:rows, -1], column, out=ratios, where=column > _EPS)
        i = int(ratios.argmin())
        if ratios[i] == np.inf:
            break
        pivot = table[i] / table[i, j]
        table -= np.outer(table[:, j], pivot)
        table[i] = pivot
        basis[i] = j
    y = np.zeros(cols + rows)
    y[basis] = table[:rows, -1]
    return y[:cols]


def _lp_bound(
    dims: GridDims, params: BroadcastParams, deadline: float | None
) -> tuple[int, _Weights | None]:
    """The certified weighted bound from the fractional-broadcast LP and its
    weights, or (0, None) when the LP is skipped, the clock passes the
    deadline inside it or its W is 0.

    The grid's cells fall into classes under its 4 or 8 automorphisms, and
    the LP maximises sum_c r*|c|*y_c subject to sum_c (sum_{v in c} min(r,
    signal(u, v))) * y_c <= 1 for one cell u of each class, y >= 0: the dual
    of the broadcast relaxation, symmetrised, with its x <= 1 bounds
    dropped. Its y, clipped to [0, 1], gives each class the integer weight
    floor(y * 2**20), and the bound is ceil(r * sum(w) / W): sound for any
    w >= 0, whatever y was, by the module docstring's proof.

    W and the heaviest weights are read off the class representatives'
    capped kernel rows. A representative's row is positive exactly on the
    cells within distance t-1 of it, and every automorphism keeps distances
    and signals and maps each class onto itself, so each cell takes its
    representative's values.
    """
    m, n = dims.m, dims.n
    # A class holds at most 8 cells, so a larger grid has too many classes.
    if m * n > 8 * _LP_CLASSES:
        return 0, None
    reps, classes = np.unique(_orbits(np.arange(m * n), m, n), return_inverse=True)
    if len(reps) > _LP_CLASSES:
        return 0, None
    x, y = np.divmod(reps, n)
    # The fancy index copies the rows, so they are capped in place; min(r,
    # t) fits int16 where r may not.
    rows = _sent(dims, params.t)[m - 1 - x, n - 1 - y].reshape(len(reps), m * n)
    np.minimum(rows, min(params.r, params.t), out=rows)
    # Sum each row over the cells of each class, in int64: a class sum can
    # reach 8 * 10000.
    order = np.argsort(classes, kind="stable")
    starts = np.searchsorted(classes[order], np.arange(len(reps)))
    a = np.add.reduceat(rows[:, order], starts, axis=1, dtype=np.int64)
    # Scaling the objective by r changes no optimum, so it is left out.
    solved = _simplex(a, np.bincount(classes).astype(np.float64), deadline)
    if solved is None:
        return 0, None
    w = np.floor(np.clip(np.nan_to_num(solved), 0.0, 1.0) * (1 << _WEIGHT_BITS))
    cells = w.astype(np.int64)[classes]
    # int16 rows against int64 weights: the products are summed in int64.
    most = int((rows @ cells).max())
    if most == 0:
        return 0, None
    heaviest = np.where(rows > 0, cells, 0).max(axis=1)[classes].tolist()
    return -(-params.r * int(cells.sum()) // most), _Weights(cells.reshape(m, n), most, heaviest)


class SolverInvariantError(InvariantError):
    """A witness the search returned failed the independent verifier, or a
    lower bound exceeded the size of a verified broadcast."""


def _bits(cells: np.ndarray) -> int:
    """A bool array's true cells as the set bits of one int, in row-major order."""
    return int.from_bytes(np.packbits(cells, bitorder="little").tobytes(), "little")


class _Search:
    """One complete search for a broadcast of at most `slots` towers.

    The received signal is held as bit planes over the live band of rows
    [x_v, x_v + 2R], R = min(t-1, m-1), where v is the frame's branch cell:
    plane j (planes[j-1]) holds the band cells whose total is at least j,
    for j <= r, and trailing planes equal to 0 are dropped. Rows above x_v are
    satisfied and rows below the band are untouched, so each frame keeps
    only its own band, and its planes are never changed. A band row is
    `width` = n + min(2t-2, n-1) bits; the bits past column n-1 are
    padding, so no diamond of radius 2t-2 or less wraps onto a neighbouring
    row. Cell (x0 + i, c) of the band from row x0 is bit lift + i*width + c,
    lift = 2R*width + min(t-1, n-1), so that a template placed anywhere in
    reach of the band is shifted left, never right; bits outside the band's
    grid cells are ignored. Templates are diamonds around the centre of a
    (2R+1) x width box: dia[k-1] holds the cells a tower sends at least k.
    Given LP weights, each frame also keeps its weighted deficit, for the
    weighted check.
    """

    def __init__(
        self, dims: GridDims, params: BroadcastParams, meter: _Meter, weights: _Weights | None
    ):
        # The meter's deadline was set before the level began, so setup is
        # charged to it. The clock is read before each template too: for
        # large t and r the templates take gigabytes in all.
        self.meter, self.weights = meter, weights
        m, n, t, r = self.m, self.n, self.t, self.r = dims.m, dims.n, params.t, params.r
        rows, cols = min(t, m) - 1, min(t, n) - 1
        self.rows = rows
        width = self.width = n + min(2 * t - 2, n - 1)
        self.lift = 2 * rows * width + cols
        # No two grid cells are further apart than the box's half-diagonal,
        # so a diamond that wide is the whole box, and so is every wider one.
        self.box = rows + cols
        top = self.top = min(r, t)
        dx = np.abs(np.arange(-rows, rows + 1))
        dy = np.abs(np.arange(width) - cols)
        dia = self.dia = []
        for k in range(1, top + 1):
            # Radii of box or more are the whole box, so they share a template.
            if dia and t - k >= self.box:
                dia.append(dia[0])
            else:
                meter.check()
                dia.append(_bits(dy <= np.minimum(t - k - dx, cols)[:, None]))
        # Nothing receives more than t, and no grid cell less than t - box.
        self.least = max(t - self.box, 1)
        # Ranking stacks the gain's terms k = top, ..., 1 in one int, term k
        # `stride` bits above term k + 1, so that one popcount sums them:
        # every band cell and every shifted template is below (4R+2)*width.
        size = -(-(4 * rows + 2) * width // 8)
        self.stride = 8 * size
        pieces = []
        for d in reversed(dia):
            meter.check()
            pieces.append(d.to_bytes(size, "little"))
        self.stacked = int.from_bytes(b"".join(pieces), "little")
        # A frame's band has 2R+1 rows. A placement looks for the next
        # deficient cell in its 4t-2 rows, past the band into untouched rows.
        self.height = 2 * rows + 1
        full = np.zeros((min(4 * t - 2, m), width), dtype=bool)
        full[:, :n] = True
        self.full = _bits(full) << self.lift
        self.band, self.region = self._rows(self.height), self._rows(4 * t - 2)
        # The packing bound clears the cells within 2t-2 after each pick: bit
        # dx*width + dy of `near` is the offset (dx, dy) from the pick.
        reach = min(2 * t - 2, n - 1)
        dx = np.arange(min(2 * t - 1, m))[:, None]
        dy = np.arange(width) - reach
        near = (np.abs(dy) <= 2 * t - 2 - dx) & (np.abs(dy) <= reach) & ((dx > 0) | (dy >= 0))
        self.far = ~(_bits(near) >> reach)
        # _packed runs on every placement, where a lookup beats the formula.
        self.fits = [self._fit(rows) for rows in range(min(4 * t - 2, m) + 1)]
        if weights is not None:
            self._weigh(weights)

    def _weigh(self, weights: _Weights) -> None:
        """Set up the weighted check: the bits of the weights, one grid-wide
        int per weight bit, and the weight owed from each row down. The
        screen's heaviest weights are the LP's own (_Weights.heaviest)."""
        w = weights.cells
        m, n, width = self.m, self.n, self.width
        # owed_from[x] = r * (the weight of rows x, x+1, ..., m-1).
        suffix = np.cumsum(w.sum(axis=1)[::-1])[::-1].tolist()
        self.owed_from = [self.r * int(total) for total in suffix]
        # weight_bits[b] holds cell (x, y) at bit x*width + y if bit b of its
        # weight is set; the clock is read before each.
        self.weight_bits = []
        cells = np.zeros((m, width), dtype=bool)
        for bit in range(int(w.max()).bit_length()):
            self.meter.check()
            cells[:, :n] = (w >> bit) & 1
            self.weight_bits.append(_bits(cells))
        # A frame's planes are stacked in groups of `reps`, `stride` bits
        # apart, and each weight bit's band mask is repeated as often.
        self.reps = max(1, min(self.r, _STACK_BITS // self.stride))
        self.masks: list[list[tuple[int, int]] | None] = [None] * m

    def _band_masks(self, x0: int) -> list[tuple[int, int]]:
        """(b, mask) for each weight bit b set in the band from row x0: mask
        holds the band's cells whose weight has bit b, repeated `reps` times
        `stride` bits apart. Built once per band row."""
        size, width, lift = self.stride // 8, self.width, self.lift
        band = (1 << (self.height * width)) - 1
        masks = []
        for bit, cells in enumerate(self.weight_bits):
            mask = ((cells >> (x0 * width)) & band) << lift
            if mask:
                repeated = mask.to_bytes(size, "little") * self.reps
                masks.append((bit, int.from_bytes(repeated, "little")))
        self.masks[x0] = masks
        return masks

    def _weighted_deficit(self, planes: tuple[int, ...], x0: int) -> int:
        """sum_v w_v * max(0, r - received_v) over the grid, for a frame
        whose band starts at row x0.

        Rows above the band are satisfied and rows below it receive
        nothing, so the sum is r times the weight of rows x0 and below, less
        sum_v w_v * min(r, received_v) over the band, which is sum_j sum_v
        w_v * [v in plane j]. Split by weight bit, that is one popcount per
        bit b of the stacked planes against b's band mask, repeated once per
        plane, times 2**b. The clock is read before each plane is stacked.
        """
        masks = self.masks[x0]
        if masks is None:
            masks = self._band_masks(x0)
        stride, reps, deadline = self.stride, self.reps, self.meter.deadline
        received = 0
        for start in range(0, len(planes), reps):
            stacked = 0
            for plane in planes[start : start + reps]:
                if deadline is not None and time.monotonic() > deadline:
                    raise BudgetExhaustedError(self.meter.nodes)
                stacked = (stacked << stride) | plane
            for bit, mask in masks:
                received += (stacked & mask).bit_count() << bit
        return self.owed_from[x0] - received

    def _rows(self, rows: int) -> int:
        """The grid cells of a band's first `rows` rows, at most min(4t-2, m)."""
        return self.full & ((1 << (self.lift + rows * self.width)) - 1)

    def _fit(self, rows: int) -> int:
        """A bound on the cells of `rows` grid rows pairwise at least 2t-1 apart.

        They are at most the cell count, and at most the cells of the rows
        widened by t-1 on every side over the 2t^2-2t+1 cells of a
        radius-(t-1) diamond, because the diamonds around them are disjoint
        and lie in the widened rows.
        """
        t, n = self.t, self.n
        return min(rows * n, (rows + 2 * t - 2) * (n + 2 * t - 2) // (2 * t * t - 2 * t + 1))

    def _packed(self, lacking: int, x0: int, slots: int) -> bool:
        """Whether the deficient cells of rows [x0, x0 + 4t - 2) need more
        than `slots` towers.

        The cells are picked greedily in row-major order, each at least
        2t-1 from the picks before it. No tower reaches two picks, so each
        needs a tower of its own, whatever r is. The picks are not made when
        the rows could not hold slots + 1 of them.
        """
        if slots >= self.fits[min(4 * self.t - 2, self.m - x0)]:
            return False
        far = self.far
        for _ in range(slots + 1):
            if not lacking:
                return False
            # Shift the pick to bit 0, then clear it and the cells near it.
            lacking = (lacking >> ((lacking & -lacking).bit_length() - 1)) & far
        return True

    def _root_representatives(self, ranked: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Keep the first-ranked candidate of each symmetry orbit."""
        names = _orbits(np.array([u for _, u in ranked], dtype=np.int64), self.m, self.n)
        first = np.unique(names, return_index=True)[1]
        return [ranked[i] for i in np.sort(first).tolist()]

    def _ranked(self, planes: tuple[int, ...], v: int, forbidden: set[int]) -> list[tuple[int, int]]:
        """(-gain, u) for each allowed u reaching v, sorted; gain is the deficiency repaired.

        The gain of u is the sum over k <= min(r, t) of the cells that lack
        at least k and that u sends at least k. Planes past the last are
        empty, so for k <= r - len(planes) the cells lacking k are the whole
        band, and for k <= t - box u's diamond is the whole box: those terms
        are one count times one popcount.
        """
        m, n, t, r, deadline = self.m, self.n, self.t, self.r, self.meter.deadline
        width, rows, top, stride = self.width, self.rows, self.top, self.stride
        x, y = divmod(v, n)
        band = self.band if x + self.height <= m else self._rows(m - x)
        empty = r - len(planes)
        same = max(min(top, empty, t - self.box), 0)
        # Stacking a term and computing a gain each cost up to min(r, t)
        # template-sized passes, so the clock is read before each: inline,
        # against the meter's deadline, since a call per gain costs time.
        lacking = 0
        for k in range(same + 1, top + 1):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhaustedError(self.meter.nodes)
            lacking = (lacking << stride) | (band & ~planes[r - k] if k > empty else band)
        stacked = self.stacked & ((1 << ((top - same) * stride)) - 1) if same else self.stacked
        box = self.dia[0]
        ranked = []
        for a in range(x - t + 1 if x >= t else 0, x + t if x + t < m else m):
            w = t - 1 - (x - a if a < x else a - x)
            lo, hi = (y - w if y > w else 0), (y + w + 1 if y + w < n else n)
            # The template of u = (a, b) is shifted by (a - x + R) * width + b.
            shift, u = (a - x + rows) * width + lo, a * n + lo
            for u in range(u, u + hi - lo):
                if u not in forbidden:
                    if deadline is not None and time.monotonic() > deadline:
                        raise BudgetExhaustedError(self.meter.nodes)
                    gain = (lacking & (stacked << shift)).bit_count()
                    if same:
                        gain += same * (band & (box << shift)).bit_count()
                    ranked.append((-gain, u))
                shift += 1
        ranked.sort()
        return ranked

    def _place(
        self, planes: tuple[int, ...], x0: int, u: int
    ) -> tuple[tuple[int, ...], int, int]:
        """The planes after a tower on u, the first deficient cell, and the
        deficient cells of rows [x0, x0 + 4t - 2).

        A cell reaches total j if it had j already, if u sends it j, or if
        it had j - s and u sends it at least s: the planes are nested, so
        the s that u sends exactly is among those terms, and no term adds a
        cell short of j. The planes are returned in the band of the
        deficient cell's row.
        """
        n, t, r, width, dia = self.n, self.t, self.r, self.width, self.dia
        a, b = divmod(u, n)
        shift = (a - x0 + self.rows) * width + b
        count = len(planes)
        total = r if count + t > r else count + t
        least, deadline = self.least, self.meter.deadline
        placed = []
        for j in range(1, total + 1):
            # A plane costs up to t template-sized passes; there are up to r.
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExhaustedError(self.meter.nodes)
            plane = planes[j - 1] if j <= count else 0
            if j <= t:
                plane |= dia[j - 1] << shift
            for s in range(j - count if j - count > least else least, j if j <= t else t + 1):
                plane |= planes[j - s - 1] & (dia[s - 1] << shift)
            placed.append(plane)
        lacking = self.region if x0 + 4 * t - 2 <= self.m else self._rows(self.m - x0)
        if total == r:
            lacking &= ~placed[-1]
        drop, column = divmod((lacking & -lacking).bit_length() - 1 - self.lift, width)
        if drop:
            placed = [plane >> (drop * width) for plane in placed]
        while placed and not placed[-1]:
            placed.pop()
        return tuple(placed), (x0 + drop) * n + column, lacking

    def run(self, slots: int, unit: int) -> list[int] | None:
        """The cells of a broadcast of at most `slots` towers, or None; `unit`
        is max_unit_coverage, and the caller has pruned a hopeless root.

        A frame is one branch point: its ranked children still to try, its
        band's first row, its planes, the deficit (the total shortfall,
        positive), its weighted deficit (0 without weights) and the towers
        left. Each child is counted as a node; one that covers the whole
        deficit, or leaves more than the remaining towers could repair, is
        decided from its gain without being placed, and so is one that the
        weighted screen refutes. Any other is placed and refuted if its
        weighted deficit or the packing bound says so; otherwise the frame
        of its subtree branches on the first deficient cell, which is at or
        after the parent's because cells before it are satisfied. Tried
        children stay forbidden until their frame is done.
        """
        n, tick, weights = self.n, self.meter.tick, self.weights
        # The weighted deficit of the root, its W and the heaviest weight
        # each cell reaches; without weights, 0 > 0 never prunes.
        if weights is None:
            owed, most, heaviest = 0, 0, []
        else:
            owed, most, heaviest = self.owed_from[0], weights.most, weights.heaviest
        # r >= 1, so the empty grid is deficient.
        deficit = self.r * self.m * n
        forbidden: set[int] = set()
        placed: list[int] = []
        # Only the root's candidates are reduced by the grid's symmetries.
        ranked = self._root_representatives(self._ranked((), 0, forbidden))
        frames = [(iter(ranked), ranked, 0, (), deficit, owed, slots)]
        while frames:
            children, ranked, x0, planes, deficit, owed, slots = frames[-1]
            for neg_gain, u in children:
                tick()
                left = deficit + neg_gain
                if left == 0:
                    return placed + [u]
                forbidden.add(u)
                if left <= (slots - 1) * unit:
                    # u repairs at most its gain times the heaviest weight
                    # it reaches: a child refuted by that bound is refuted
                    # by the weighted check below, and is not placed.
                    if weights is not None and owed + neg_gain * heaviest[u] > (slots - 1) * most:
                        continue
                    child, v, lacking = self._place(planes, x0, u)
                    child_owed = 0 if weights is None else self._weighted_deficit(child, v // n)
                    if child_owed > (slots - 1) * most:
                        continue
                    if self._packed(lacking, x0, slots - 1):
                        continue
                    placed.append(u)
                    ranked = self._ranked(child, v, forbidden)
                    frames.append(
                        (iter(ranked), ranked, v // n, child, left, child_owed, slots - 1)
                    )
                    break
            else:
                frames.pop()
                forbidden.difference_update([u for _, u in ranked])
                if placed:
                    placed.pop()
        return None


# The most grid cells _UpperBound evaluates in one batch.
_BATCH_CELLS = 1 << 16
# The most count * min(r, t) * (m*n)**2 of a gain contraction: below it one
# pass over the capped table beats the prefix sums' per-row numpy calls. The
# table, and the batch's minima against it, are int16 of at most
# 2 * _CONTRACT_MACS / min(r, t) bytes each.
_CONTRACT_MACS = 1 << 17
# Swaps per target size, and how many swaps a moved-out cell stays tabu.
_SWAP_CAP = 24
_TABU_SWAPS = 4
# Above any deficit: marks a tower that no cell may replace.
_NEVER = np.iinfo(np.int64).max


class _UpperBound:
    """A broadcast built by greedy placement, then shrunk by tabu swap descent.

    The received signal is one int64 field over the grid, and what a tower
    sends the grid is a slice of one int16 kernel. The gain of a tower on a
    cell is the sum over k <= min(r, t) of the cells lacking at least k
    within t-k of it. Every gain and loss is evaluated over the whole grid,
    in batches of at most _BATCH_CELLS cells. On small grids, when count *
    min(r, t) * (m*n)**2 is within _CONTRACT_MACS, a batch's gains are
    sum_v min(lacking_v, reach[u, v]) against the capped table reach[u, v]
    = min(signal(u, v), min(r, t)): int16, (m*n) x (m*n), and built from
    the kernel on the first such batch. Otherwise they are row segments
    from one prefix sum per k: for each tower out of a swap, at most min(r,
    t, m+n-2) prefix sums of 2*min(t, m)-1 segment rows each, so the memory
    per step is O(m * n). Both give the same integers, so the choice never
    changes a move.

    The greedy phase places the tower of largest gain until nothing lacks
    signal. Then each descent tries for one tower less: it drops the tower
    whose loss leaves the least deficit, then makes up to _SWAP_CAP swaps,
    each the one-out/one-in move that leaves the least deficit, until the
    deficit is 0. A cell a swap moves out may not move back in for the next
    _TABU_SWAPS swaps. Ties go to the lowest flat index, towers out before
    towers in. A descent fails when its swaps run out, when no cell may move
    in, or when a swap would return to a tower set it has already held. The
    search stops at the first failed descent, or at the lower bound.

    Every placement, drop and swap is one node, counted on the solve's
    meter before it is chosen, and the meter's deadline is checked before
    each of them, before each batch of losses, before each contraction and
    before each row of segments, one pass over a batch.
    """

    def __init__(self, dims: GridDims, params: BroadcastParams, meter: _Meter):
        m, n, t, r = self.m, self.n, self.t, self.r = dims.m, dims.n, params.t, params.r
        self.meter = meter
        self.best: list[int] | None = None
        self.field = np.zeros((m, n), dtype=np.int64)
        self.sent = _sent(dims, t)
        self.deficit = r * m * n
        self.towers = np.zeros(m * n, dtype=bool)
        self.batch = max(1, _BATCH_CELLS // (m * n))
        self.reach: np.ndarray | None = None

    def _gains(self, lacking: np.ndarray) -> np.ndarray:
        """The capped gain of a tower on each grid cell, for each of a batch
        of grids given what each cell lacks: one contraction when its
        multiply-adds are within _CONTRACT_MACS, else prefix sums. A diamond
        of radius m+n-2 or more is the whole grid wherever its centre is, so
        the prefix sums' terms k <= t - (m+n-2) are one count per grid."""
        count, m, n = lacking.shape
        top, same = min(self.r, self.t), max(min(self.r, self.t - (m + n - 2)), 0)
        if count * top * (m * n) ** 2 <= _CONTRACT_MACS:
            return self._contracted(lacking, top)
        total = np.zeros(lacking.shape, dtype=np.int64)
        if same:
            total += np.minimum(lacking, same).sum(axis=(1, 2))[:, None, None]
        for k in range(same + 1, top + 1):
            radius = self.t - k
            rows, cols = min(radius, m - 1), min(radius, n)
            # prefix[:, rows + a, cols + b] counts the cells of grid row a
            # before column b that lack k, for b in [0, n]; it is 0 to the
            # left of the grid and the row's count to the right, and it
            # never exceeds n < 2**31.
            prefix = np.zeros((count, m + 2 * rows, n + 1 + 2 * cols), dtype=np.int32)
            inner = prefix[:, rows : rows + m]
            np.cumsum(lacking >= k, axis=2, out=inner[:, :, cols + 1 : cols + 1 + n])
            inner[:, :, cols + 1 + n :] = inner[:, :, cols + n : cols + n + 1]
            # Rows dx and -dx from the tower take segments of one half-width;
            # the clock is read before each, a pass over the batch.
            for dx in range(rows + 1):
                self.meter.check()
                half = min(radius - dx, n)
                band = prefix[:, rows + dx : rows + dx + m]
                if dx:
                    band = band + prefix[:, rows - dx : rows - dx + m]
                total += band[:, :, cols + half + 1 : cols + half + 1 + n]
                total -= band[:, :, cols - half : cols - half + n]
        return total

    def _contracted(self, lacking: np.ndarray, top: int) -> np.ndarray:
        """_gains as sum_v min(lacking_v, reach[u, v]) against the capped
        table reach[u, v] = min(signal(u, v), top), int16 and built on the
        first call. A tower repairs min(lacking_v, signal(u, v)) of cell v,
        and no cell lacks more than r, so capping both at top changes no
        term. The batch is capped before its int16 cast: r may not fit. A
        gain is at most m*n*top <= _CONTRACT_MACS, so int32 sums hold it."""
        count, m, n = lacking.shape
        if self.reach is None:
            self.reach = np.minimum(self.sent[::-1, ::-1].reshape(m * n, m * n), top)
        self.meter.check()
        capped = np.minimum(lacking, top).astype(np.int16).reshape(count, 1, m * n)
        return np.minimum(capped, self.reach).sum(axis=2, dtype=np.int32).reshape(lacking.shape)

    def _move(self, cell: int, sign: int) -> None:
        """Place (sign 1) or remove (sign -1) the tower on `cell`."""
        x, y = divmod(cell, self.n)
        if sign > 0:
            self.field += self.sent[self.m - 1 - x, self.n - 1 - y]
        else:
            self.field -= self.sent[self.m - 1 - x, self.n - 1 - y]
        self.towers[cell] = sign > 0

    def _greedy(self) -> None:
        """Place the tower of largest gain until nothing lacks signal."""
        while self.deficit:
            gain = self._gains(np.maximum(self.r - self.field, 0)[None]).ravel()
            self.meter.tick()
            u = int(np.argmax(np.where(self.towers, -1, gain)))
            self.deficit -= int(gain[u])
            self._move(u, 1)
        self.best = np.flatnonzero(self.towers).tolist()

    def _losses(self, towers: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """For each tower of a batch: the deficit its removal adds, and what
        each grid cell then lacks."""
        self.meter.check()
        x, y = np.divmod(np.array(towers), self.n)
        lacking = self.r - self.field
        without = np.maximum(lacking + self.sent[self.m - 1 - x, self.n - 1 - y], 0)
        return (without - np.maximum(lacking, 0)).sum(axis=(1, 2)), without

    def _swap(self, towers: list[int], banned: np.ndarray) -> tuple[int, int, int] | None:
        """The swap (deficit left, tower out, cell in) that leaves the least
        deficit, or None if no cell may move in."""
        best = None
        for i in range(0, len(towers), self.batch):
            loss, without = self._losses(towers[i : i + self.batch])
            gains = np.where(banned, -1, self._gains(without).reshape(len(loss), -1))
            cells = gains.argmax(axis=1)
            gains = gains[np.arange(len(loss)), cells]
            left = np.where(gains < 0, _NEVER, self.deficit + loss - gains)
            j = int(left.argmin())
            if gains[j] >= 0 and (best is None or left[j] < best[0]):
                best = (int(left[j]), towers[i + j], int(cells[j]))
        return best

    def _descend(self) -> bool:
        """Try for a broadcast of one tower less than the best; True if found."""
        towers = list(self.best)
        self.meter.tick()
        loss = np.concatenate(
            [self._losses(towers[i : i + self.batch])[0] for i in range(0, len(towers), self.batch)]
        )
        drop = towers.pop(int(loss.argmin()))
        self.deficit += int(loss.min())
        self._move(drop, -1)
        tabu: dict[int, int] = {}
        seen = {tuple(towers)}
        for swap in range(_SWAP_CAP):
            if not self.deficit:
                break
            self.meter.tick()
            banned = self.towers.copy()
            banned[[c for c, until in tabu.items() if until >= swap]] = True
            chosen = self._swap(towers, banned)
            if chosen is None:
                return False
            deficit, out, into = chosen
            towers = sorted([c for c in towers if c != out] + [into])
            if tuple(towers) in seen:
                return False
            seen.add(tuple(towers))
            self.deficit = deficit
            self._move(out, -1)
            self._move(into, 1)
            tabu[out] = swap + _TABU_SWAPS
        if self.deficit:
            return False
        self.best = towers
        return True

    def run(self, lower: int) -> None:
        """Set `best` to the smallest broadcast found; no descent aims below
        the lower bound."""
        self._greedy()
        while len(self.best) > lower and self._descend():
            pass


def find_broadcast_of_size(
    dims: GridDims,
    params: BroadcastParams,
    k: int,
    budget: SearchBudget | None = None,
) -> tuple[TowerSet | None, int]:
    """Complete search for a valid broadcast of at most k towers.

    Returns (witness, nodes_expanded); the witness is None when no broadcast
    of size k exists, which doubles as an optimality certificate for k+1 and
    above. The budget becomes the level's meter first, so its seconds cover
    the root prune, the LP and the search's setup as well as its nodes. A level whose
    root is pruned (r*m*n > k * max_unit_coverage) returns (None, 0) before
    any search state is built. Otherwise the fractional-broadcast LP is
    solved for the weighted prune (exact_gamma hands its levels the weights
    it solved once, and its own meter, instead). Raises
    BudgetExhaustedError (carrying the node count) if the budget runs out
    before the level is decided. Every witness is re-checked with
    check_broadcast first; one that fails raises SolverInvariantError.
    """
    level = isinstance(budget, _LevelBudget)
    meter = budget.meter if level else _Meter(budget or SearchBudget())
    start = meter.nodes
    if k < 0:
        raise ValueError(f"tower count k must be >= 0, got {k}")
    unit = max_unit_coverage(dims, params)
    if params.r * dims.m * dims.n > k * unit:
        return None, 0
    weights = budget.weights if level else _lp_bound(dims, params, meter.deadline)[1]
    found = _Search(dims, params, meter, weights).run(k, unit)
    witness = None if found is None else _checked(dims, params, found, "solver's", "witness")
    return witness, meter.nodes - start


def exact_gamma(
    dims: GridDims,
    params: BroadcastParams,
    budget: SearchBudget | None = None,
) -> SolveResult:
    """The minimum size of a (t,r) broadcast, with a witness.

    Witness first: a greedy placement shrunk by tabu swap descent gives a
    broadcast of U towers, which check_broadcast must accept before U is
    used. The complete search then runs only at level U-1: a refuted level
    certifies that U is optimal, and a witness found there becomes the new
    U, one level lower. No level below the lower bound is searched, and the
    swap search aims no lower, so a U at the bound is optimal without any
    search. The budget covers the whole solve: the first step makes it one
    meter, whose deadline the LP behind the lower bound checks before each
    pivot. The upper-bound search counts its placements, drops and swaps on
    that meter, and each level runs on it too, so a level gets the nodes
    left before it and the same deadline, with the LP's weights for its
    weighted prune.

    The lower bound is the larger of the deficit bound ceil(r*m*n /
    max_unit_coverage) and the certified weighted bound ceil(r * sum(w) / W)
    of the LP's weights, sound for every r and every w >= 0 by the module
    docstring's proof. The LP is skipped on grids of more than _LP_CLASSES
    classes, and a run out of clock or a W of 0 leaves the deficit bound,
    which w = 1 reproduces. A lower bound above the verified U raises
    SolverInvariantError. The result's certificate says what proves gamma:
    "lp" or "bound" when it equals the lower bound (above the deficit bound,
    or at it), "refuted" when level gamma - 1 was refuted.

    A broadcast exists iff towers on every vertex are one. With towers
    everywhere, vertex (x, y) receives the sum of t - |x-a| - |y-b| over the
    towers (a, b) within reach. Per axis the distances from a corner are 0,
    1, ..., m-1, and from any x the i-th smallest distance is at most i,
    because at least min(i+1, m) positions lie within distance i of x. Signal
    falls with distance, so pairing distances in sorted order shows no vertex
    receives less than a corner: the grid is valid iff (0, 0) receives r.
    Only towers with a < t and b < t reach (0, 0), and by symmetry the tower
    on (a, b) sends (0, 0) what a tower on (0, 0) sends (a, b). So (0, 0)
    receives the signal of one tower on (0, 0) summed over the grid. Capping
    each term at r changes no answer: a term of r or more takes both sums to
    at least r, and otherwise the two sums are equal.
    """
    meter = _Meter(budget or SearchBudget())
    if _coverage(dims, params, 0, 0) < params.r:
        raise ValueError(
            f"no ({params.t},{params.r}) broadcast exists on {dims.m}x{dims.n}: "
            "even towers on every vertex fall short"
        )
    deficit_bound = -(-params.r * dims.m * dims.n // max_unit_coverage(dims, params))
    lp_bound, weights = _lp_bound(dims, params, meter.deadline)
    lower = max(deficit_bound, lp_bound)
    search = _UpperBound(dims, params, meter)
    try:
        search.run(lower)
        exhausted = False
    except BudgetExhaustedError:
        exhausted = True
    witness = None
    if search.best is not None:
        witness = _checked(dims, params, search.best, "upper-bound search's", "set")
        if len(witness) < lower:
            raise SolverInvariantError(
                f"the lower bound {lower} on {dims.m}x{dims.n} exceeds the verified "
                f"{len(witness)}-tower ({params.t},{params.r}) broadcast"
            )
    upper_nodes = nodes = meter.nodes
    levels, certificate = [], None
    while not exhausted and certificate is None:
        k = len(witness) - 1
        if k < lower:
            certificate = "lp" if lower > deficit_bound else "bound"
        elif meter.nodes >= meter.cap or meter.late():
            exhausted = True
        else:
            start = meter.nodes
            try:
                found, spent = find_broadcast_of_size(dims, params, k, _LevelBudget(meter, weights))
            except BudgetExhaustedError:
                found, spent, exhausted = None, meter.nodes - start, True
            nodes += spent
            levels.append((k, spent))
            if found is not None:
                witness = found
            elif not exhausted:
                certificate = "refuted"
    # upper is the smallest verified broadcast so far: the last witness.
    upper = None if witness is None else len(witness)
    return SolveResult(
        "budget_exhausted" if exhausted else "optimal",
        None if exhausted else upper,
        None if exhausted else witness,
        nodes, tuple(levels), lower, upper, upper_nodes, certificate,
    )


def _checked(
    dims: GridDims, params: BroadcastParams, cells: list[int], who: str, what: str
) -> TowerSet:
    """The towers on `cells`, accepted by check_broadcast, or
    SolverInvariantError naming the search (`who`) and the set (`what`)."""
    towers = TowerSet(np.array(np.divmod(cells, dims.n)).T.reshape(-1, 2))
    if not check_broadcast(dims, params, towers).valid:
        raise SolverInvariantError(
            f"the {who} {len(towers)}-tower {what} on {dims.m}x{dims.n} "
            f"is not a ({params.t},{params.r}) broadcast"
        )
    return towers
