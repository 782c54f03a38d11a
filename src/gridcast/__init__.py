"""Broadcast domination toolkit for finite grid graphs.

Builds (t,2) broadcasts from periodic tower patterns, verifies candidate
broadcasts, evaluates closed-form upper and lower bounds, and solves small
instances exactly with a budgeted complete search.

The solver loads on first use: its names (and the ``solver`` submodule) are
resolved by the module ``__getattr__`` below the first time one is read. It
is the largest module and only the ``exact`` and ``sweep`` commands use it,
so ``construct``, ``verify`` and the others never compile or run it.
"""

__version__ = "0.1.0"

from .bounds import (
    BlessingBounds,
    BoundReport,
    blessing_bounds,
    bound_report,
    lower_t2,
    upper_t2,
)
from .construct import (
    ConstructionInvariantError,
    ConstructionResult,
    anchor_raw_counts,
    best_anchor_construct,
    construct,
    letterbox_construct,
    path_construct,
)
from .document import (
    BroadcastDocument,
    DocumentError,
    load_document,
    parse_document,
    serialize_document,
)
from .grid import (
    BroadcastParams,
    BroadcastVerdict,
    Coord,
    GridDims,
    TowerSet,
    check_broadcast,
    signal_field,
)
from .lattice import (
    DiamondLattice,
    PatternVerdict,
    count_in_window,
    rectilinear_lattice,
    towers_in_window,
    validate_pattern,
    window_density,
)
from .render import document_verdict, render_ascii, render_svg

_SOLVER_NAMES = (
    "BudgetExhaustedError",
    "SearchBudget",
    "SolveResult",
    "SolverInvariantError",
    "exact_gamma",
    "find_broadcast_of_size",
)


def __getattr__(name: str):
    # Called only for names not yet bound here (PEP 562): the first read of a
    # solver name imports the solver, which also binds ``solver`` here.
    # (``from . import solver`` here would recurse through this hook).
    if name != "solver" and name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    solver = import_module(".solver", __name__)
    if name == "solver":
        return solver
    value = globals()[name] = getattr(solver, name)
    return value


# The submodules are public names too; ``construct`` is the function.
__all__ = [
    "bounds", "document", "grid", "lattice", "render", "solver",
    "BlessingBounds", "BoundReport", "blessing_bounds", "bound_report", "lower_t2", "upper_t2",
    "ConstructionInvariantError", "ConstructionResult", "anchor_raw_counts",
    "best_anchor_construct", "construct", "letterbox_construct", "path_construct",
    "BroadcastDocument", "DocumentError", "load_document", "parse_document",
    "serialize_document",
    "BroadcastParams", "BroadcastVerdict", "Coord", "GridDims", "TowerSet", "check_broadcast",
    "signal_field",
    "DiamondLattice", "PatternVerdict", "count_in_window", "rectilinear_lattice",
    "towers_in_window", "validate_pattern", "window_density",
    "document_verdict", "render_ascii", "render_svg",
    *_SOLVER_NAMES,
]
