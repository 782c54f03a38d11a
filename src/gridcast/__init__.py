"""Broadcast domination toolkit for finite grid graphs.

Builds (t,2) broadcasts from periodic tower patterns, verifies candidate
broadcasts, evaluates closed-form upper and lower bounds, and solves small
instances exactly with a budgeted complete search.
"""

__version__ = "0.1.0"

from .bounds import (
    BlessingBounds,
    BoundReport,
    blessing_bounds,
    bound_report,
    chang_bound,
    grez_bound,
    lower_t2,
    lower_t2_raw,
    upper_t2,
)
from .construct import (
    ConstructionInvariantError,
    ConstructionResult,
    Embedding,
    anchor_raw_counts,
    best_anchor_construct,
    clamp_to_grid,
    construct,
    embedding,
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
    manhattan_dist,
    signal,
    signal_field,
)
from .lattice import (
    DiamondLattice,
    PatternVerdict,
    count_in_window,
    fundamental_domain_vertices,
    lattice_contains,
    rectilinear_lattice,
    towers_in_window,
    validate_pattern,
    window_density,
)
from .render import document_verdict, render_ascii, render_svg
from .solver import (
    BudgetExhaustedError,
    SearchBudget,
    SolveResult,
    exact_gamma,
    find_broadcast_of_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
