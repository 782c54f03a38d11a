"""The exact solver's search budget.

It is a module of its own so that the CLI checks a budget's arguments
without loading the solver, and without importing this frozen dataclass
(about half a millisecond to define) into the commands that never solve.
gridcast.solver re-exports both names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The solver's node cap when a budget names none.
DEFAULT_MAX_NODES = 10_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Caps on node expansions and, optionally, wall-clock seconds.

    Passed to exact_gamma, they bound the whole solve; passed to
    find_broadcast_of_size, one level. Either entry turns the seconds into
    one deadline as its first step, and every phase after it (the root
    prune, the LP, the swap search, each level's setup and search) runs to
    that deadline.
    """

    max_nodes: int = DEFAULT_MAX_NODES
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.max_seconds is not None and not (
            math.isfinite(self.max_seconds) and self.max_seconds > 0
        ):
            raise ValueError(f"max_seconds must be finite and > 0, got {self.max_seconds}")
