"""The package's public names, and which commands load the solver."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridcast

PUBLIC_NAMES = [
    "BlessingBounds", "BoundReport", "BroadcastDocument", "BroadcastParams",
    "BroadcastVerdict", "BudgetExhaustedError", "ConstructionInvariantError",
    "ConstructionResult", "Coord", "DiamondLattice", "DocumentError", "GridDims",
    "PatternVerdict", "SearchBudget", "SolveResult", "SolverInvariantError", "TowerSet",
    "anchor_raw_counts", "best_anchor_construct", "blessing_bounds", "bound_report",
    "bounds", "check_broadcast", "construct", "count_in_window", "document",
    "document_verdict", "exact_gamma", "find_broadcast_of_size", "grid", "lattice",
    "letterbox_construct", "load_document", "lower_t2", "parse_document",
    "path_construct", "rectilinear_lattice", "render", "render_ascii", "render_svg",
    "serialize_document", "signal_field", "solver", "towers_in_window", "upper_t2",
    "validate_pattern", "window_density",
]

# Runs in a fresh interpreter: every command but exact must leave the solver
# unloaded, and exact must load it; the package then reads its names from it.
IMPORT_CONTRACT = """
import sys
from contextlib import redirect_stdout
from io import StringIO

import gridcast
import gridcast.cli

doc = sys.argv[1]
commands = [
    ["construct", "--m", "12", "--n", "6", "--t", "4", "--out", doc],
    ["verify", doc],
    ["render", doc],
    ["render", doc, "--format", "svg"],
    ["bounds", "--m", "12", "--n", "6", "--t", "4"],
    ["density", "--t", "3", "--side", "8"],
]
with redirect_stdout(StringIO()):
    for argv in commands:
        assert gridcast.cli.main(argv) == 0, argv
        assert "gridcast.solver" not in sys.modules, argv
    assert gridcast.cli.main(["exact", "--m", "3", "--n", "3", "--t", "3", "--r", "2"]) == 0
assert "gridcast.solver" in sys.modules
assert gridcast.exact_gamma is sys.modules["gridcast.solver"].exact_gamma
"""


def test_only_exact_loads_the_solver(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CONTRACT, str(tmp_path / "b.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_public_names():
    assert sorted(gridcast.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from gridcast import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(gridcast, name)


def test_solver_names_are_the_solver_module_attributes():
    from gridcast import solver

    assert gridcast.solver is solver
    assert gridcast.exact_gamma is solver.exact_gamma
    assert gridcast.SearchBudget is solver.SearchBudget


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gridcast.no_such_name  # noqa: B018
