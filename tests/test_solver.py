"""Exact solver: level searches, the witness-first schedule, budgets, oracle checks."""

import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import (
    BroadcastParams,
    BudgetExhaustedError,
    Coord,
    GridDims,
    SearchBudget,
    TowerSet,
    check_broadcast,
    construct,
    exact_gamma,
    find_broadcast_of_size,
    lower_t2,
)
from gridcast import solver
from gridcast.solver import max_unit_coverage
from naive_oracle import (
    coverage_matrix,
    naive_gamma,
    naive_signal_totals,
    naive_weighted_coverage,
    naive_weighted_deficit,
)

SEARCH_TREES = Path(__file__).parent / "data" / "solver_tree.txt"
LEVEL_SEARCHES = Path(__file__).parent / "data" / "solver_levels.txt"


def _frozen_trees() -> dict[tuple[int, int], list[tuple]]:
    """The rows of the search-tree table, grouped by grid shape."""
    rows: dict[tuple[int, int], list[tuple]] = {}
    for line in SEARCH_TREES.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        m, n, t, r, cap, status, nodes, witness = line.split()
        rows.setdefault((int(m), int(n)), []).append(
            (int(t), int(r), int(cap), (status, int(nodes), witness))
        )
    return rows


FROZEN_TREES = _frozen_trees()


def _frozen_levels() -> dict[tuple[int, int], list[tuple]]:
    """The rows of the level-search table, grouped by grid shape."""
    rows: dict[tuple[int, int], list[tuple]] = {}
    for line in LEVEL_SEARCHES.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        m, n, t, r, k, nodes, witness = line.split()
        rows.setdefault((int(m), int(n)), []).append(
            (int(t), int(r), int(k), (int(nodes), witness))
        )
    return rows


FROZEN_LEVELS = _frozen_levels()


def _witness_text(witness: TowerSet | None) -> str:
    if witness is None:
        return "-"
    return ";".join(f"{x},{y}" for x, y in witness.xy.tolist())


class TestFindBroadcastOfSize:
    def test_single_tower_path(self):
        witness, _ = find_broadcast_of_size(GridDims(5, 1), BroadcastParams(4, 2), 1)
        assert witness == TowerSet([Coord(2, 0)])

    def test_empty_set_never_suffices(self):
        witness, nodes = find_broadcast_of_size(GridDims(5, 1), BroadcastParams(4, 2), 0)
        assert witness is None
        assert nodes == 0

    def test_one_tower_cannot_cover_3x3(self):
        witness, _ = find_broadcast_of_size(GridDims(3, 3), BroadcastParams(3, 2), 1)
        assert witness is None

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            find_broadcast_of_size(GridDims(2, 2), BroadcastParams(3, 2), -1)

    def test_budget_error_carries_node_count(self):
        with pytest.raises(BudgetExhaustedError) as exc_info:
            find_broadcast_of_size(
                GridDims(4, 4), BroadcastParams(3, 2), 3, SearchBudget(max_nodes=2)
            )
        assert exc_info.value.nodes_expanded == 2


class TestExactGamma:
    @pytest.mark.parametrize(
        "m,n,t,r,expected",
        [(5, 1, 4, 2, 1), (17, 1, 4, 2, 3), (3, 3, 3, 2, 2), (1, 1, 3, 2, 1)],
    )
    def test_known_values(self, m, n, t, r, expected):
        result = exact_gamma(GridDims(m, n), BroadcastParams(t, r))
        assert result.status == "optimal"
        assert result.gamma == expected

    def test_witnesses_are_deterministic(self):
        # The swap search stops at 5 towers on 5x5, so level 4 finds the witness.
        first = exact_gamma(GridDims(5, 5), BroadcastParams(3, 2))
        second = exact_gamma(GridDims(5, 5), BroadcastParams(3, 2))
        assert first.level_nodes == ((4, 10),)
        assert first.witness == second.witness == TowerSet(
            [Coord(0, 2), Coord(2, 0), Coord(2, 4), Coord(4, 2)]
        )

    def test_path_witness_matches_construction(self):
        result = exact_gamma(GridDims(17, 1), BroadcastParams(4, 2))
        assert result.witness == TowerSet([Coord(2, 0), Coord(8, 0), Coord(14, 0)])

    def test_budget_exhaustion_reported(self):
        result = exact_gamma(
            GridDims(3, 3), BroadcastParams(3, 2), SearchBudget(max_nodes=2)
        )
        assert result.status == "budget_exhausted"
        assert result.gamma is None
        assert result.witness is None
        assert result.nodes_expanded >= 2

    def test_wall_clock_budget(self, monkeypatch):
        # A clock that advances 1 s per reading runs out before any node.
        clock = SimpleNamespace(now=0.0)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        result = exact_gamma(
            GridDims(6, 6), BroadcastParams(3, 2), SearchBudget(max_seconds=1.5)
        )
        assert (result.status, result.nodes_expanded) == ("budget_exhausted", 0)

    def test_only_the_witness_is_checked_and_built(self, monkeypatch):
        built = []
        original_init = Coord.__init__

        def counted(self, x, y):
            built.append((x, y))
            original_init(self, x, y)

        seen = []
        original = solver.check_broadcast

        def recorded(dims, params, towers):
            seen.append((dims, towers))
            return original(dims, params, towers)

        # Every Coord made anywhere during a solve is counted.
        monkeypatch.setattr(Coord, "__init__", counted)
        monkeypatch.setattr(solver, "check_broadcast", recorded)
        for m, n, t in [(3, 4, 3), (6, 7, 4)]:
            seen.clear()
            result = exact_gamma(GridDims(m, n), BroadcastParams(t, 2))
            assert result.status == "optimal"
            # Existence needs no verifier call: check_broadcast checks the
            # upper bound's broadcast, here the witness, and nothing else.
            assert result.upper == result.gamma
            assert seen == [(GridDims(m, n), result.witness)]
        # On 5x5 the swap search stops at 5 and level 4 finds the witness:
        # each of the two broadcasts is checked once.
        seen.clear()
        result = exact_gamma(GridDims(5, 5), BroadcastParams(3, 2))
        assert (result.gamma, result.upper, result.level_nodes, len(seen)) == (4, 4, ((4, 10),), 2)
        assert len(seen[0][1]) == 5 and seen[1] == (GridDims(5, 5), result.witness)
        # Both broadcasts' towers come from arrays: no solve makes a Coord,
        # neither per vertex nor per tower of a witness.
        assert built == []

    @pytest.mark.parametrize("m,n,t,r", [(3, 4, 3, 2), (6, 7, 4, 2), (40, 30, 12, 5)])
    def test_existence_check_reads_one_tower(self, monkeypatch, m, n, t, r):
        fields = []
        original = solver.signal_field

        def recorded(dims, t, towers):
            fields.append((dims, len(towers)))
            return original(dims, t, towers)

        monkeypatch.setattr(solver, "signal_field", recorded)
        exact_gamma(GridDims(m, n), BroadcastParams(t, r), SearchBudget(max_nodes=1))
        # The existence check reads the first field, max_unit_coverage the
        # others; each holds a single tower.
        assert fields[0] == (GridDims(min(m, t), min(n, t)), 1)
        assert {count for _, count in fields} == {1}

    def test_existence_check_does_not_grow_with_t_squared(self):
        # The deficit bound is 2 and two greedy placements cover the grid,
        # so the swap search alone is optimal and no level is searched.
        start = time.perf_counter()
        result = exact_gamma(GridDims(300, 300), BroadcastParams(300, 2))
        assert time.perf_counter() - start < 3.0
        assert (result.status, result.gamma, result.upper_nodes) == ("optimal", 2, 2)
        assert result.level_nodes == ()

    def test_large_strength_level_stops_on_the_seconds(self):
        # Level 2, the deficit bound, ranks about 45 000 root candidates of
        # megabit templates (12 s unbudgeted to its first node): the clock
        # read before each gain ends it within the half second.
        start = time.perf_counter()
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(
                GridDims(300, 300), BroadcastParams(300, 2), 2, SearchBudget(max_seconds=0.5)
            )
        assert time.perf_counter() - start < 3.0
        assert exhausted.value.nodes_expanded == 0

    def test_deep_search_is_not_limited_by_recursion(self):
        # A level of 2800 towers on 150x150 (the deficit bound is 2500) keeps
        # one frame per placement, thousands deep.
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(
                GridDims(150, 150), BroadcastParams(3, 2), 2800, SearchBudget(max_nodes=3000)
            )
        assert exhausted.value.nodes_expanded == 3000

    def test_upper_bound_placements_spend_the_budget(self):
        # The greedy placements of a 150x150 broadcast are nodes too: they
        # spend the whole budget before any level is searched.
        result = exact_gamma(
            GridDims(150, 150), BroadcastParams(3, 2), SearchBudget(max_nodes=3000)
        )
        assert (result.status, result.nodes_expanded, result.upper_nodes) == (
            "budget_exhausted", 3000, 3000
        )
        assert (result.lower, result.upper, result.level_nodes) == (2500, None, ())

    def test_invalid_witness_is_refused(self, monkeypatch):
        # A search that claims one tower in the corner covers the grid. On
        # 6x6, t=3, r=3 the swap search stops at 9 above the lower bound 8,
        # so level 8 is searched.
        monkeypatch.setattr(solver._Search, "run", lambda self, slots, unit: [0])
        with pytest.raises(solver.SolverInvariantError, match="is not a \\(3,3\\) broadcast"):
            exact_gamma(GridDims(6, 6), BroadcastParams(3, 3))

    @pytest.mark.parametrize("cells", [[0], [5, 40, 47]])
    def test_invalid_upper_bound_is_refused(self, monkeypatch, cells):
        # An upper-bound search that claims fewer towers than gamma = 8 cover
        # 6x8: the verifier refuses them before they bound anything, so no
        # smaller "optimal" comes out.
        def claimed(self, lower):
            self.best = cells

        monkeypatch.setattr(solver._UpperBound, "run", claimed)
        searched = []
        monkeypatch.setattr(
            solver, "find_broadcast_of_size", lambda *args: searched.append(args)
        )
        message = f"upper-bound search's {len(cells)}-tower set on 6x8 is not a \\(3,2\\) broadcast"
        with pytest.raises(solver.SolverInvariantError, match=message):
            exact_gamma(GridDims(6, 8), BroadcastParams(3, 2))
        assert searched == []

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        t=st.integers(1, 6),
        r=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_corner_box_decides_existence_like_the_full_grid(self, m, n, t, r):
        dims, params = GridDims(m, n), BroadcastParams(t, r)
        every_vertex = TowerSet([Coord(x, y) for x in range(m) for y in range(n)])
        exists = check_broadcast(dims, params, every_vertex).valid
        try:
            exact_gamma(dims, params, SearchBudget(max_nodes=1))
        except ValueError as refused:
            assert not exists
            assert str(refused) == (
                f"no ({t},{r}) broadcast exists on {m}x{n}: "
                "even towers on every vertex fall short"
            )
        else:
            assert exists

    @pytest.mark.parametrize("t", [127, 128])
    @pytest.mark.parametrize("extra", [0, 1, 2**80])
    def test_existence_check_at_the_int8_boundary(self, t, extra):
        # On 2x2 towers everywhere give each vertex t + 2(t - 1) + (t - 2):
        # r = 4t - 4 needs all four, one more has no broadcast. The corner's
        # one-tower field is int8 at t = 127 and int16 at t = 128.
        dims, params = GridDims(2, 2), BroadcastParams(t, 4 * t - 4 + extra)
        every_vertex = TowerSet([Coord(x, y) for x in range(2) for y in range(2)])
        assert check_broadcast(dims, params, every_vertex).valid == (not extra)
        if extra:
            with pytest.raises(ValueError, match="even towers on every vertex fall short"):
                exact_gamma(dims, params)
        else:
            result = exact_gamma(dims, params)
            assert (result.status, result.gamma, result.witness) == (
                "optimal", 4, every_vertex
            )

    def test_infeasible_parameters_rejected(self):
        # strength 1 cannot deliver 2 signal anywhere, whatever the set
        with pytest.raises(ValueError, match="no .* broadcast exists"):
            exact_gamma(GridDims(2, 2), BroadcastParams(1, 2))

    @pytest.mark.parametrize("m,n", [(1, 7), (2, 3), (3, 3), (4, 2), (4, 4)])
    @pytest.mark.parametrize("t,r", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
    def test_matches_naive_enumeration(self, m, n, t, r):
        result = exact_gamma(GridDims(m, n), BroadcastParams(t, r))
        assert result.status == "optimal"
        assert result.gamma == naive_gamma(m, n, t, r)

    # Each of these grids has a child that the packing bound refutes in the
    # level searches from level 0 up to gamma; the last six have r > t.
    @pytest.mark.parametrize(
        "m,n,t,r",
        [
            (3, 5, 3, 2),
            (5, 5, 4, 2),
            (4, 4, 2, 2),
            (3, 4, 3, 3),
            (4, 5, 4, 3),
            (4, 4, 2, 3),
            (3, 3, 2, 3),
            (2, 5, 2, 3),
            (3, 4, 2, 3),
            (3, 4, 3, 4),
            (4, 4, 3, 4),
        ],
    )
    def test_matches_naive_enumeration_where_the_packing_bound_refutes(
        self, monkeypatch, m, n, t, r
    ):
        refuted = []
        original = solver._Search._packed

        def recorded(self, lacking, x0, slots):
            refuted.append(original(self, lacking, x0, slots))
            return refuted[-1]

        monkeypatch.setattr(solver._Search, "_packed", recorded)
        gamma = 0
        while find_broadcast_of_size(GridDims(m, n), BroadcastParams(t, r), gamma)[0] is None:
            gamma += 1
        assert gamma == naive_gamma(m, n, t, r)
        assert any(refuted)

    @pytest.mark.parametrize("m,n,t", [(4, 4, 3), (5, 5, 3), (6, 6, 4), (5, 3, 4)])
    def test_sandwich_between_bounds(self, m, n, t):
        dims = GridDims(m, n)
        result = exact_gamma(dims, BroadcastParams(t, 2))
        assert result.status == "optimal"
        assert lower_t2(m, n, t) <= result.gamma <= len(construct(dims, t))

    @pytest.mark.parametrize("m,n,t,r", [(4, 4, 3, 2), (5, 2, 4, 2), (3, 3, 2, 2)])
    def test_witness_passes_verifier(self, m, n, t, r):
        result = exact_gamma(GridDims(m, n), BroadcastParams(t, r))
        assert check_broadcast(GridDims(m, n), BroadcastParams(t, r), result.witness).valid

    def test_starts_below_the_r1_optimum(self):
        # the (t,2) lower bound does not apply when r=1: here gamma is 4
        # while the r=2 bound would have started the search at 5
        result = exact_gamma(GridDims(6, 6), BroadcastParams(3, 1))
        assert result.gamma == naive_gamma(6, 6, 3, 1) == 4
        assert result.gamma < lower_t2(6, 6, 3)


class TestSolveWideBudget:
    """One SearchBudget bounds the whole solve: the upper-bound search and
    every level after it."""

    def test_node_cap_spans_levels(self):
        # Unbudgeted, the upper bound takes 51 nodes to reach gamma = 17 and
        # refuting level 16 takes 17 733 (the lower bound is 15).
        result = exact_gamma(
            GridDims(4, 9), BroadcastParams(2, 2), SearchBudget(max_nodes=17783)
        )
        assert (result.status, result.nodes_expanded) == ("budget_exhausted", 17783)
        assert (result.upper_nodes, result.level_nodes) == (51, ((16, 17732),))

    # 6x6, t=3, r=3: the upper bound takes 55 nodes to reach gamma = 9, one
    # above the lower bound 8, and refuting level 8 takes 308.
    @pytest.mark.parametrize(
        "max_nodes,status,nodes",
        [
            (363, "optimal", 363),
            (362, "budget_exhausted", 362),
            (56, "budget_exhausted", 56),
            (55, "budget_exhausted", 55),
            (54, "budget_exhausted", 54),
        ],
    )
    def test_node_cap_boundaries(self, max_nodes, status, nodes):
        result = exact_gamma(
            GridDims(6, 6), BroadcastParams(3, 3), SearchBudget(max_nodes=max_nodes)
        )
        assert (result.status, result.nodes_expanded) == (status, nodes)

    @pytest.mark.parametrize("max_nodes,levels", [(55, []), (56, [(8, 1)])])
    def test_no_level_starts_once_the_nodes_are_spent(self, monkeypatch, max_nodes, levels):
        searched = []
        original = solver.find_broadcast_of_size

        def recorded(dims, params, k, budget):
            searched.append((k, budget.max_nodes))
            return original(dims, params, k, budget)

        monkeypatch.setattr(solver, "find_broadcast_of_size", recorded)
        result = exact_gamma(
            GridDims(6, 6), BroadcastParams(3, 3), SearchBudget(max_nodes=max_nodes)
        )
        assert (result.status, result.upper) == ("budget_exhausted", 9)
        assert searched == levels

    def test_seconds_span_levels(self, monkeypatch):
        # A clock that stands still but advances 10 s per level: each level
        # runs to the solve's deadline, 25. On 8x8, t=2, r=2 the swap search
        # stops at 31 and the lower bound is 24; each stand-in level finds k
        # towers, so the next searches one less, until the fourth finds the
        # deadline passed, and the smallest broadcast found, 28, is the
        # upper bound.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        given = []

        def level(dims, params, k, budget):
            given.append((k, budget.deadline))
            clock.now += 10.0
            return TowerSet([Coord(*divmod(u, 8)) for u in range(k)]), 1

        monkeypatch.setattr(solver, "find_broadcast_of_size", level)
        result = exact_gamma(GridDims(8, 8), BroadcastParams(2, 2), SearchBudget(max_seconds=25))
        assert given == [(30, 25.0), (29, 25.0), (28, 25.0)]
        assert (result.status, result.lower, result.upper) == ("budget_exhausted", 24, 28)
        assert result.nodes_expanded == result.upper_nodes + 3

    def test_a_level_runs_to_the_solve_deadline(self, monkeypatch):
        # The clock stands still except in the level's root prune, whose
        # max_unit_coverage takes 10 s of the solve's 5. On 6x6, t=3, r=3 the
        # swap search stops at 9, one above the lower bound 8, so level 8 is
        # searched; it runs to the solve's deadline, already passed, and its
        # setup ends it before any node. A level that started its own clock
        # after the prune would refute level 8 and return gamma = 9, 5 s late.
        clock = SimpleNamespace(now=0.0, pruning=False)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        original_level, original_coverage = solver.find_broadcast_of_size, solver.max_unit_coverage

        def level(*args):
            clock.pruning = True
            return original_level(*args)

        def slow_prune(dims, params):
            if clock.pruning:
                clock.pruning = False
                clock.now += 10.0
            return original_coverage(dims, params)

        monkeypatch.setattr(solver, "find_broadcast_of_size", level)
        monkeypatch.setattr(solver, "max_unit_coverage", slow_prune)
        result = exact_gamma(GridDims(6, 6), BroadcastParams(3, 3), SearchBudget(max_seconds=5))
        assert (result.status, result.level_nodes) == ("budget_exhausted", ((8, 0),))
        assert (result.lower, result.upper, result.nodes_expanded, clock.now) == (
            8, 9, result.upper_nodes, 10.0
        )

    def test_a_slow_root_prune_is_charged_to_the_seconds(self, monkeypatch):
        # Called on its own, the level search starts its clock before its
        # root prune: a prune that takes 10 s of 5 ends the level before
        # any node (unbudgeted, level 8 is refuted in 308). Only the first
        # max_unit_coverage call, the prune's, is slow.
        clock = SimpleNamespace(now=0.0, pruning=True)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        original_coverage = solver.max_unit_coverage

        def slow_prune(dims, params):
            if clock.pruning:
                clock.pruning = False
                clock.now += 10.0
            return original_coverage(dims, params)

        monkeypatch.setattr(solver, "max_unit_coverage", slow_prune)
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(
                GridDims(6, 6), BroadcastParams(3, 3), 8, SearchBudget(max_seconds=5)
            )
        assert (exhausted.value.nodes_expanded, clock.now) == (0, 10.0)

    def test_every_phase_runs_to_the_deadline_set_first(self, monkeypatch):
        # Each reading of this clock advances it 2**-10 s. The entry's first
        # reading sets the deadline, and the LP, the swap search and the
        # level search are each handed that one value; a phase that re-read
        # the clock to turn the seconds left back into a deadline would get
        # a later one.
        tick = 2.0**-10
        clock = SimpleNamespace(now=0.0)

        def ticking():
            clock.now += tick
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=ticking))
        given = []
        original_simplex, original_upper = solver._simplex, solver._UpperBound.__init__
        original_search = solver._Search.__init__

        def simplex(a, c, deadline):
            given.append(("lp", deadline))
            return original_simplex(a, c, deadline)

        def upper(self, dims, params, max_nodes, deadline):
            given.append(("upper", deadline))
            original_upper(self, dims, params, max_nodes, deadline)

        def search(self, dims, params, max_nodes, deadline, weights):
            given.append(("level", deadline))
            original_search(self, dims, params, max_nodes, deadline, weights)

        monkeypatch.setattr(solver, "_simplex", simplex)
        monkeypatch.setattr(solver._UpperBound, "__init__", upper)
        monkeypatch.setattr(solver._Search, "__init__", search)
        dims, params, budget = GridDims(6, 6), BroadcastParams(3, 3), SearchBudget(max_seconds=25)
        assert exact_gamma(dims, params, budget).level_nodes == ((8, 308),)
        assert given == [("lp", 25 + tick), ("upper", 25 + tick), ("level", 25 + tick)]
        # Called on its own, the level search solves the LP to its own deadline.
        given.clear()
        deadline = clock.now + tick + 25
        assert find_broadcast_of_size(dims, params, 8, budget) == (None, 308)
        assert given == [("lp", deadline), ("level", deadline)]

    def test_upper_bound_stops_on_the_seconds(self, monkeypatch):
        # Each reading of this clock advances it 1 s; exact_gamma's first
        # reading sets the deadline at 27.5, and the LP bound's nine pivots
        # and its optimality check take readings 2-11. On 8x8 each gain
        # refresh reads it five times (once per row of segments: three rows
        # for k = 1, two for k = 2) and each placement once: readings 12-16
        # refresh the empty grid, 17 and 23 count two placements, and the
        # refresh after the second passes the deadline at 28.
        clock = SimpleNamespace(now=0.0)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        searched = []
        monkeypatch.setattr(solver, "find_broadcast_of_size", lambda *args: searched.append(args))
        result = exact_gamma(GridDims(8, 8), BroadcastParams(3, 2), SearchBudget(max_seconds=26.5))
        assert (result.status, result.nodes_expanded, result.upper_nodes) == (
            "budget_exhausted", 2, 2
        )
        assert (result.lower, result.upper, result.level_nodes, searched, clock.now) == (
            10, None, (), [], 28.0
        )

    def test_lp_bound_stops_on_the_seconds(self, monkeypatch):
        # The LP bound reads the clock before each pivot. exact_gamma's first
        # reading sets the deadline at 4.5, so the reading before the fourth
        # pivot passes it: the lower bound falls back to the deficit bound 8
        # (the LP's is 10), and the swap search's first reading ends the
        # solve before any node.
        clock = SimpleNamespace(now=0.0)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        result = exact_gamma(GridDims(8, 8), BroadcastParams(3, 2), SearchBudget(max_seconds=3.5))
        assert (result.status, result.nodes_expanded, result.lower, clock.now) == (
            "budget_exhausted", 0, 8, 6.0
        )

    def test_level_setup_is_charged_to_the_seconds(self, monkeypatch):
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        original_coverage = solver.max_unit_coverage

        def slow_setup(dims, params):
            clock.now += 10.0
            return original_coverage(dims, params)

        monkeypatch.setattr(solver, "max_unit_coverage", slow_setup)
        with pytest.raises(BudgetExhaustedError):
            find_broadcast_of_size(
                GridDims(4, 4), BroadcastParams(3, 2), 3, SearchBudget(max_seconds=5)
            )

    def test_root_ranking_is_charged_to_the_seconds(self, monkeypatch):
        # Ranking the first deficient cell's candidates computes a gain for
        # each of them before any node is counted. Here that ranking takes
        # 10 s of a 5 s budget, so the level ends before its first node.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        ranked = []
        original = solver._Search._ranked

        def slow_ranking(self, planes, v, forbidden):
            ranked.append(v)
            result = original(self, planes, v, forbidden)
            clock.now += 10.0
            return result

        monkeypatch.setattr(solver._Search, "_ranked", slow_ranking)
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(
                GridDims(8, 8), BroadcastParams(3, 2), 10, SearchBudget(max_seconds=5)
            )
        assert (exhausted.value.nodes_expanded, ranked) == (0, [0])

    def test_setup_is_stopped_between_templates(self, monkeypatch):
        # With t = r = 1000 on 1000x1000, level 10's root is not pruned (level
        # 1's is, and returns before any setup), and setup would build 1000
        # diamond templates of 4 Mbit each, their rings and a stacked copy:
        # gigabytes and about a minute before the first node. The clock is
        # read before each template, so a deadline that passes during setup
        # ends it: on a clock that advances 1 s per reading, the deadline is
        # 2.5 and the second template's reading passes it.
        clock = SimpleNamespace(now=0.0)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        built = []
        original = solver._bits

        def counted(cells):
            built.append(cells.shape)
            return original(cells)

        monkeypatch.setattr(solver, "_bits", counted)
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(
                GridDims(1000, 1000),
                BroadcastParams(1000, 1000),
                10,
                SearchBudget(max_seconds=1.5),
            )
        assert (exhausted.value.nodes_expanded, built, clock.now) == (0, [(1999, 1999)], 3.0)

    def test_seconds_are_checked_within_one_ranking(self, monkeypatch):
        # One ranking computes up to (2t-1)^2 gains, so the clock is read
        # before each of them. Setup runs on a stopped clock; after it, each
        # reading advances the clock 1 s. The first ranking of 8x8, t=8 has
        # 36 candidates, 8 rows of them; its two stacked terms take readings
        # 1 and 2, and the ninth gain's reading passes the deadline 10.5
        # before the ranking returns.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        dims, params = GridDims(8, 8), BroadcastParams(8, 2)
        search = solver._Search(dims, params, 10**9, 10.5, None)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        returned = []
        original = solver._Search._ranked

        def counted(self, planes, v, forbidden):
            result = original(self, planes, v, forbidden)
            returned.append(v)
            return result

        monkeypatch.setattr(solver._Search, "_ranked", counted)
        with pytest.raises(BudgetExhaustedError) as exhausted:
            search.run(5, max_unit_coverage(dims, params))
        assert (exhausted.value.nodes_expanded, returned, clock.now) == (0, [], 11.0)

    def test_seconds_are_checked_within_one_placement(self, monkeypatch):
        # A placement builds up to r planes, each from up to t templates, so
        # the clock is read before each plane. Setup runs on a stopped clock;
        # after it, each reading advances the clock 1 s, and the third plane
        # of a first tower with t = r = 3 passes the deadline 2.5.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        search = solver._Search(GridDims(6, 6), BroadcastParams(3, 3), 10**9, 2.5, None)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        with pytest.raises(BudgetExhaustedError):
            search._place((), 0, 0)
        assert clock.now == 3.0

    def test_seconds_are_checked_per_node(self, monkeypatch):
        # The clock stands still while candidates are ranked and placed, and
        # each other reading advances it by 1 s, so only the search loop
        # moves it: the third node finds the 2.5 s spent.
        clock = SimpleNamespace(now=0.0, stopped=False)

        def tick():
            if not clock.stopped:
                clock.now += 1.0
            return clock.now

        def stopping(method):
            def stopped(self, *args):
                clock.stopped = True
                try:
                    return method(self, *args)
                finally:
                    clock.stopped = False

            return stopped

        monkeypatch.setattr(solver._Search, "_ranked", stopping(solver._Search._ranked))
        monkeypatch.setattr(solver._Search, "_place", stopping(solver._Search._place))
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        dims, params = GridDims(4, 4), BroadcastParams(3, 2)
        search = solver._Search(dims, params, 10**9, 2.5, None)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        # Level 3 of this grid takes 22 nodes without a deadline.
        with pytest.raises(BudgetExhaustedError) as exhausted:
            search.run(3, max_unit_coverage(dims, params))
        assert exhausted.value.nodes_expanded == search.nodes == 2


class TestSearchBudget:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)

    @pytest.mark.parametrize("seconds", [0, 0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_seconds_that_are_not_finite_and_positive(self, seconds):
        with pytest.raises(ValueError, match="max_seconds must be finite and > 0"):
            SearchBudget(max_seconds=seconds)

    def test_default_cap(self):
        assert SearchBudget().max_nodes == 10_000_000


class TestMaxUnitCoverage:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(1, 7), st.integers(1, 5)
    )
    def test_equals_the_largest_capped_coverage(self, m, n, t, r):
        # coverage[u, c] is the signal a tower on u sends c, from BFS distances.
        expected = int(np.minimum(coverage_matrix(m, n, t), r).sum(axis=1).max())
        assert max_unit_coverage(GridDims(m, n), BroadcastParams(t, r)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 12), st.integers(1, 30)
    )
    def test_equals_the_whole_grid_sum(self, m, n, t, r):
        # The reference builds the central tower's distance to every vertex.
        dist = np.abs(np.arange(m) - (m - 1) // 2)[:, None] + np.abs(np.arange(n) - (n - 1) // 2)
        expected = int(np.minimum(np.maximum(t - dist, 0), min(r, t)).sum())
        assert max_unit_coverage(GridDims(m, n), BroadcastParams(t, r)) == expected

    def test_huge_r_is_capped_by_the_signal(self):
        # Every vertex of a 3x3 grid is within distance 2 of the centre.
        params = BroadcastParams(4, 2**80)
        assert max_unit_coverage(GridDims(3, 3), params) == 4 + 4 * 3 + 4 * 2

    @pytest.mark.parametrize("t,dtype", [(127, np.int8), (128, np.int16)])
    @pytest.mark.parametrize("r", [1, 100, 127, 128, 2**15, 2**80])
    def test_one_tower_field_crosses_int8_to_int16(self, t, dtype, r):
        # One tower's field is int8 up to t = 127 and int16 from t = 128; the
        # capped sum is compared with an int64 one.
        m, n = 300, 261
        assert solver._one_tower_field(GridDims(m, n), t, 149, 130).dtype == dtype
        dist = np.abs(np.arange(m) - 149)[:, None] + np.abs(np.arange(n) - 130)
        expected = int(np.minimum(np.maximum(t - dist, 0), min(r, t)).sum())
        assert max_unit_coverage(GridDims(m, n), BroadcastParams(t, r)) == expected


class TestTableFreeSetup:
    """A level's setup builds no per-cell table, so the budget bounds the work."""

    @pytest.mark.parametrize("m,n,t", [(300, 300, 6), (60, 60, 60)])
    def test_large_grid_expands_its_one_node_at_once(self, m, n, t):
        # The level search at the deficit bound, whose root is not pruned.
        dims, params = GridDims(m, n), BroadcastParams(t, 2)
        lower = -(-2 * m * n // max_unit_coverage(dims, params))
        start = time.perf_counter()
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(dims, params, lower, SearchBudget(max_nodes=1))
        assert time.perf_counter() - start < 1.0
        assert exhausted.value.nodes_expanded == 1

    @pytest.mark.parametrize("m,n,t", [(300, 300, 6), (60, 60, 60)])
    def test_large_grid_solve_expands_its_one_node_at_once(self, m, n, t):
        # exact_gamma spends its node on the swap search's first placement.
        start = time.perf_counter()
        result = exact_gamma(GridDims(m, n), BroadcastParams(t, 2), SearchBudget(max_nodes=1))
        assert time.perf_counter() - start < 1.0
        assert (result.status, result.nodes_expanded, result.upper_nodes) == (
            "budget_exhausted", 1, 1
        )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    def test_root_representatives_match_permutation_tables(self, m, n, data):
        # The 4 or 8 automorphisms as flips and transposes of the index array.
        idx = np.arange(m * n).reshape(m, n)
        views = [idx.T] if m == n else []
        tables = [
            v[::sx, ::sy].ravel().tolist()
            for v in [idx, *views]
            for sx in (1, -1)
            for sy in (1, -1)
        ]
        cells = data.draw(st.permutations(range(m * n)))
        cells = cells[: data.draw(st.integers(0, m * n))]
        ranked = [(-data.draw(st.integers(0, 3)), u) for u in cells]
        rank = {u: i for i, (_, u) in enumerate(ranked)}
        expected = [
            (g, u)
            for i, (g, u) in enumerate(ranked)
            if all(rank.get(perm[u], i) >= i for perm in tables)
        ]
        search = solver._Search(GridDims(m, n), BroadcastParams(2, 1), 10**9, None, None)
        assert search._root_representatives(ranked) == expected


def _band_bits(search, cells) -> int:
    """The bits of band cells (row from the band's first, column) in the search's layout."""
    return sum(1 << (search.lift + x * search.width + y) for x, y in set(cells))


def _greedy_packing(cells, t: int) -> list[tuple[int, int]]:
    """Cells taken in row-major order when at least 2t-1 from every cell taken."""
    taken: list[tuple[int, int]] = []
    for x, y in sorted(set(cells)):
        if all(abs(x - a) + abs(y - b) >= 2 * t - 1 for a, b in taken):
            taken.append((x, y))
    return taken


class TestPackingBound:
    """A placed child is refuted when its deficient cells hold more cells
    pairwise 2t-1 or more apart than towers remain: no tower reaches two."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 6), st.integers(1, 4), st.data())
    def test_far_cells_need_one_tower_each(self, m, n, t, r, data):
        search = solver._Search(GridDims(m, n), BroadcastParams(t, r), 10**9, None, None)
        rows = min(4 * t - 2, m)
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, n - 1))
        far = _greedy_packing(data.draw(st.lists(cell, min_size=1, max_size=12)), t)
        slots = len(far) - 1
        assert search._packed(_band_bits(search, far), 0, slots)
        assert not search._packed(_band_bits(search, far), 0, slots + 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 6), st.data())
    def test_picks_are_the_greedy_packing_and_fit_their_rows(self, m, n, t, data):
        search = solver._Search(GridDims(m, n), BroadcastParams(t, 2), 10**9, None, None)
        x0 = data.draw(st.integers(0, m - 1))
        rows = min(4 * t - 2, m - x0)
        cells = data.draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, n - 1))))
        lacking = _band_bits(search, cells)
        picks = len(_greedy_packing(cells, t))
        # The skip rule skips when the towers left reach the fit, so it never
        # skips a child that the picks would refute.
        assert picks <= search._fit(rows)
        for slots in range(picks + 2):
            assert search._packed(lacking, x0, slots) == (picks > slots)


class TestDeficitBoundStart:
    """No level below the lower bound is searched: the lower bound is at
    least the deficit bound, below which a level's root is pruned."""

    # Grids whose swap search stops above the lower bound, so levels are searched.
    @pytest.mark.parametrize(
        "m,n,t,r", [(6, 6, 3, 3), (5, 5, 3, 2), (6, 7, 3, 1), (4, 9, 2, 2), (4, 4, 2, 2)]
    )
    def test_hopeless_levels_are_not_searched(self, monkeypatch, m, n, t, r):
        searched = []
        original = solver.find_broadcast_of_size

        def recorded(dims, params, k, budget):
            searched.append(k)
            return original(dims, params, k, budget)

        monkeypatch.setattr(solver, "find_broadcast_of_size", recorded)
        dims, params = GridDims(m, n), BroadcastParams(t, r)
        result = exact_gamma(dims, params)
        start = -(-r * m * n // max_unit_coverage(dims, params))
        assert result.lower >= start
        assert searched and min(searched) >= result.lower

    def test_huge_strength_searches_one_node_at_the_bound(self):
        # Levels 1..100 of this instance have a pruned root. At level 101,
        # the deficit bound, t = 10^4 exceeds the box: ranking the root
        # counts one term per candidate for the k <= t - box, not 10^4
        # template passes, so one node of budget ends the level at once.
        dims, params = GridDims(20, 20), BroadcastParams(10_000, 1_000_000)
        start = -(-params.r * 400 // max_unit_coverage(dims, params))
        assert start == 101
        assert find_broadcast_of_size(dims, params, start - 1) == (None, 0)
        begin = time.perf_counter()
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(dims, params, start, SearchBudget(max_nodes=1))
        assert time.perf_counter() - begin < 1.0
        assert exhausted.value.nodes_expanded == 1

    def test_huge_strength_spends_one_node_in_the_swap_search(self, monkeypatch):
        # exact_gamma spends the same node on the swap search's first
        # placement, whose gains count the terms k <= t - (m+n-2) once per
        # grid as well, and no level is searched.
        searched = []
        monkeypatch.setattr(solver, "find_broadcast_of_size", lambda *args: searched.append(args))
        dims, params = GridDims(20, 20), BroadcastParams(10_000, 1_000_000)
        begin = time.perf_counter()
        result = exact_gamma(dims, params, SearchBudget(max_nodes=1))
        assert time.perf_counter() - begin < 1.0
        assert (result.status, result.nodes_expanded, result.upper_nodes) == (
            "budget_exhausted", 1, 1
        )
        assert (result.lower, result.level_nodes, searched) == (101, (), [])

    @pytest.mark.parametrize("m,n,t,r", [(5, 1, 4, 2), (3, 3, 4, 2), (4, 4, 4, 2), (2, 6, 4, 2)])
    def test_no_level_is_searched_at_the_deficit_bound(self, monkeypatch, m, n, t, r):
        # The greedy placements reach the deficit bound, so they are optimal
        # as they are.
        searched = []
        monkeypatch.setattr(solver, "find_broadcast_of_size", lambda *args: searched.append(args))
        result = exact_gamma(GridDims(m, n), BroadcastParams(t, r))
        assert result.status == "optimal"
        assert result.gamma == result.lower == result.upper
        assert (result.level_nodes, result.nodes_expanded, searched) == ((), result.upper_nodes, [])

    @pytest.mark.parametrize("m,n,area,start", [(5, 7, 5, 8), (6, 6, 5, 8)])
    def test_skipped_level_expands_no_node(self, m, n, area, start):
        dims, params = GridDims(m, n), BroadcastParams(3, 3)
        assert lower_t2(m, n, 3) == area
        assert find_broadcast_of_size(dims, params, area) == (None, 0)
        result = exact_gamma(dims, params)
        assert result.lower == start
        assert min((k for k, _ in result.level_nodes), default=start) >= start

    def test_pruned_root_builds_no_search(self):
        # Level 1 of 1000x1000, t = r = 1000 is pruned: one tower repairs far
        # less than the 10^9 lacking. It returns before the search state,
        # which would take gigabytes of diamond templates.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = find_broadcast_of_size(
                GridDims(1000, 1000), BroadcastParams(1000, 1000), 1
            )
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (None, 0)
        # max_unit_coverage's one-tower field of 1000x1000 takes most of it.
        assert peak < 16 * 2**20
        assert elapsed < 1.0


class TestCertifiedBound:
    """The lower bound ceil(r * sum(w) / W) from integer weights w, W being
    the most weighted coverage of any tower, recomputed in integers."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 7), st.integers(1, 7), st.integers(1, 6), st.integers(1, 5), st.data()
    )
    def test_weighted_coverage_is_the_most_of_any_tower(self, m, n, t, r, data):
        weights = np.array(
            data.draw(st.lists(st.integers(0, 2**20), min_size=m * n, max_size=m * n)),
            dtype=np.int64,
        ).reshape(m, n)
        dims, params = GridDims(m, n), BroadcastParams(t, r)
        expected = naive_weighted_coverage(m, n, t, r, weights)
        assert solver._weighted_coverage(dims, params, weights) == expected

    @pytest.mark.parametrize(
        "m,n,t,r,lower",
        [
            # The nine exact-search instances: gamma on all but 6x6 r=3 (9).
            (6, 8, 3, 2, 8),
            (7, 7, 3, 2, 8),
            (5, 7, 3, 3, 8),
            (7, 9, 3, 2, 10),
            (9, 9, 4, 2, 7),
            (6, 6, 3, 3, 8),
            (8, 8, 3, 2, 10),
            (10, 10, 4, 2, 8),
            (9, 9, 3, 2, 12),
            (4, 4, 3, 2, 3),
            (10, 10, 3, 2, 14),
            (8, 10, 3, 2, 12),
            (12, 12, 4, 2, 11),
        ],
    )
    def test_pinned_lower_bounds(self, m, n, t, r, lower):
        dims, params = GridDims(m, n), BroadcastParams(t, r)
        assert -(-r * m * n // max_unit_coverage(dims, params)) < lower
        assert solver._lp_bound(dims, params, None)[0] == lower

    @pytest.mark.parametrize(
        "m,n,t,r,gamma", [(6, 8, 3, 2, 8), (7, 9, 3, 2, 10), (9, 9, 4, 2, 7)]
    )
    def test_catalog_solves_close_at_the_swap_search(self, m, n, t, r, gamma):
        result = exact_gamma(GridDims(m, n), BroadcastParams(t, r))
        assert (result.gamma, result.lower, result.upper) == (gamma, gamma, gamma)
        assert (result.level_nodes, result.certificate) == ((), "lp")

    def test_infeasible_weights_give_the_recomputed_bound(self):
        # Weight 1 on every cell breaks every LP constraint: its objective
        # would claim r*m*n = 96. The integers give W = max_unit_coverage *
        # 2**20, so the bound is the deficit bound.
        dims, params = GridDims(6, 8), BroadcastParams(3, 2)
        assert solver._weighted_bound(dims, params, np.ones((6, 8)))[0] == 6
        # Weights only on the four corners: each tower reaches one corner at
        # most, at min(r, 3 - 0) = 2 from a corner tower, so W = 2 * 2**20
        # and the bound is ceil(2 * 4 / 2) = 4, whatever the floats summed to.
        corners = np.zeros((6, 8))
        corners[[0, 0, 5, 5], [0, 7, 0, 7]] = 5.0
        assert solver._weighted_bound(dims, params, corners)[0] == 4
        # Negative, not-a-number and zero weights count as zero: W = 0 gives 0.
        assert solver._weighted_bound(dims, params, np.full((6, 8), -1.0))[0] == 0
        assert solver._weighted_bound(dims, params, np.full((6, 8), np.nan))[0] == 0

    def test_lp_is_skipped_above_the_class_cap(self, monkeypatch):
        solved = []
        original = solver._simplex

        def recorded(a, c, deadline):
            solved.append(len(c))
            return original(a, c, deadline)

        monkeypatch.setattr(solver, "_simplex", recorded)
        # 32x32 has 16*17/2 = 136 classes under its 8 automorphisms, 33x33
        # has 153; a 1 x n path has ceil(n/2) under its 4.
        for m, n in [(32, 32), (33, 33), (1, 272), (1, 273), (300, 300)]:
            solver._lp_bound(GridDims(m, n), BroadcastParams(3, 2), None)
        assert solved == [136, 136]
        assert solver._LP_CLASSES == 136

    def test_certificates(self):
        cases = [
            ((6, 8, 3, 2), None, "optimal", "lp"),
            ((3, 3, 3, 2), None, "optimal", "bound"),
            ((6, 6, 3, 3), None, "optimal", "refuted"),
            ((6, 6, 3, 3), 100, "budget_exhausted", None),
        ]
        for (m, n, t, r), cap, status, certificate in cases:
            budget = SearchBudget() if cap is None else SearchBudget(max_nodes=cap)
            result = exact_gamma(GridDims(m, n), BroadcastParams(t, r), budget)
            assert (result.status, result.certificate) == (status, certificate), (m, n, t, r)

    def test_a_bound_above_the_verified_upper_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(solver, "_lp_bound", lambda dims, params, deadline: (9, None))
        message = "the lower bound 9 on 6x8 exceeds the verified 8-tower \\(3,2\\) broadcast"
        with pytest.raises(solver.SolverInvariantError, match=message):
            exact_gamma(GridDims(6, 8), BroadcastParams(3, 2))


def _reaching(m: int, n: int, t: int, v: int, cells) -> list[int]:
    """The cells among `cells` within distance t-1 of cell v, in order."""
    x, y = divmod(v, n)
    return [c for c in cells if abs(c // n - x) + abs(c % n - y) < t]


class TestWeightedPrune:
    """A placed child is refuted when its deficit weighted by the LP's
    weights exceeds (slots - 1) * W: no tower repairs more than W of it."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 7),
        st.integers(1, 7),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from([None, 1, 2]),
        st.data(),
    )
    def test_weighted_deficit_matches_the_oracle(self, m, n, t, r, reps, data):
        # Random weights and a random search path: each tower reaches the
        # first deficient cell, as the search's own children do.
        weights = np.array(
            data.draw(st.lists(st.integers(0, 2**20), min_size=m * n, max_size=m * n)),
            dtype=np.int64,
        ).reshape(m, n)
        search = solver._Search(
            GridDims(m, n), BroadcastParams(t, r), 10**9, None, solver._Weights(weights, 1)
        )
        if reps is not None:
            # Planes stacked in groups of one or two, as at large strengths.
            search.reps = reps
        assert search._weighted_deficit((), 0) == naive_weighted_deficit(m, n, t, r, [], weights)
        placed, planes, x0, v = [], (), 0, 0
        owed = search.owed_from[0]
        for _ in range(8):
            reach = _reaching(m, n, t, v, [c for c in range(m * n) if c not in placed])
            if not reach:
                break
            u = data.draw(st.sampled_from(reach))
            towers = [divmod(c, n) for c in placed + [u]]
            if min(naive_signal_totals(m, n, t, towers).values()) >= r:
                break
            # The screen's bound: u repairs at most its gain times the
            # heaviest weight within its reach.
            before = naive_weighted_deficit(m, n, t, r, [divmod(c, n) for c in placed], weights)
            gain = sum(
                max(0, r - a) - max(0, r - b)
                for a, b in zip(
                    naive_signal_totals(m, n, t, [divmod(c, n) for c in placed]).values(),
                    naive_signal_totals(m, n, t, towers).values(),
                )
            )
            heaviest = max(int(weights[c // n, c % n]) for c in _reaching(m, n, t, u, range(m * n)))
            assert search.heaviest[u] == heaviest
            planes, v, _ = search._place(planes, x0, u)
            placed.append(u)
            x0 = v // n
            expected = naive_weighted_deficit(m, n, t, r, towers, weights)
            assert owed == before
            owed = search._weighted_deficit(planes, x0)
            assert owed == expected
            assert before - gain * heaviest <= owed

    @pytest.mark.parametrize("shape", sorted(FROZEN_TREES), ids=lambda s: f"{s[0]}x{s[1]}")
    def test_no_prefix_of_an_optimal_witness_is_pruned(self, shape):
        # Each frame places the first witness tower that reaches its branch
        # cell, so the witness's towers form one path of the search at
        # level gamma; no bound may refute any child on it.
        m, n = shape
        optimal = {(t, r): w for t, r, _, (status, _, w) in FROZEN_TREES[shape] if status == "optimal"}
        for (t, r), text in optimal.items():
            dims, params = GridDims(m, n), BroadcastParams(t, r)
            weights = solver._lp_bound(dims, params, None)[1]
            assert weights is not None, (t, r)
            cells = [int(x) * n + int(y) for x, y in (p.split(",") for p in text.split(";"))]
            search = solver._Search(dims, params, 10**9, None, weights)
            unit = max_unit_coverage(dims, params)
            slots, deficit, owed = len(cells), r * m * n, search.owed_from[0]
            placed, planes, x0, v = [], (), 0, 0
            while True:
                u = _reaching(m, n, t, v, [c for c in cells if c not in placed])[0]
                gain = -dict((c, g) for g, c in search._ranked(planes, v, set()))[u]
                if gain == deficit:
                    break
                room = (slots - 1) * weights.most
                assert deficit - gain <= (slots - 1) * unit, (t, r)
                assert owed - gain * search.heaviest[u] <= room, (t, r)
                child, v, lacking = search._place(planes, x0, u)
                owed = search._weighted_deficit(child, v // n)
                assert owed <= room, (t, r, placed)
                assert not search._packed(lacking, x0, slots - 1), (t, r, placed)
                placed.append(u)
                planes, x0, deficit, slots = child, v // n, deficit - gain, slots - 1

    def test_seconds_are_checked_per_stacked_plane(self, monkeypatch):
        # Setup and the first placement run on a stopped clock; after them,
        # each reading advances it 1 s. A tower on (0, 0) with t = r = 3
        # leaves three planes, and the weighted check reads the clock before
        # it stacks each: the third reading passes the deadline 2.5.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        dims, params = GridDims(6, 6), BroadcastParams(3, 3)
        weights = solver._lp_bound(dims, params, None)[1]
        search = solver._Search(dims, params, 10**9, 2.5, weights)
        planes, v, _ = search._place((), 0, 0)
        search._band_masks(v // 6)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        with pytest.raises(BudgetExhaustedError):
            search._weighted_deficit(planes, v // 6)
        assert (len(planes), clock.now) == (3, 3.0)

    def test_exact_gamma_solves_the_lp_once_for_its_levels(self, monkeypatch):
        solved, given = [], []
        original_lp = solver._lp_bound
        original_init = solver._Search.__init__

        def lp(dims, params, deadline):
            solved.append(dims)
            return original_lp(dims, params, deadline)

        def init(self, dims, params, max_nodes, deadline, weights):
            given.append(weights)
            original_init(self, dims, params, max_nodes, deadline, weights)

        monkeypatch.setattr(solver, "_lp_bound", lp)
        monkeypatch.setattr(solver._Search, "__init__", init)
        dims, params = GridDims(6, 6), BroadcastParams(3, 3)
        result = exact_gamma(dims, params)
        assert (result.gamma, result.level_nodes) == (9, ((8, 308),))
        assert len(solved) == 1 and len(given) == 1 and given[0] is not None
        # Called on its own, the level search solves the LP itself.
        assert find_broadcast_of_size(dims, params, 8) == (None, 308)
        assert len(solved) == 2 and (given[1].cells == given[0].cells).all()

    def test_no_weighted_check_above_the_class_cap(self, monkeypatch):
        # 33x33 has 153 symmetry classes: the LP is skipped, and the level
        # search has no weights.
        given = []
        original_init = solver._Search.__init__

        def init(self, dims, params, max_nodes, deadline, weights):
            given.append(weights)
            original_init(self, dims, params, max_nodes, deadline, weights)

        monkeypatch.setattr(solver._Search, "__init__", init)
        dims, params = GridDims(33, 33), BroadcastParams(3, 2)
        lower = -(-2 * 33 * 33 // max_unit_coverage(dims, params))
        with pytest.raises(BudgetExhaustedError):
            find_broadcast_of_size(dims, params, lower, SearchBudget(max_nodes=1))
        assert given == [None]

    def test_huge_strength_checks_its_one_node_at_once(self, monkeypatch):
        # At the deficit bound of 20x20, t = 10^4, r = 10^6, the root's first
        # child is placed with 10^4 planes, which the weighted check stacks
        # one at a time, 3048 bits each: one node of budget still ends the
        # level at once.
        checked = []
        original = solver._Search._weighted_deficit

        def recorded(self, planes, x0):
            checked.append(len(planes))
            return original(self, planes, x0)

        monkeypatch.setattr(solver._Search, "_weighted_deficit", recorded)
        dims, params = GridDims(20, 20), BroadcastParams(10_000, 1_000_000)
        begin = time.perf_counter()
        with pytest.raises(BudgetExhaustedError) as exhausted:
            find_broadcast_of_size(dims, params, 101, SearchBudget(max_nodes=1))
        assert time.perf_counter() - begin < 1.0
        assert (exhausted.value.nodes_expanded, checked) == (1, [10_000])


class TestLevelNodes:
    # 6x6, t=3, r=3 (see TestSolveWideBudget).
    @pytest.mark.parametrize(
        "max_nodes,levels",
        [
            (None, ((8, 308),)),
            (362, ((8, 307),)),
            (72, ((8, 17),)),
            (55, ()),
            (30, ()),
        ],
    )
    def test_one_entry_per_level_tried(self, max_nodes, levels):
        budget = SearchBudget() if max_nodes is None else SearchBudget(max_nodes=max_nodes)
        result = exact_gamma(GridDims(6, 6), BroadcastParams(3, 3), budget)
        assert result.level_nodes == levels

    @pytest.mark.parametrize(
        "m,n,t,r", [(6, 6, 3, 3), (5, 5, 3, 2), (6, 7, 3, 1), (4, 9, 2, 2), (7, 1, 4, 2)]
    )
    @pytest.mark.parametrize("max_nodes", [None, 40, 60])
    def test_counts_sum_to_the_total_below_the_upper_bound(self, m, n, t, r, max_nodes):
        dims, params = GridDims(m, n), BroadcastParams(t, r)
        budget = SearchBudget() if max_nodes is None else SearchBudget(max_nodes=max_nodes)
        result = exact_gamma(dims, params, budget)
        deficit = -(-r * m * n // max_unit_coverage(dims, params))
        assert result.lower == max(deficit, solver._lp_bound(dims, params, None)[0])
        assert result.upper_nodes + sum(nodes for _, nodes in result.level_nodes) == (
            result.nodes_expanded
        )
        ks = [k for k, _ in result.level_nodes]
        if ks:
            # Each level is one below the smallest broadcast verified before
            # it, so the last is one below the upper bound, unless its own
            # witness met the lower bound.
            assert ks == sorted(set(ks), reverse=True) and ks[-1] >= result.lower
            assert ks[-1] == result.upper - 1 or result.upper == result.lower
        if result.status == "optimal":
            assert result.gamma in ({ks[-1] + 1, result.lower} if ks else {result.upper})

    def test_brackets_are_set_when_the_budget_runs_out(self):
        result = exact_gamma(GridDims(6, 6), BroadcastParams(3, 3), SearchBudget(max_nodes=72))
        assert (result.status, result.gamma, result.witness) == ("budget_exhausted", None, None)
        assert (result.lower, result.upper, result.upper_nodes, result.nodes_expanded) == (
            8, 9, 55, 72
        )
        assert result.certificate is None


class TestSearchTreeGolden:
    """exact_gamma expands the nodes and finds the witnesses of the frozen
    table (first frozen from the solver that placed every child, its node
    counts re-derived when the packing bound came in and again when the
    schedule became witness first)."""

    @pytest.mark.parametrize("shape", sorted(FROZEN_TREES), ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_the_frozen_table(self, shape):
        mismatches = []
        for t, r, cap, expected in FROZEN_TREES[shape]:
            result = exact_gamma(
                GridDims(*shape), BroadcastParams(t, r), SearchBudget(max_nodes=cap)
            )
            got = (result.status, result.nodes_expanded, _witness_text(result.witness))
            if got != expected:
                mismatches.append(((t, r, cap), got, expected))
        assert mismatches == []

    def test_table_covers_every_solvable_small_instance(self):
        solvable = set()
        for m in range(1, 7):
            for n in range(1, 7):
                for t in range(1, 6):
                    for r in range(1, 4):
                        # A broadcast exists iff towers on every vertex suffice.
                        every = TowerSet([Coord(x, y) for x in range(m) for y in range(n)])
                        if check_broadcast(GridDims(m, n), BroadcastParams(t, r), every).valid:
                            solvable.add((m, n, t, r))
        frozen = {(m, n, t, r) for (m, n), rows in FROZEN_TREES.items() for t, r, *_ in rows}
        assert solvable <= frozen
        assert {(6, 8, 3, 2), (7, 7, 3, 2), (5, 7, 3, 3), (7, 9, 3, 2), (9, 9, 4, 2)} <= frozen


class TestLevelSearchGolden:
    """find_broadcast_of_size expands the nodes and finds the witnesses of the
    level table, frozen from the solver whose exact_gamma searched every
    level up from the deficit bound: the level search itself is unchanged
    by the schedule that calls it."""

    @pytest.mark.parametrize("shape", sorted(FROZEN_LEVELS), ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_the_frozen_levels(self, shape):
        mismatches = []
        for t, r, k, expected in FROZEN_LEVELS[shape]:
            witness, nodes = find_broadcast_of_size(GridDims(*shape), BroadcastParams(t, r), k)
            if (nodes, _witness_text(witness)) != expected:
                mismatches.append(((t, r, k), (nodes, _witness_text(witness)), expected))
        assert mismatches == []

    def test_levels_cover_every_instance_of_the_tree_table(self):
        levels = {(m, n, t, r) for (m, n), rows in FROZEN_LEVELS.items() for t, r, *_ in rows}
        trees = {(m, n, t, r) for (m, n), rows in FROZEN_TREES.items() for t, r, *_ in rows}
        assert levels == trees


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_exact_gamma_agrees_with_the_oracle(t, r):
    # Every grid of at most 16 vertices, the naive enumerator's range.
    for m in range(1, 17):
        for n in range(1, 16 // m + 1):
            expected = naive_gamma(m, n, t, r)
            if expected is None:
                continue
            dims, params = GridDims(m, n), BroadcastParams(t, r)
            result = exact_gamma(dims, params)
            assert (result.status, result.gamma) == ("optimal", expected), (m, n)
            assert result.lower <= expected <= result.upper, (m, n)
            assert check_broadcast(dims, params, result.witness).valid, (m, n)
            # A gamma at the lower bound needs no refutation, any other does.
            deficit = -(-r * m * n // max_unit_coverage(dims, params))
            certificate = "refuted" if expected > result.lower else (
                "lp" if result.lower > deficit else "bound"
            )
            assert result.certificate == certificate, (m, n)


def _reference_field(m: int, n: int, t: int, cells) -> np.ndarray:
    """The received totals of towers on `cells`, summed tower by tower."""
    field = np.zeros((m, n), dtype=np.int64)
    for c in cells:
        x, y = divmod(c, n)
        field += np.maximum(t - np.abs(np.arange(m)[:, None] - x) - np.abs(np.arange(n) - y), 0)
    return field


def _upper_bound_with(m: int, n: int, t: int, r: int, cells) -> "solver._UpperBound":
    """An upper-bound search holding towers on `cells`."""
    search = solver._UpperBound(GridDims(m, n), BroadcastParams(t, r), 10**9, None)
    for c in cells:
        search._move(c, 1)
    search.deficit = int(np.maximum(r - _reference_field(m, n, t, cells), 0).sum())
    return search


class TestUpperBound:
    """The swap search's field, gains, losses and moves against references
    that sum tower by tower."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 16), st.integers(1, 16), st.integers(1, 7), st.integers(1, 9), st.data()
    )
    def test_gains_match_a_per_cell_reference(self, m, n, t, r, data):
        cells = data.draw(st.lists(st.integers(0, m * n - 1), max_size=6, unique=True))
        search = _upper_bound_with(m, n, t, r, cells)
        field = _reference_field(m, n, t, cells)
        lacking = np.maximum(r - field, 0)
        expected = [
            int(np.minimum(lacking, _reference_field(m, n, t, [u])).sum()) for u in range(m * n)
        ]
        assert (search.field == field).all()
        assert search._gains(lacking[None]).ravel().tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.integers(1, 4), st.data()
    )
    def test_swap_leaves_the_least_deficit(self, m, n, t, r, data):
        towers = sorted(data.draw(
            st.lists(st.integers(0, m * n - 1), min_size=1, max_size=5, unique=True)
        ))
        search = _upper_bound_with(m, n, t, r, towers)
        banned = search.towers.copy()
        banned[data.draw(st.lists(st.integers(0, m * n - 1), max_size=3))] = True
        left = {}
        for w in towers:
            rest = [c for c in towers if c != w]
            loss = np.maximum(r - _reference_field(m, n, t, rest), 0).sum() - search.deficit
            assert search._losses([w])[0].tolist() == [loss]
            for u in np.flatnonzero(~banned).tolist():
                left[(w, u)] = int(np.maximum(r - _reference_field(m, n, t, rest + [u]), 0).sum())
        # Least deficit first, then the lowest tower out, then the lowest cell in.
        expected = min(((d, w, u) for (w, u), d in left.items()), default=None)
        assert search._swap(towers, banned) == expected

    @pytest.mark.parametrize(
        "m,n,t,r,upper",
        [(6, 8, 3, 2, 8), (9, 9, 3, 2, 12), (5, 7, 3, 3, 8), (10, 10, 4, 2, 8), (8, 10, 3, 2, 13)],
    )
    def test_reaches_its_pinned_size(self, m, n, t, r, upper):
        dims, params = GridDims(m, n), BroadcastParams(t, r)
        lower = -(-r * m * n // max_unit_coverage(dims, params))
        search = solver._UpperBound(dims, params, 10**9, None)
        search.run(lower)
        assert len(search.best) == upper
        towers = np.array([divmod(u, n) for u in search.best])
        assert check_broadcast(dims, params, towers).valid

    def test_each_placement_drop_and_swap_is_one_node(self, monkeypatch):
        counted = []
        original = solver._UpperBound._tick

        def tick(self):
            original(self)
            counted.append(self.nodes)

        monkeypatch.setattr(solver._UpperBound, "_tick", tick)
        result = exact_gamma(GridDims(6, 8), BroadcastParams(3, 2))
        assert counted == list(range(1, result.upper_nodes + 1))
