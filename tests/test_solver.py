"""Exact solver: level searches, iterative deepening, budgets, oracle checks."""

from types import SimpleNamespace

import pytest

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
from naive_oracle import naive_gamma


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
        first = exact_gamma(GridDims(3, 3), BroadcastParams(3, 2))
        second = exact_gamma(GridDims(3, 3), BroadcastParams(3, 2))
        assert first.witness == second.witness == TowerSet([Coord(0, 1), Coord(2, 1)])

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

    def test_wall_clock_budget(self):
        result = exact_gamma(
            GridDims(6, 6), BroadcastParams(3, 2), SearchBudget(max_seconds=0.0)
        )
        assert result.status == "budget_exhausted"

    def test_existence_check_builds_every_vertex_from_an_array(self, monkeypatch):
        def refuse(self):
            raise AssertionError("existence check built a Coord per vertex")

        seen = []
        original = solver.check_broadcast

        def recorded(dims, params, towers):
            seen.append(towers)
            return original(dims, params, towers)

        monkeypatch.setattr(GridDims, "vertices", refuse)
        monkeypatch.setattr(solver, "check_broadcast", recorded)
        assert exact_gamma(GridDims(3, 4), BroadcastParams(3, 2)).status == "optimal"
        assert seen == [TowerSet([Coord(x, y) for x in range(3) for y in range(4)])]

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
    """One SearchBudget bounds the whole solve, not each level on its own."""

    def test_node_cap_spans_levels(self):
        # Unbudgeted, the three levels take 308, 10670 and 92574 nodes.
        result = exact_gamma(
            GridDims(8, 8), BroadcastParams(3, 2), SearchBudget(max_nodes=92_575)
        )
        assert (result.status, result.nodes_expanded) == ("budget_exhausted", 92_575)

    # 6x8, t=3, r=2: levels 6, 7, 8 take 135, 5343 and 2469 nodes; gamma is 8.
    @pytest.mark.parametrize(
        "max_nodes,status,nodes",
        [
            (7947, "optimal", 7947),
            (7946, "budget_exhausted", 7946),
            (5478, "budget_exhausted", 5478),
            (5477, "budget_exhausted", 5477),
        ],
    )
    def test_node_cap_boundaries(self, max_nodes, status, nodes):
        result = exact_gamma(
            GridDims(6, 8), BroadcastParams(3, 2), SearchBudget(max_nodes=max_nodes)
        )
        assert (result.status, result.nodes_expanded) == (status, nodes)

    def test_no_level_starts_once_the_nodes_are_spent(self, monkeypatch):
        levels = []
        original = solver.find_broadcast_of_size

        def recorded(dims, params, k, budget):
            levels.append((k, budget.max_nodes))
            return original(dims, params, k, budget)

        monkeypatch.setattr(solver, "find_broadcast_of_size", recorded)
        result = exact_gamma(GridDims(6, 8), BroadcastParams(3, 2), SearchBudget(max_nodes=5478))
        assert result.status == "budget_exhausted"
        assert levels == [(6, 5478), (7, 5343)]

    def test_seconds_span_levels(self, monkeypatch):
        # A clock that advances 10 s per level: each level gets what is left.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        given = []

        def level(dims, params, k, budget):
            given.append(budget.max_seconds)
            clock.now += 10.0
            return None, 1

        monkeypatch.setattr(solver, "find_broadcast_of_size", level)
        result = exact_gamma(GridDims(8, 8), BroadcastParams(3, 2), SearchBudget(max_seconds=25))
        assert given == [25.0, 15.0, 5.0]
        assert (result.status, result.nodes_expanded) == ("budget_exhausted", 3)

    def test_level_setup_is_charged_to_the_seconds(self, monkeypatch):
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock.now))
        original_symmetries = solver._grid_symmetries

        def slow_setup(m, n):
            clock.now += 10.0
            return original_symmetries(m, n)

        monkeypatch.setattr(solver, "_grid_symmetries", slow_setup)
        with pytest.raises(BudgetExhaustedError):
            find_broadcast_of_size(
                GridDims(4, 4), BroadcastParams(3, 2), 3, SearchBudget(max_seconds=5)
            )


class TestSearchBudget:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)

    def test_default_cap(self):
        assert SearchBudget().max_nodes == 10_000_000
