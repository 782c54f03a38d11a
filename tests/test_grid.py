"""Core geometry, signal arithmetic, and the verifier."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import (
    BroadcastParams,
    Coord,
    GridDims,
    TowerSet,
    check_broadcast,
    manhattan_dist,
    signal,
    signal_field,
)
from gridcast import grid
from naive_oracle import bfs_distances

coords = st.builds(Coord, st.integers(-6, 6), st.integers(-6, 6))


def per_tower_field(m, n, t, towers):
    """Reference field: every tower's signal summed, one tower at a time."""
    xs, ys = np.indices((m, n))
    values = np.zeros((m, n), dtype=np.int64)
    for tw in towers:
        values += np.maximum(t - (abs(xs - tw.x) + abs(ys - tw.y)), 0)
    return values


class TestManhattanDist:
    def test_zero_at_same_vertex(self):
        assert manhattan_dist(Coord(0, 0), Coord(0, 0)) == 0

    def test_axis_sum(self):
        assert manhattan_dist(Coord(0, 0), Coord(2, 1)) == 3

    def test_matches_bfs_on_20x20(self):
        # (2,2) -> (13,7) has shortest-path length 16 on the explicit graph
        dist = bfs_distances(20, 20)
        assert dist[2 * 20 + 2, 13 * 20 + 7] == 16
        assert manhattan_dist(Coord(2, 2), Coord(13, 7)) == 16

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_metric_equivalence(self, m, n, data):
        dist = bfs_distances(m, n)
        ux = data.draw(st.integers(0, m - 1))
        uy = data.draw(st.integers(0, n - 1))
        vx = data.draw(st.integers(0, m - 1))
        vy = data.draw(st.integers(0, n - 1))
        assert manhattan_dist(Coord(ux, uy), Coord(vx, vy)) == dist[ux * n + uy, vx * n + vy]


class TestSignal:
    @pytest.mark.parametrize(
        "t,tower,v,expected",
        [
            (4, Coord(2, 0), Coord(2, 0), 4),
            (4, Coord(0, 0), Coord(2, 1), 1),
            (4, Coord(0, 0), Coord(4, 0), 0),
        ],
    )
    def test_examples(self, t, tower, v, expected):
        assert signal(t, tower, v) == expected

    def test_rejects_nonpositive_strength(self):
        with pytest.raises(ValueError):
            signal(0, Coord(0, 0), Coord(0, 0))


class TestSignalField:
    def test_single_cell(self):
        field = signal_field(GridDims(1, 1), 3, TowerSet([Coord(0, 0)]))
        assert field.tolist() == [[3]]

    def test_path_profile(self):
        field = signal_field(GridDims(5, 1), 4, TowerSet([Coord(2, 0)]))
        assert field[:, 0].tolist() == [2, 3, 4, 3, 2]

    def test_two_towers_side_by_side(self):
        field = signal_field(GridDims(3, 3), 3, TowerSet([Coord(0, 1), Coord(2, 1)]))
        # frozen from summing per-tower signals by hand
        assert field.min() == 2
        assert field[1, 0] == 2
        assert field[1, 2] == 2
        assert field[1, 1] == 4

    def test_outside_tower_radiates_in(self):
        field = signal_field(GridDims(3, 1), 4, TowerSet([Coord(-1, 0)]))
        assert field[:, 0].tolist() == [3, 2, 1]

    def test_returns_the_int64_array(self):
        field = signal_field(GridDims(4, 2), 3, [Coord(0, 0)])
        assert isinstance(field, np.ndarray)
        assert (field.shape, field.dtype) == ((4, 2), np.int64)

    def test_stamp_kernel_is_bounded_by_the_grid(self):
        # A (2t-1)^2 kernel at t=1000 alone would take 61 MiB.
        tracemalloc.start()
        try:
            field = signal_field(GridDims(3, 3), 1000, [Coord(1, 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert field.tolist() == [[998, 999, 998], [999, 1000, 999], [998, 999, 998]]

    def test_large_strength_outside_towers_act_through_their_clamped_image(self):
        towers = [Coord(1, 1), Coord(-5, 1), Coord(7, -9), Coord(-2000, 0)]
        field = signal_field(GridDims(3, 4), 1000, towers)
        assert np.array_equal(field, per_tower_field(3, 4, 1000, towers))

    def test_small_grid_never_takes_the_shifted_path_at_large_strength(self):
        # The shifted path pads its image by t-1 on every side.
        assert not grid._shift_is_cheaper(3, 3, grid.MAX_STRENGTH, grid.MAX_TOWERS)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="documented bounds"):
            signal_field(GridDims(2, 2), 10_001, TowerSet([Coord(0, 0)]))
        with pytest.raises(ValueError, match="documented bounds"):
            signal_field(GridDims(2, 2), 3, [Coord(0, 0)] * 1_000_001)

    @given(
        m=st.integers(1, 10),
        n=st.integers(1, 10),
        t=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_towers(self, m, n, t, data):
        dims = GridDims(m, n)
        coords = st.builds(
            Coord, st.integers(-3, m + 2), st.integers(-3, n + 2)
        )
        base = data.draw(st.lists(coords, max_size=5))
        extra = data.draw(coords)
        before = signal_field(dims, t, TowerSet(base))
        after = signal_field(dims, t, TowerSet(base + [extra]))
        assert (after >= before).all()

    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        t=st.integers(1, 5),
        dx=st.integers(0, 4),
        dy=st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, m, n, t, dx, dy, data):
        coords = st.builds(Coord, st.integers(-2, m + 1), st.integers(-2, n + 1))
        towers = data.draw(st.lists(coords, max_size=4))
        base = signal_field(GridDims(m, n), t, TowerSet(towers))
        shifted = signal_field(
            GridDims(m + dx, n + dy),
            t,
            TowerSet(Coord(c.x + dx, c.y + dy) for c in towers),
        )
        assert np.array_equal(shifted[dx:, dy:], base)

    @pytest.mark.parametrize("shift", [True, False], ids=["shifted", "stamped"])
    @given(
        m=st.integers(1, 30),
        n=st.integers(1, 30),
        t=st.integers(1, 25),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_tower_reference(self, shift, m, n, t, data):
        # Lists may hold duplicates (each counts) and towers far outside.
        near = st.builds(Coord, st.integers(-t - 2, m + t + 1), st.integers(-t - 2, n + t + 1))
        towers = data.draw(st.lists(near, max_size=12))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid, "_shift_is_cheaper", lambda *args: shift)
            field = signal_field(GridDims(m, n), t, towers)
        assert field.dtype == np.int64
        assert np.array_equal(field, per_tower_field(m, n, t, towers))

    @pytest.mark.parametrize(
        "m,n,t,towers,branch",
        [
            # dense: 5 shifted slices of 6x7 cost less than 6 stamps
            (
                6, 7, 2,
                [Coord(1, 1), Coord(1, 1), Coord(5, 3), Coord(-1, 3), Coord(6, 7), Coord(0, 0)],
                "_add_shifted",
            ),
            # sparse, large t: 1201 slices of 40x40 cost more than three stamps
            (40, 40, 25, [Coord(3, 4), Coord(3, 4), Coord(41, -2), Coord(70, 0)], "_add_stamps"),
        ],
    )
    def test_cheaper_algorithm_is_chosen(self, monkeypatch, m, n, t, towers, branch):
        calls = []
        original = getattr(grid, branch)
        monkeypatch.setattr(grid, branch, lambda *a: calls.append(1) or original(*a))
        values = signal_field(GridDims(m, n), t, towers)
        assert calls == [1]
        assert np.array_equal(values, per_tower_field(m, n, t, towers))

    def test_cell_cap_refuses_before_allocating(self, monkeypatch):
        def no_zeros(*args, **kwargs):
            raise AssertionError("np.zeros called for an oversized grid")

        monkeypatch.setattr(grid.np, "zeros", no_zeros)
        # 2**25 + 1 = 3 * 11184811: one vertex over the cap.
        dims = GridDims(3, (grid.MAX_CELLS + 1) // 3)
        assert dims.m * dims.n == grid.MAX_CELLS + 1
        with pytest.raises(ValueError, match="more than the supported"):
            signal_field(dims, 3, TowerSet([Coord(0, 0)]))
        with pytest.raises(ValueError, match="more than the supported"):
            check_broadcast(dims, BroadcastParams(3, 2), TowerSet())


class TestCheckBroadcast:
    def test_valid_path(self):
        verdict = check_broadcast(
            GridDims(5, 1), BroadcastParams(4, 2), TowerSet([Coord(2, 0)])
        )
        assert verdict.valid
        assert verdict.deficiencies.shape == (0, 2)
        assert verdict.received.shape == (0,)

    def test_deficiencies_reported_in_order(self):
        verdict = check_broadcast(
            GridDims(5, 1), BroadcastParams(4, 2), TowerSet([Coord(0, 0)])
        )
        assert not verdict.valid
        assert verdict.deficiencies.tolist() == [[3, 0], [4, 0]]
        assert verdict.received.tolist() == [1, 0]
        assert verdict.deficiencies.dtype == verdict.received.dtype == np.int64

    def test_three_tower_path(self):
        verdict = check_broadcast(
            GridDims(17, 1),
            BroadcastParams(4, 2),
            TowerSet([Coord(2, 0), Coord(8, 0), Coord(14, 0)]),
        )
        assert verdict.valid

    def test_outside_tower_warning(self):
        verdict = check_broadcast(
            GridDims(3, 1), BroadcastParams(4, 2), TowerSet([Coord(-1, 0), Coord(1, 0)])
        )
        assert verdict.outside_towers.tolist() == [[-1, 0]]
        assert verdict.valid  # signal still radiates in; warning is not an error

    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        t=st.integers(1, 5),
        r=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_valid_iff_min_signal_reaches_r(self, m, n, t, r, data):
        dims = GridDims(m, n)
        coords = st.builds(Coord, st.integers(0, m - 1), st.integers(0, n - 1))
        towers = TowerSet(data.draw(st.lists(coords, max_size=6)))
        verdict = check_broadcast(dims, BroadcastParams(t, r), towers)
        assert verdict.valid == (signal_field(dims, t, towers).min() >= r)


class TestTowerSet:
    def test_normalizes_order_and_duplicates(self):
        ts = TowerSet([Coord(3, 1), Coord(0, 2), Coord(3, 1), Coord(0, 1)])
        assert ts.towers == (Coord(0, 1), Coord(0, 2), Coord(3, 1))
        assert len(ts) == 3
        assert Coord(3, 1) in ts

    @given(st.lists(coords, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_equals_sorted_set(self, towers):
        ts = TowerSet(towers)
        assert ts.towers == tuple(sorted(set(towers)))
        assert list(ts) == sorted(set(towers))
        assert len(ts) == len(set(towers))
        assert ts.xy.shape == (len(ts), 2) and ts.xy.dtype == np.int64

    @given(st.lists(coords, max_size=30), coords)
    @settings(max_examples=150, deadline=None)
    def test_list_and_array_forms_agree(self, towers, probe):
        from_list = TowerSet(towers)
        rows = np.array([(c.x, c.y) for c in towers], dtype=np.int64).reshape(-1, 2)
        from_array = TowerSet(rows)
        assert from_list == from_array
        assert hash(from_list) == hash(from_array)
        assert TowerSet(from_list) == from_list
        assert (probe in from_list) == (probe in from_array) == (probe in towers)
        assert all(type(c) is Coord for c in from_array)
        assert list(from_list) == list(from_array)

    def test_sets_differ(self):
        assert TowerSet([Coord(0, 0)]) != TowerSet([Coord(0, 1)])
        assert TowerSet() == TowerSet([]) == TowerSet(np.empty((0, 2), dtype=np.int64))
        assert TowerSet() != ()

    def test_rejects_non_integer_arrays(self):
        with pytest.raises(ValueError, match="integers"):
            TowerSet(np.array([[0.5, 1.0]]))

    def test_xy_is_read_only(self):
        source = np.array([[0, 5], [1, 2]], dtype=np.int64)  # already canonical
        ts = TowerSet(source)
        with pytest.raises(ValueError):
            ts.xy[0, 0] = 7
        source[0, 0] = 9  # the caller's array stays the caller's
        assert ts.towers == (Coord(0, 5), Coord(1, 2))
        with pytest.raises(AttributeError):
            ts.xy = source

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            GridDims(0, 3)
        with pytest.raises(ValueError):
            BroadcastParams(1, 0)
