"""Core geometry, signal arithmetic, and the verifier."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcast import (
    BroadcastParams,
    Coord,
    DiamondLattice,
    GridDims,
    TowerSet,
    best_anchor_construct,
    check_broadcast,
    letterbox_construct,
    signal_field,
)
from gridcast import grid
from naive_oracle import bfs_distances, manhattan_dist, naive_field, signal

coords = st.builds(Coord, st.integers(-6, 6), st.integers(-6, 6))


FIELD_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def expected_dtype(m, n, t, towers):
    """signal_field's dtype on an m x n grid: the narrowest of FIELD_DTYPES
    that holds t times the most towers that reach one grid row (those within
    t - 1 rows of it and in reach of a column), and for a TowerSet, whose
    towers are distinct, at most (2t^3 + t) / 3."""
    xy = grid._as_xy(towers)
    x, y = xy[:, 0], xy[:, 1]
    columns = (y > -t) & (y < n + t - 1)
    most = t * max((np.count_nonzero(columns & (abs(x - row) < t)) for row in range(m)))
    if isinstance(towers, TowerSet):
        most = min(most, (2 * t**3 + t) // 3)
    return next(d for d in FIELD_DTYPES if most <= np.iinfo(d).max)


def exact_dtypes(m, n, t, towers):
    """The dtypes that hold every total and partial sum: expected_dtype and wider."""
    return FIELD_DTYPES[FIELD_DTYPES.index(expected_dtype(m, n, t, towers)) :]


def field_choices(monkeypatch, dims, t, towers):
    """The field layouts signal_field runs: "stamps", or tents on "every
    row" or on the "occupied rows" of the padded grid."""
    calls = []
    add_tents, add_stamps = grid._add_tents, grid._add_stamps

    def tents(values, near, held, rows, runs):
        calls.append("every row" if held.all() else "occupied rows")
        add_tents(values, near, held, rows, runs)

    def stamps(values, near, t):
        calls.append("stamps")
        add_stamps(values, near, t)

    monkeypatch.setattr(grid, "_add_tents", tents)
    monkeypatch.setattr(grid, "_add_stamps", stamps)
    signal_field(dims, t, towers)
    monkeypatch.setattr(grid, "_add_tents", add_tents)
    monkeypatch.setattr(grid, "_add_stamps", add_stamps)
    return calls


LAYOUTS = ("occupied rows", "every row", "stamps")
LAYOUT_IDS = ("occupied-rows", "every-row", "stamps")


def forced_field(m, n, t, towers, layout, dtype):
    """The totals of one field layout, called directly into a ``dtype`` array.

    Like signal_field, only towers within reach of the grid are passed, and
    the tents' image has a row for each padded row that holds a tower
    ("occupied rows") or for every padded row ("every row").
    """
    xy = grid._as_xy(towers)
    radius = t - 1
    x, y = xy[:, 0], xy[:, 1]
    near = xy[(x >= -radius) & (x < m + radius) & (y >= -radius) & (y < n + radius)]
    values = np.zeros((m, n), dtype=dtype)
    if layout == "stamps":
        grid._add_stamps(values, near, t)
        return values
    held = np.zeros(m + 2 * radius, dtype=bool)
    held[near[:, 0] + radius] = True
    if layout == "every row":
        held[:] = True
    rows = np.flatnonzero(held)
    grid._add_tents(values, near, held, rows, grid._row_runs(rows))
    return values


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

    def test_returns_the_narrowest_exact_dtype(self):
        field = signal_field(GridDims(4, 2), 3, [Coord(0, 0)] * 7)
        assert isinstance(field, np.ndarray)
        assert (field.shape, field.dtype) == ((4, 2), expected_dtype(4, 2, 3, [Coord(0, 0)] * 7))
        assert field[0, 0] == 21

    @pytest.mark.parametrize(
        "copies,dtype", [(214_748, np.int32), (214_749, np.int64)], ids=["int32", "int64"]
    )
    def test_totals_are_exact_at_the_int32_boundary(self, copies, dtype):
        # 10 000 * 214 748 = 2 147 480 000 < 2**31 <= 10 000 * 214 749.
        dims, t = GridDims(1, 1), grid.MAX_STRENGTH
        towers = np.zeros((copies, 2), dtype=np.int64)
        total = t * copies
        field = signal_field(dims, t, towers)
        assert (field.dtype, field.tolist()) == (dtype, [[total]])
        assert check_broadcast(dims, BroadcastParams(t, total), towers).valid
        verdict = check_broadcast(dims, BroadcastParams(t, total + 1), towers)
        assert not verdict.valid
        assert verdict.deficiencies.tolist() == [[0, 0]]
        assert verdict.received.dtype == np.int64
        assert verdict.received.tolist() == [total]

    @pytest.mark.parametrize(
        "t,copies,dtype",
        [
            (1, 127, np.int8), (1, 128, np.int16), (127, 1, np.int8), (64, 2, np.int16),
            (7, 4681, np.int16), (1, 32_768, np.int32), (2, 16_384, np.int32),
        ],
        ids=["127", "128", "t=127", "t=64x2", "32767", "32768", "t=2x16384"],
    )
    def test_repeated_towers_are_exact_at_the_narrow_boundaries(self, t, copies, dtype):
        # t * copies = 127 | 128 and 32 767 | 32 768: int8 -> int16 -> int32.
        dims, total = GridDims(3, 3), t * copies
        towers = np.ones((copies, 2), dtype=np.int64)
        field = signal_field(dims, t, towers)
        expected = copies * per_tower_field(3, 3, t, [Coord(1, 1)])
        assert field.dtype == dtype == expected_dtype(3, 3, t, towers)
        assert np.array_equal(field, expected) and field[1, 1] == total
        for layout in LAYOUTS:
            assert np.array_equal(forced_field(3, 3, t, towers, layout, dtype), expected)
        verdict = check_broadcast(dims, BroadcastParams(t, total), towers)
        assert np.array_equal(verdict.deficiencies, np.argwhere(expected < total))
        assert verdict.received.dtype == np.int64
        assert np.array_equal(verdict.received, expected[expected < total])

    @pytest.mark.parametrize(
        "t,total,dtype",
        [(5, 85, np.int8), (6, 146, np.int16), (36, 31_116, np.int16), (37, 33_781, np.int32)],
    )
    def test_tower_on_every_vertex_reaches_the_distinct_bound(self, t, total, dtype):
        # Every vertex of a (2t-1)^2 grid holds a tower: the centre receives
        # (2t^3 + t) / 3, the most any vertex can from distinct towers.
        side = 2 * t - 1
        towers = TowerSet(np.indices((side, side)).reshape(2, -1).T)
        field = signal_field(GridDims(side, side), t, towers)
        assert (2 * t**3 + t) // 3 == total
        assert field.dtype == dtype == expected_dtype(side, side, t, towers)
        assert field.max() == field[t - 1, t - 1] == total
        assert np.array_equal(field, per_tower_field(side, side, t, towers))
        for layout in LAYOUTS:
            assert np.array_equal(forced_field(side, side, t, towers, layout, dtype), field)

    @given(
        m=st.integers(1, 16),
        n=st.integers(1, 16),
        t=st.integers(1, 12),
        density=st.sampled_from([0.02, 0.2, 0.6, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_tower_sets_match_per_tower_reference_in_the_rule_dtype(
        self, m, n, t, density, seed
    ):
        # Sparse to full TowerSets over the grid padded by t + 1, so some
        # towers lie beyond reach.
        cells = np.indices((m + 2 * t + 2, n + 2 * t + 2)).reshape(2, -1).T - (t + 1)
        keep = np.random.default_rng(seed).random(len(cells)) < density
        towers = TowerSet(cells[keep])
        field = signal_field(GridDims(m, n), t, towers)
        assert field.dtype == expected_dtype(m, n, t, towers)
        assert np.array_equal(field, per_tower_field(m, n, t, towers))
        for layout in LAYOUTS:
            assert np.array_equal(forced_field(m, n, t, towers, layout, field.dtype), field)

    @pytest.mark.parametrize(
        "step,dtype", [(127, np.int8), (126, np.int16)], ids=["2t-1-apart", "2t-2-apart"]
    )
    @pytest.mark.parametrize("as_set", [False, True], ids=["list", "TowerSet"])
    def test_towers_a_window_apart_are_sized_by_one_window(self, step, dtype, as_set):
        # At t=64 a tower sends at most 64, and 2t - 1 = 127 consecutive rows
        # are the most whose towers one grid row hears. Four towers 127 rows
        # apart (t * |towers| = 256) never share a window: int8 holds 64.
        # 126 apart, two share one: 128 takes int16.
        m, n, t = 3 * step + 1, 3, 64
        towers = [Coord(x, 1) for x in range(0, m, step)]
        towers = TowerSet(towers) if as_set else towers
        field = signal_field(GridDims(m, n), t, towers)
        expected = per_tower_field(m, n, t, towers)
        assert field.dtype == dtype == expected_dtype(m, n, t, towers)
        assert np.array_equal(field, expected)
        for layout in LAYOUTS:
            for wider in exact_dtypes(m, n, t, towers):
                assert np.array_equal(forced_field(m, n, t, towers, layout, wider), expected)

    @pytest.mark.parametrize(
        "t,copies,dtype",
        [(1, 127, np.int8), (1, 128, np.int16), (7, 4681, np.int16), (7, 4682, np.int32)],
        ids=["127", "128", "32767", "32768"],
    )
    def test_repeated_towers_in_one_window_are_exact_at_the_narrow_boundaries(
        self, t, copies, dtype
    ):
        # Two clusters of ``copies`` towers, each spread over the 2t - 1 rows
        # of one window and out of the other's: t * copies = 127 | 128 and
        # 32 767 | 32 768 per window, twice that in all.
        span = 2 * t - 1
        m, n = 3 * span, 3
        rows = np.arange(copies) % span
        towers = np.stack([np.concatenate([rows, rows + 2 * span]), np.ones(2 * copies, int)], axis=1)
        field = signal_field(GridDims(m, n), t, towers)
        unique, count = np.unique(towers, axis=0, return_counts=True)
        expected = sum(
            c * per_tower_field(m, n, t, [Coord(*map(int, xy))]) for xy, c in zip(unique, count)
        )
        assert field.dtype == dtype == expected_dtype(m, n, t, towers)
        assert np.array_equal(field, expected)
        for layout in LAYOUTS:
            for wider in exact_dtypes(m, n, t, towers):
                assert np.array_equal(forced_field(m, n, t, towers, layout, wider), expected)

    @pytest.mark.parametrize("as_set", [False, True], ids=["list", "TowerSet"])
    def test_towers_out_of_reach_do_not_widen_the_dtype(self, as_set):
        # Two towers reach the 5x5 grid at t=10 (20 at most on a vertex), and
        # 600 more lie beyond reach: past the rows, or on the grid's rows but
        # past the columns. t * |towers| (6020) and, for the TowerSet,
        # (2t^3 + t) / 3 (670) would take int16.
        m, n, t = 5, 5, 10
        far = [Coord(40 + i, i % 7) for i in range(300)] + [Coord(i % 5, 30 + i) for i in range(300)]
        towers = [Coord(2, 2), Coord(-9, 4)] + far
        towers = TowerSet(towers) if as_set else towers * 2
        field = signal_field(GridDims(m, n), t, towers)
        expected = per_tower_field(m, n, t, towers)
        assert field.dtype == np.int8 == expected_dtype(m, n, t, towers)
        assert np.array_equal(field, expected)
        for layout in LAYOUTS:
            for wider in exact_dtypes(m, n, t, towers):
                assert np.array_equal(forced_field(m, n, t, towers, layout, wider), expected)

    @pytest.mark.parametrize("t,dtype,peak_mib", [(3, np.int8, 70.0), (7, np.int8, 61.0)])
    def test_path_field_peak_stays_pinned(self, t, dtype, peak_mib):
        # The 2^22 x 1 best-anchor path: the window bound reads the towers'
        # rows and allocates nothing per padded row, so signal_field's
        # traced peak stays within 1% of its pin: 70.0 MiB at t=3, and
        # 61.0 MiB at t=7, measured when that field was int16.
        dims = GridDims(2**22, 1)
        towers = best_anchor_construct(dims, t).towers
        tracemalloc.start()
        try:
            field = signal_field(dims, t, towers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.dtype == dtype
        assert peak <= 1.01 * peak_mib * 2**20, peak / 2**20
        assert field.min() >= 2

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

    def test_far_reaching_stamp_builds_one_kernel_in_the_field_dtype(self):
        # One tower's int16 field (7.6 MiB) and its 3999^2 int16 kernel
        # (30.5 MiB): an int64 temporary of the kernel alone would take 122 MiB.
        tracemalloc.start()
        try:
            field = signal_field(GridDims(2000, 2000), 10_000, [Coord(1000, 1000)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert field.dtype == np.int16
        assert field[1000, 1000] == 10_000
        assert (field[0, 0], field[0, 1999], field[1999, 1999]) == (8_000, 8_001, 8_002)

    @pytest.mark.parametrize("towers", [[], [Coord(-10_000, 0)]], ids=["none", "out-of-reach"])
    def test_stamps_of_no_tower_build_no_kernel(self, towers):
        # The field alone: 3.8 MiB in int8 with no towers, 7.6 MiB in int16
        # with one tower whose signal ends before the grid. A shape no other
        # test stamps, so nothing built earlier is reused.
        tracemalloc.start()
        try:
            field = signal_field(GridDims(1998, 2000), 10_000, towers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert not field.any()

    def test_stamp_of_a_tower_outside_is_built_at_its_reduced_strength(self):
        # 9999 steps from the grid, the tower acts like a strength-1 tower on
        # (0, 0): its kernel is one cell, not the 3999 x 1999 of strength t,
        # so the peak is the 7.6 MiB int16 field alone.
        tracemalloc.start()
        try:
            field = signal_field(GridDims(2000, 2000), 10_000, [Coord(-9999, 0)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert field.dtype == np.int16
        assert (field[0, 0], int(field.sum())) == (1, 1)

    def test_stamp_kernel_is_not_kept(self):
        # A shape no other test stamps, so nothing built earlier is reused.
        tracemalloc.start()
        try:
            field = signal_field(GridDims(1999, 2001), 9_999, [Coord(999, 1000)])
            assert field[999, 1000] == 9_999
            del field
            kept = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, grid.__file__)]
            )
        finally:
            tracemalloc.stop()
        assert sum(stat.size for stat in kept.statistics("filename")) < 2**16

    def test_large_strength_outside_towers_act_through_their_clamped_image(self):
        towers = [Coord(1, 1), Coord(-5, 1), Coord(7, -9), Coord(-2000, 0)]
        field = signal_field(GridDims(3, 4), 1000, towers)
        assert np.array_equal(field, per_tower_field(3, 4, 1000, towers))

    @pytest.mark.parametrize("corner", [(-99, -99), (-60, 1), (101, 102)])
    def test_int8_stamps_of_towers_far_beyond_a_corner(self, corner):
        # t = 100 with one tower is an int8 field, yet the tower's L1
        # distance to the grid may exceed 127.
        towers = [Coord(*corner)]
        field = signal_field(GridDims(3, 4), 100, towers)
        expected = per_tower_field(3, 4, 100, towers)
        assert field.dtype == np.int8 and np.array_equal(field, expected)
        for layout in LAYOUTS:
            assert np.array_equal(forced_field(3, 4, 100, towers, layout, np.int8), expected)

    def test_small_grid_never_takes_the_shifted_path_at_large_strength(self):
        # The tents pad their image by t-1 on every side: on a 3x3 grid at
        # t=10000, towers on every padded row would make it 20001 x 20001.
        t = grid.MAX_STRENGTH
        padded = 3 + 2 * (t - 1)
        assert grid._field_layout(3, 3, t, grid.MAX_CELLS, padded, 1) == "stamps"

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match=r"^strength t must be in \[1, 10000\], got 10001$"):
            signal_field(GridDims(2, 2), 10_001, TowerSet([Coord(0, 0)]))
        # Zero-stride views: MAX_CELLS + 1 rows without allocating them. The
        # count is refused before any conversion, so the int32 view is never
        # copied to the 512 MiB int64 array it would become.
        for dtype in (np.int64, np.int32):
            too_many = np.broadcast_to(np.zeros((1, 2), dtype=dtype), (grid.MAX_CELLS + 1, 2))
            for check in (
                lambda: signal_field(GridDims(2, 2), 3, too_many),
                lambda: check_broadcast(GridDims(2, 2), BroadcastParams(3, 2), too_many),
            ):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError, match=r"^inputs exceed documented bounds"):
                        check()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 2**20

    def test_more_than_a_million_towers_are_accepted(self):
        # The first 1 000 001 vertices of a 1001x1000 grid, each a tower.
        towers = np.indices((1001, 1000)).reshape(2, -1).T[:1_000_001]
        field = signal_field(GridDims(1001, 1000), 1, towers)
        assert field.sum() == 1_000_001

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

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    @given(
        m=st.integers(1, 30),
        n=st.integers(1, 30),
        t=st.integers(1, 25),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_tower_reference(self, layout, m, n, t, data):
        # Lists may hold duplicates (each counts) and towers far outside.
        near = st.builds(Coord, st.integers(-t - 2, m + t + 1), st.integers(-t - 2, n + t + 1))
        towers = data.draw(st.lists(near, max_size=12))
        expected = per_tower_field(m, n, t, towers)
        for dtype in exact_dtypes(m, n, t, towers):
            assert np.array_equal(forced_field(m, n, t, towers, layout, dtype), expected)
        field = signal_field(GridDims(m, n), t, towers)
        assert field.dtype == expected_dtype(m, n, t, towers)
        assert np.array_equal(field, expected)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    @given(
        m=st.one_of(st.just(1), st.integers(1, 14)),
        n=st.one_of(st.just(1), st.integers(1, 14)),
        t=st.one_of(st.sampled_from([1, 2]), st.integers(1, 9)),
        r=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_verdict_matches_per_tower_reference(self, layout, m, n, t, r, data):
        # Towers up to t + 2 outside the grid, some of them repeated: each
        # copy counts. The layout is forced at signal_field's one decision.
        near = st.builds(Coord, st.integers(-t - 2, m + t + 1), st.integers(-t - 2, n + t + 1))
        towers = data.draw(st.lists(near, max_size=10))
        if towers:
            towers += data.draw(st.lists(st.sampled_from(towers), max_size=4))
        xy = np.array([(c.x, c.y) for c in towers], dtype=np.int64).reshape(-1, 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid, "_field_layout", lambda *args: layout)
            verdict = check_broadcast(GridDims(m, n), BroadcastParams(t, r), xy)
        field = per_tower_field(m, n, t, towers)
        for dtype in exact_dtypes(m, n, t, towers):
            assert np.array_equal(forced_field(m, n, t, towers, layout, dtype), field)
        assert verdict.valid == bool((field >= r).all())
        assert np.array_equal(verdict.deficiencies, np.argwhere(field < r))
        assert verdict.received.dtype == np.int64
        assert np.array_equal(verdict.received, field[field < r])

    @pytest.mark.parametrize("layout", LAYOUTS[:2], ids=LAYOUT_IDS[:2])
    @given(
        m=st.integers(1, 25),
        n=st.integers(1, 25),
        t=st.integers(2, 12),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_tents_match_per_tower_reference(self, layout, m, n, t, data):
        # Both tent layouts, in both dtypes. Towers lie on one to three rows
        # (gapless or not) or only in the padding band around the grid; some
        # are repeated (each copy counts), and the plain list is in any
        # order.
        radius = t - 1
        near_x = st.integers(-radius, m + radius - 1)
        near_y = st.integers(-radius, n + radius - 1)
        band_x = st.one_of(st.integers(-radius, -1), st.integers(m, m + radius - 1))
        band_y = st.one_of(st.integers(-radius, -1), st.integers(n, n + radius - 1))
        few_rows = st.lists(near_x, min_size=1, max_size=3).flatmap(
            lambda rows: st.builds(Coord, st.sampled_from(rows), near_y)
        )
        band = st.one_of(st.builds(Coord, band_x, near_y), st.builds(Coord, near_x, band_y))
        towers = data.draw(st.one_of(st.lists(few_rows, min_size=1), st.lists(band, min_size=1)))
        towers += data.draw(st.lists(st.sampled_from(towers), max_size=4))
        towers = data.draw(st.permutations(towers))
        expected = per_tower_field(m, n, t, towers)
        # Every dtype that holds t * len(towers): int64 is what signal_field
        # uses once that reaches 2**31.
        for dtype in exact_dtypes(m, n, t, towers):
            assert np.array_equal(forced_field(m, n, t, towers, layout, dtype), expected)

    @pytest.mark.parametrize(
        "m,n,t,towers,choice",
        [
            # dense: 10 passes over the 8x9 padded image cost less than 12
            # stamps (10 stamps would cost less than the passes), and less
            # than the strided adds into the three runs of occupied rows
            (
                6, 7, 2,
                [Coord(1, 1), Coord(1, 1), Coord(5, 3), Coord(-1, 3), Coord(6, 7), Coord(0, 0)] * 2,
                "every row",
            ),
            # two adjacent occupied rows of a 30x30 grid (one run): 10 passes
            # over two padded rows cost less than 12 stamps or every row
            (
                30, 30, 2,
                [Coord(4, y) for y in range(0, 30, 5)] + [Coord(5, 2)] * 6,
                "occupied rows",
            ),
            # sparse, large t: 125 tent steps, even over the two occupied
            # rows, cost more than three stamps
            (40, 40, 25, [Coord(3, 4), Coord(3, 4), Coord(41, -2), Coord(70, 0)], "stamps"),
        ],
    )
    def test_cheaper_algorithm_is_chosen(self, monkeypatch, m, n, t, towers, choice):
        assert field_choices(monkeypatch, GridDims(m, n), t, towers) == [choice]
        values = signal_field(GridDims(m, n), t, towers)
        assert np.array_equal(values, per_tower_field(m, n, t, towers))

    @pytest.mark.parametrize(
        "case,choice",
        [
            # The paper's pattern puts its towers on one row in t - 1: 72 of
            # the 1378 padded rows.
            ("best-anchor 1340x1340 t=20", "occupied rows"),
            # A sheared pattern puts its 178 towers on 161 distinct rows.
            ("sheared 1000x1000 t=60", "stamps"),
            # Random towers on 498 of the 500 rows (row 250 is emptied): the
            # runs that the gaps cut cost more strided adds than the passes
            # over the 20 extra padded rows.
            ("random 500x500 t=10", "every row"),
            # 300 random towers on 262 rows at t=40: the gaps cut them into
            # 221 runs, two strided adds per run in each of 40 steps.
            ("random 1000x1000 t=40", "stamps"),
        ],
    )
    def test_field_algorithm_of_pinned_tower_sets(self, monkeypatch, case, choice):
        if case.startswith("best-anchor"):
            dims, t = GridDims(1340, 1340), 20
            towers = best_anchor_construct(dims, t).towers
        elif case.startswith("sheared"):
            dims, t = GridDims(1000, 1000), 60
            towers = letterbox_construct(dims, DiamondLattice(t, Coord(0, 0), 7)).towers
        elif case == "random 500x500 t=10":
            dims, t = GridDims(500, 500), 10
            xy = np.random.default_rng(3).integers(0, 500, (3000, 2))
            towers = TowerSet(xy[xy[:, 0] != 250])
        else:
            dims, t = GridDims(1000, 1000), 40
            towers = TowerSet(np.random.default_rng(0).integers(0, 1000, (300, 2)))
        field = signal_field(dims, t, towers)
        assert field_choices(monkeypatch, dims, t, towers) == [choice]
        # The other layouts give the same totals.
        for layout in LAYOUTS:
            forced = forced_field(dims.m, dims.n, t, towers, layout, field.dtype)
            assert np.array_equal(forced, field)

    @pytest.mark.parametrize(
        "side,t,choice",
        # The benchmark's unjittered construct shapes, best-anchor towers:
        # the dense shapes (t = 3, 4, int8) and the pattern at t = 20-60
        # (int16) take the tents on the occupied rows, except at 840x840
        # t=52, whose 162 towers are stamped: a near tie (1.15-1.17 ms
        # against 1.19-1.21 ms for the tents, int16).
        [(side, 3, "occupied rows") for side in (220, 280, 440, 500, 580)]
        + [(side, 4, "occupied rows") for side in (260, 350, 520, 720)]
        + [(1340, 20, "occupied rows"), (980, 24, "occupied rows")]
        + [(1200, 28, "occupied rows"), (800, 32, "occupied rows")]
        + [(900, 44, "occupied rows"), (1300, 48, "occupied rows"), (840, 52, "stamps")]
        + [(1950, 56, "occupied rows"), (1900, 60, "occupied rows")],
    )
    def test_field_layout_of_benchmark_shapes(self, monkeypatch, side, t, choice):
        dims = GridDims(side, side)
        towers = best_anchor_construct(dims, t).towers
        assert field_choices(monkeypatch, dims, t, towers) == [choice]

    def test_cell_cap_refuses_before_allocating(self, monkeypatch):
        def no_zeros(*args, **kwargs):
            raise AssertionError("np.zeros called for an oversized grid")

        monkeypatch.setattr(grid.np, "zeros", no_zeros)
        # 2**25 + 1 = 3 * 11184811: one vertex over the cap.
        m, n = 3, (grid.MAX_CELLS + 1) // 3
        assert m * n == grid.MAX_CELLS + 1
        with pytest.raises(ValueError) as refused:
            GridDims(m, n)
        assert str(refused.value) == (
            f"grid {m}x{n} has {grid.MAX_CELLS + 1} vertices, "
            f"more than the supported {grid.MAX_CELLS}"
        )
        assert GridDims(1, grid.MAX_CELLS).n == grid.MAX_CELLS


class TestCheckBroadcast:
    def test_valid_path(self):
        verdict = check_broadcast(
            GridDims(5, 1), BroadcastParams(4, 2), TowerSet([Coord(2, 0)])
        )
        assert verdict.valid
        assert verdict.deficiencies.shape == (0, 2)
        assert verdict.received.shape == (0,)
        assert verdict.deficiencies.dtype == verdict.received.dtype == np.int64

    @pytest.mark.parametrize("t,dtype", [(5, np.int8), (6, np.int16)])
    @pytest.mark.parametrize("r", [1, 64, 85, 86, 146, 147, 128, 32_768, 2**80])
    def test_r_beyond_the_field_dtype_matches_an_int64_reference(self, t, dtype, r):
        # A tower on every vertex of a (2t-1)^2 grid: an int8 field at t=5
        # and an int16 one at t=6, held against r up to 2**80.
        side = 2 * t - 1
        towers = TowerSet(np.indices((side, side)).reshape(2, -1).T)
        dims = GridDims(side, side)
        assert signal_field(dims, t, towers).dtype == dtype
        reference = per_tower_field(side, side, t, towers)
        verdict = check_broadcast(dims, BroadcastParams(t, r), towers)
        assert verdict.valid == bool((reference >= r).all())
        assert np.array_equal(verdict.deficiencies, np.argwhere(reference < r))
        assert verdict.received.dtype == np.int64
        assert np.array_equal(verdict.received, reference[reference < r])
        if r >= 2**15:
            assert len(verdict.deficiencies) == side * side

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
        # An iterator is read once, so its outside towers are still reported.
        towers = [Coord(-1, 0), Coord(1, 1)]
        for given in (towers, iter(towers)):
            verdict = check_broadcast(GridDims(3, 3), BroadcastParams(3, 2), given)
            assert verdict.outside_towers.tolist() == [[-1, 0]]

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

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        t=st.integers(1, 6),
        r=st.integers(1, 8),
        data=st.data(),
    )
    @example(m=1, n=7, t=2, r=9, data=None)  # every vertex deficient
    @example(m=6, n=1, t=3, r=1, data=None)  # valid
    @example(m=1, n=1, t=1, r=2, data=None)  # one deficient vertex
    @example(m=3, n=11, t=2, r=3, data=None)  # valid, m != n
    @settings(max_examples=120, deadline=None)
    def test_deficiencies_match_a_multi_dimensional_scan(self, m, n, t, r, data):
        # Towers may lie outside the grid; a missing draw means towers on
        # every vertex.
        if data is None:
            towers = [Coord(x, y) for x in range(m) for y in range(n)]
        else:
            near = st.builds(Coord, st.integers(-t, m + t - 1), st.integers(-t, n + t - 1))
            towers = data.draw(st.lists(near, max_size=10))
        verdict = check_broadcast(GridDims(m, n), BroadcastParams(t, r), TowerSet(towers))
        field = per_tower_field(m, n, t, set(towers))
        short = np.argwhere(field < r)
        assert verdict.deficiencies.shape == short.shape
        assert verdict.deficiencies.dtype == short.dtype == np.int64
        assert np.array_equal(verdict.deficiencies, short)
        assert verdict.received.dtype == np.int64
        assert np.array_equal(verdict.received, field[field < r])
        assert verdict.valid == (len(short) == 0)


class TestVerdictReport:
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        t=st.integers(1, 6),
        r=st.integers(1, 10),
        data=st.data(),
    )
    @example(m=12, n=12, t=1, r=2, data=None)  # every vertex deficient
    @example(m=4, n=7, t=6, r=1, data=None)  # valid
    @settings(max_examples=150, deadline=None)
    def test_report_matches_the_naive_field(self, m, n, t, r, data):
        # Towers up to t + 1 outside the grid, some repeated: each copy counts.
        # A missing draw means one tower in the middle of the grid.
        if data is None:
            towers = [(m // 2, n // 2)]
        else:
            near = st.tuples(st.integers(-t - 1, m + t), st.integers(-t - 1, n + t))
            towers = data.draw(st.lists(near, max_size=10))
            if towers:
                towers += data.draw(st.lists(st.sampled_from(towers), max_size=4))
        field = naive_field(m, n, t, towers)
        short, received = np.argwhere(field < r), field[field < r]
        count = len(short)
        dims, params = GridDims(m, n), BroadcastParams(t, r)
        xy = np.array(towers, dtype=np.int64).reshape(-1, 2)

        def read_first(verdict):
            assert verdict.count == count
            for k in (0, 1, 10, count + 5):
                got_short, got_received = verdict.first(k)
                assert got_short.dtype == got_received.dtype == np.int64
                assert got_short.shape == (min(k, count), 2)
                assert np.array_equal(got_short, short[:k])
                assert np.array_equal(got_received, received[:k])

        def read_all(verdict):
            assert verdict.deficiencies.dtype == verdict.received.dtype == np.int64
            assert verdict.deficiencies.shape == (count, 2)
            assert np.array_equal(verdict.deficiencies, short)
            assert np.array_equal(verdict.received, received)

        for reads in ((read_first, read_all), (read_all, read_first)):
            verdict = check_broadcast(dims, params, xy)
            assert verdict.valid == (count == 0)
            for read in reads:
                read(verdict)
                read(verdict)

    def test_only_an_invalid_verdict_holds_its_field(self):
        # The 1000^2 t=3 construction receives exactly 2 somewhere: valid at
        # r=2, invalid at r=3. Its field is 1 MB of int8.
        dims = GridDims(1000, 1000)
        towers = best_anchor_construct(dims, 3).towers
        held = {}
        for r in (2, 3):
            tracemalloc.start()
            try:
                verdict = check_broadcast(dims, BroadcastParams(3, r), towers)
                held[r], _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert verdict.valid == (r == 2)
        assert held[2] < 2**16 and held[3] >= 10**6, held

    def test_count_and_first_build_no_full_report(self):
        # Every vertex of 2000^2 is deficient: the int8 field takes 3.8 MiB,
        # its comparison with r as many bytes, and a full report of the
        # 4 M vertices 92 MiB.
        verdict = check_broadcast(GridDims(2000, 2000), BroadcastParams(10_000, 2), [])
        tracemalloc.start()
        try:
            count = verdict.count
            short, received = verdict.first(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak / 2**20
        assert count == 4_000_000
        assert short.tolist() == [[0, y] for y in range(10)]
        assert received.tolist() == [0] * 10


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

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 1)], ids=["2x3", "4", "2x2x1"])
    def test_refuses_arrays_not_of_pairs(self, shape):
        # Read as (-1, 2), (2, 3) would be three towers and (4,) two, each
        # pairing coordinates of different towers.
        xy = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
        message = r"^tower arrays must have shape \(k, 2\), got "
        with pytest.raises(ValueError, match=message):
            TowerSet(xy)
        with pytest.raises(ValueError, match=message):
            signal_field(GridDims(2, 2), 3, xy)
        with pytest.raises(ValueError, match=message):
            check_broadcast(GridDims(2, 2), BroadcastParams(3, 2), xy)

    @pytest.mark.parametrize(
        "rows", [[[2**63, 0]], [[2**64 - 1, 0], [0, 0]]], ids=["2^63", "2^64-1"]
    )
    def test_refuses_uint64_coordinates_past_int64(self, rows):
        # Cast to int64 they would wrap: 2^64 - 1 would become the outside
        # tower (-1, 0), which radiates into the grid.
        xy = np.array(rows, dtype=np.uint64)
        message = r"^tower coordinates must fit in 64-bit integers$"
        with pytest.raises(ValueError, match=message):
            TowerSet(xy)
        with pytest.raises(ValueError, match=message):
            signal_field(GridDims(2, 2), 3, xy)
        with pytest.raises(ValueError, match=message):
            check_broadcast(GridDims(2, 2), BroadcastParams(3, 2), xy)

    @pytest.mark.parametrize(
        "rows", [[], [[0, 0], [1, 1]], [[2**63 - 1, 0], [1, 1], [4, 2], [1, 1]]],
        ids=["empty", "inside", "far-and-repeated"],
    )
    def test_in_range_uint64_arrays_act_as_their_int64_copy(self, rows):
        unsigned = np.array(rows, dtype=np.uint64).reshape(-1, 2)
        signed = unsigned.astype(np.int64)
        assert TowerSet(unsigned) == TowerSet(signed)
        dims, params = GridDims(4, 3), BroadcastParams(3, 2)
        field = signal_field(dims, params.t, unsigned)
        assert field.dtype == signal_field(dims, params.t, signed).dtype
        assert np.array_equal(field, signal_field(dims, params.t, signed))
        ours, theirs = (check_broadcast(dims, params, xy) for xy in (unsigned, signed))
        assert ours.valid == theirs.valid
        for name in ("deficiencies", "received", "outside_towers"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))

    def test_refuses_coords_past_int64(self):
        for c in (Coord(2**63, 0), Coord(0, -(2**63) - 1)):
            with pytest.raises(ValueError, match=r"^tower coordinates must fit in 64-bit"):
                TowerSet([Coord(0, 0), c])

    def test_holds_only_coords(self):
        ts = TowerSet([Coord(1, 2)])
        assert Coord(1, 2) in ts
        assert (1, 2) not in ts and [1, 2] not in ts and None not in ts

    def test_repr_lists_the_towers_in_order(self):
        ts = TowerSet([Coord(3, -1), Coord(1, 2), Coord(3, -1)])
        assert repr(ts) == "TowerSet([Coord(x=1, y=2), Coord(x=3, y=-1)])"
        assert repr(TowerSet()) == "TowerSet([])"

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
