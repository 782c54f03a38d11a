"""Path and letterbox constructions."""

import importlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import (
    BroadcastParams,
    Coord,
    DiamondLattice,
    GridDims,
    ConstructionInvariantError,
    TowerSet,
    anchor_raw_counts,
    count_in_window,
    best_anchor_construct,
    check_broadcast,
    construct,
    letterbox_construct,
    path_construct,
    rectilinear_lattice,
    towers_in_window,
    upper_t2,
)
from naive_oracle import manhattan_dist

KNOWN_12X6_T4_LAYOUT = {
    # interior towers kept as-is
    (1, 4), (4, 1), (7, 4), (10, 1),
    # halo towers after clamping inward
    (0, 1), (1, 0), (7, 0), (0, 5), (4, 5), (10, 5), (11, 0), (11, 4),
}


# Reference helpers: Coord-level geometry the library computes in arrays.
def contains(dims, v):
    return 0 <= v.x < dims.m and 0 <= v.y < dims.n


def vertices(dims):
    """All vertices in lexicographic (x, y) order."""
    return (Coord(x, y) for x in range(dims.m) for y in range(dims.n))


def clamp_to_grid(v, dims):
    """The unique grid vertex nearest to v (axis-aligned rectangle, separable metric)."""
    return Coord(min(max(v.x, 0), dims.m - 1), min(max(v.y, 0), dims.n - 1))


def halo_window(dims, t):
    """Corners of the halo grid: the grid padded by t-2 on every side."""
    halo = t - 2
    return Coord(-halo, -halo), Coord(dims.m - 1 + halo, dims.n - 1 + halo)


class TestClampToGrid:
    @pytest.mark.parametrize(
        "v,expected",
        [
            (Coord(-2, 1), Coord(0, 1)),
            (Coord(5, 3), Coord(5, 3)),
            (Coord(-1, -2), Coord(0, 0)),
        ],
    )
    def test_examples(self, v, expected):
        assert clamp_to_grid(v, GridDims(12, 6)) == expected

    @given(
        m=st.integers(1, 10),
        n=st.integers(1, 10),
        vx=st.integers(-6, 15),
        vy=st.integers(-6, 15),
    )
    @settings(max_examples=100, deadline=None)
    def test_is_nearest_grid_vertex(self, m, n, vx, vy):
        dims = GridDims(m, n)
        v = Coord(vx, vy)
        clamped = clamp_to_grid(v, dims)
        assert contains(dims, clamped)
        best = min(manhattan_dist(v, w) for w in vertices(dims))
        assert manhattan_dist(v, clamped) == best


class TestPathConstruct:
    @pytest.mark.parametrize(
        "m,t,expected",
        [
            (5, 4, [(2, 0)]),
            (17, 4, [(2, 0), (8, 0), (14, 0)]),
            (1, 3, [(0, 0)]),
        ],
    )
    def test_examples(self, m, t, expected):
        assert [(c.x, c.y) for c in path_construct(GridDims(m, 1), t).towers] == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            path_construct(GridDims(2, 5), 3)
        with pytest.raises(ValueError):
            path_construct(GridDims(5, 1), 2)

    @given(m=st.integers(1, 120), t=st.integers(3, 8))
    @settings(max_examples=150, deadline=None)
    def test_always_valid_and_within_both_bounds(self, m, t):
        towers = path_construct(GridDims(m, 1), t).towers
        assert check_broadcast(GridDims(m, 1), BroadcastParams(t, 2), towers).valid
        assert len(towers) <= (m + 2 * (t - 1)) // (2 * (t - 1))
        assert len(towers) <= upper_t2(m, 1, t)

    def test_builds_no_coord(self, monkeypatch):
        built = []

        def counted(x, y):
            built.append((x, y))
            return Coord(x, y)

        monkeypatch.setattr(importlib.import_module("gridcast.construct"), "Coord", counted)
        for dims in (GridDims(1001, 1), GridDims(1, 1001)):
            result = best_anchor_construct(dims, 4)
            assert (result.generator, result.anchor) == ("path", None)
            assert result.replacements.shape == (0, 2, 2)
            assert result.raw_count == len(result.towers) == 167
        assert built == []


class TestLetterboxConstruct:
    def test_reproduces_12x6_t4_layout(self):
        result = letterbox_construct(GridDims(12, 6), rectilinear_lattice(4, Coord(1, 4)))
        assert {(c.x, c.y) for c in result.towers} == KNOWN_12X6_T4_LAYOUT
        assert result.raw_count == 12
        assert len(result.towers) == 12
        assert result.replacements.shape == (8, 2, 2)
        assert all(x in (-2, 13) or y in (-2, 7) for x, y in result.replacements[:, 0].tolist())

    def test_14_tower_halo_at_t3(self):
        lattice = rectilinear_lattice(3, Coord(0, 0))
        lo, hi = halo_window(GridDims(12, 6), 3)
        assert (lo, hi) == (Coord(-1, -1), Coord(12, 6))
        assert len(towers_in_window(lattice, lo, hi)) == 14
        result = letterbox_construct(GridDims(12, 6), lattice)
        assert result.raw_count == 14

    def test_tiny_grid_clamps_everything_inside(self):
        result = letterbox_construct(GridDims(2, 2), rectilinear_lattice(3))
        assert all(contains(GridDims(2, 2), c) for c in result.towers)
        assert check_broadcast(GridDims(2, 2), BroadcastParams(3, 2), result.towers).valid

    def test_rejects_paths_and_mismatched_strength(self):
        with pytest.raises(ValueError):
            letterbox_construct(GridDims(1, 9), rectilinear_lattice(3))

    def test_valid_sheared_pattern_may_still_fail_the_gate(self):
        # a perfectly good infinite pattern whose halo intersection does not
        # dominate this grid; the verification gate must catch it
        from gridcast import ConstructionInvariantError, validate_pattern

        sheared = DiamondLattice(t=5, anchor=Coord(0, 0), shear=2)
        assert validate_pattern(sheared).valid
        with pytest.raises(ConstructionInvariantError, match="failed verification"):
            letterbox_construct(GridDims(9, 13), sheared)

    def test_sheared_pattern_letterbox_when_it_works(self):
        sheared = DiamondLattice(t=5, anchor=Coord(0, 0), shear=2)
        result = letterbox_construct(GridDims(6, 6), sheared)
        assert check_broadcast(GridDims(6, 6), BroadcastParams(5, 2), result.towers).valid

    @given(
        m=st.integers(2, 14),
        n=st.integers(2, 14),
        t=st.integers(3, 5),
        ax=st.integers(0, 7),
        ay=st.integers(0, 7),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, m, n, t, ax, ay):
        dims = GridDims(m, n)
        result = letterbox_construct(dims, rectilinear_lattice(t, Coord(ax, ay)))
        # cardinality preserved, all towers inside, replacements injective
        assert len(result.towers) == result.raw_count
        assert all(contains(dims, c) for c in result.towers)
        pairs = [(Coord(*a), Coord(*b)) for a, b in result.replacements.tolist()]
        targets = [to for _, to in pairs]
        assert len(set(targets)) == len(targets)
        raw = towers_in_window(rectilinear_lattice(t, Coord(ax, ay)), *halo_window(dims, t))
        kept = {c for c in raw if contains(dims, c)}
        assert set(targets).isdisjoint(kept)
        for origin, target in pairs:
            assert not contains(dims, origin)
            assert target == clamp_to_grid(origin, dims)
            # moving inward strictly shortens the distance to every grid vertex
            for w in (Coord(0, 0), Coord(m - 1, 0), Coord(0, n - 1), Coord(m - 1, n - 1),
                      Coord((m - 1) // 2, (n - 1) // 2)):
                assert manhattan_dist(target, w) < manhattan_dist(origin, w)

    @given(
        m=st.integers(2, 12),
        n=st.integers(2, 12),
        t=st.integers(3, 5),
        ax=st.integers(-3, 3),
        ay=st.integers(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_halo_intersection_alone_dominates_the_grid(self, m, n, t, ax, ay):
        # the replacement step only improves signal; the raw halo towers
        # already supply at least 2 everywhere on the grid
        dims = GridDims(m, n)
        lattice = rectilinear_lattice(t, Coord(ax, ay))
        halo_towers = towers_in_window(lattice, *halo_window(dims, t))
        verdict = check_broadcast(dims, BroadcastParams(t, 2), halo_towers)
        assert verdict.valid


class TestReplacementArray:
    @pytest.mark.parametrize(
        "dims,lattice",
        [
            (GridDims(12, 6), rectilinear_lattice(4, Coord(1, 4))),
            (GridDims(300, 200), DiamondLattice(t=5, anchor=Coord(0, 0), shear=3)),
        ],
    )
    def test_outside_halo_towers_and_their_clamps_in_window_order(self, dims, lattice):
        replacements = letterbox_construct(dims, lattice).replacements
        assert replacements.dtype == np.int64
        assert replacements.ndim == 3 and replacements.shape[1:] == (2, 2)
        assert len(replacements) > 0
        assert not replacements.flags.writeable
        with pytest.raises(ValueError):
            replacements[0, 0, 0] = 0
        raw = towers_in_window(lattice, *halo_window(dims, lattice.t)).xy
        outside = [not contains(dims, Coord(x, y)) for x, y in raw.tolist()]
        np.testing.assert_array_equal(replacements[:, 0], raw[outside])
        np.testing.assert_array_equal(
            replacements[:, 1], np.clip(replacements[:, 0], 0, (dims.m - 1, dims.n - 1))
        )

    @pytest.mark.parametrize("dims", [GridDims(12, 6), GridDims(6, 12)])
    def test_replaced_rows_are_those_clamped_in_x_or_in_y(self, dims):
        lattice = rectilinear_lattice(4, Coord(1, 4))
        raw = towers_in_window(lattice, *halo_window(dims, lattice.t))
        moved = [(v, clamp_to_grid(v, dims)) for v in raw if clamp_to_grid(v, dims) != v]
        # Each grid, in either orientation, clamps towers in x only, in y only and in both.
        kinds = {(v.x != c.x, v.y != c.y) for v, c in moved}
        assert kinds == {(True, False), (False, True), (True, True)}
        replacements = letterbox_construct(dims, lattice).replacements.tolist()
        assert [(Coord(*v), Coord(*c)) for v, c in replacements] == moved

    def test_builds_no_coord_per_tower(self, monkeypatch):
        # A best-anchor construct builds a fixed number of Coords (the anchor
        # and the halo corners), however many towers it replaces.
        built = []

        class Counted(Coord):
            def __init__(self, x, y):
                built.append((x, y))
                super().__init__(x, y)

        for name in ("gridcast.construct", "gridcast.grid"):
            monkeypatch.setattr(importlib.import_module(name), "Coord", Counted)
        per_side = {}
        for side in (220, 580):
            built.clear()
            result = best_anchor_construct(GridDims(side, side), 3)
            assert result.generator == "best-anchor"
            per_side[side] = (len(built), len(result.replacements))
        assert per_side[220][1] != per_side[580][1]
        assert per_side[220][0] == per_side[580][0]


class TestBestAnchor:
    def test_12x6_t4_minimum(self):
        result = best_anchor_construct(GridDims(12, 6), 4)
        # exhaustive sweep oracle: minimum over the 36 anchors is 7, first at (0,2)
        assert result.raw_count == 7
        assert result.anchor == Coord(0, 2)
        assert len(result.towers) <= upper_t2(12, 6, 4) == 8

    def test_12x6_t3_minimum(self):
        result = best_anchor_construct(GridDims(12, 6), 3)
        assert result.raw_count == 14
        assert len(result.towers) <= 14

    def test_sweep_matches_brute_force_counts(self):
        dims = GridDims(12, 6)
        counts = anchor_raw_counts(dims, 4)
        assert len(counts) == 36
        lo, hi = halo_window(dims, 4)
        for anchor, count in counts.items():
            brute = sum(
                1
                for x in range(lo.x, hi.x + 1)
                for y in range(lo.y, hi.y + 1)
                if (x - anchor.x) % 3 == 0
                and (y - anchor.y) % 3 == 0
                and ((x - anchor.x) // 3 + (y - anchor.y) // 3) % 2 == 0
            )
            assert count == brute

    @pytest.mark.parametrize(
        "t,m,n",
        [(3, 5, 5), (3, 12, 6), (3, 9, 13), (4, 12, 6), (5, 9, 13)],
    )
    def test_anchor_mean_is_exactly_the_halo_density(self, t, m, n):
        counts = anchor_raw_counts(GridDims(m, n), t)
        mean = Fraction(sum(counts.values()), len(counts))
        pad = 2 * (t - 2)
        assert mean == Fraction((m + pad) * (n + pad), 2 * (t - 1) ** 2)


class TestClosedFormSweep:
    """anchor_raw_counts against count_in_window, which sums its columns in closed form."""

    @given(m=st.integers(2, 40), n=st.integers(2, 40), t=st.integers(3, 30))
    @settings(max_examples=30, deadline=None)
    def test_every_anchor_matches_the_window_count(self, m, n, t):
        # Grids smaller than one period (halo wider than the grid) included.
        lo, hi = halo_window(GridDims(m, n), t)
        counts = anchor_raw_counts(GridDims(m, n), t)
        period = 2 * (t - 1)
        assert len(counts) == period**2 == counts.array.size
        for anchor, count in counts.items():
            assert count == count_in_window(rectilinear_lattice(t, anchor), lo, hi)
            assert count == counts.array[anchor.x, anchor.y]
        assert counts.best_anchor() == min(counts, key=lambda a: (counts[a], a))
        assert counts.best_anchor() == Coord(
            *np.unravel_index(np.argmin(counts.array), counts.array.shape)
        )

    def test_keys_are_the_period_in_lexicographic_order(self):
        counts = anchor_raw_counts(GridDims(12, 6), 4)
        assert list(counts) == sorted(Coord(x, y) for x in range(6) for y in range(6))
        assert all(type(v) is int for v in counts.values())
        for outside in (Coord(6, 0), Coord(-1, 0), Coord(0, 6), (0, 0)):
            assert outside not in counts
            with pytest.raises(KeyError):
                counts[outside]

    def test_array_is_read_only(self):
        counts = anchor_raw_counts(GridDims(12, 6), 4)
        assert counts.array.dtype == np.int64
        with pytest.raises(ValueError):
            counts.array[0, 0] = 0

    def test_large_grid_sample(self):
        dims, t = GridDims(1900, 1900), 60
        lo, hi = halo_window(dims, t)
        counts = anchor_raw_counts(dims, t)
        assert len(counts) == 118**2
        for anchor in list(counts)[::97]:
            lattice = rectilinear_lattice(t, anchor)
            assert counts[anchor] == count_in_window(lattice, lo, hi)

    def test_max_strength_needs_no_quadratic_array(self):
        counts = anchor_raw_counts(GridDims(3, 3), 10_000)
        assert len(counts) == 19_998**2
        assert (counts.best_anchor(), counts[Coord(0, 0)]) == (Coord(0, 0), 2)
        with pytest.raises(ValueError):
            anchor_raw_counts(GridDims(3, 3), 10_001)

    def test_enumeration_disagreeing_with_the_closed_form_is_caught(self, monkeypatch):
        construct_module = importlib.import_module("gridcast.construct")
        original = construct_module.letterbox_construct

        def off_by_one(dims, lattice):
            result = original(dims, lattice)
            return replace(result, raw_count=result.raw_count + 1)

        monkeypatch.setattr(construct_module, "letterbox_construct", off_by_one)
        with pytest.raises(ConstructionInvariantError, match="closed-form count 7"):
            best_anchor_construct(GridDims(12, 6), 4)

    @pytest.mark.parametrize("side,t", [(580, 3), (720, 4)])
    def test_rectilinear_best_anchor_sorts_nothing(self, monkeypatch, side, t):
        # towers_in_window builds its towers in (x, y) order and clamping a
        # rectilinear pattern keeps it, so neither TowerSet lexsorts.
        sorted_lengths = []
        real = np.lexsort

        def spy(keys, *args, **kwargs):
            sorted_lengths.append(len(keys[0]))
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        TowerSet(np.array([[1, 0], [0, 0]]))
        assert sorted_lengths == [2]  # the spy sees TowerSet's sort
        result = best_anchor_construct(GridDims(side, side), t)
        assert result.generator == "best-anchor" and len(result.replacements)
        assert sorted_lengths == [2]


class TestConstructDispatcher:
    def test_single_vertex(self):
        assert construct(GridDims(1, 1), 3).towers == (Coord(0, 0),)

    def test_path_and_transposed_path(self):
        assert len(construct(GridDims(17, 1), 4)) == 3
        assert [(c.x, c.y) for c in construct(GridDims(1, 17), 4)] == [
            (0, 2), (0, 8), (0, 14),
        ]

    def test_rectangle(self):
        towers = construct(GridDims(12, 6), 3)
        assert len(towers) <= 14
        assert check_broadcast(GridDims(12, 6), BroadcastParams(3, 2), towers).valid

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            construct(GridDims(4, 4), 2)

    def test_result_names_its_generator(self):
        path = best_anchor_construct(GridDims(1, 17), 4)
        assert (path.generator, path.anchor) == ("path", None)
        assert path.replacements.shape == (0, 2, 2)
        assert path.raw_count == len(path.towers) == 3
        best = best_anchor_construct(GridDims(12, 6), 4)
        assert (best.generator, best.anchor, best.raw_count) == ("best-anchor", Coord(0, 2), 7)
        forced = letterbox_construct(GridDims(12, 6), rectilinear_lattice(4, Coord(0, 2)))
        assert forced.generator == "letterbox"
        assert forced.towers == best.towers
        np.testing.assert_array_equal(forced.replacements, best.replacements)

    @given(m=st.integers(1, 24), n=st.integers(1, 24), t=st.integers(3, 6))
    @settings(max_examples=100, deadline=None)
    def test_always_valid_and_within_bound(self, m, n, t):
        dims = GridDims(m, n)
        towers = construct(dims, t)
        assert check_broadcast(dims, BroadcastParams(t, 2), towers).valid
        assert len(towers) <= upper_t2(m, n, t)
