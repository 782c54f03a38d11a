"""Periodic tower patterns: membership, windows, density, validation."""

import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridcast.lattice as lattice_module
from gridcast import (
    Coord,
    DiamondLattice,
    PatternVerdict,
    TowerSet,
    count_in_window,
    rectilinear_lattice,
    towers_in_window,
    validate_pattern,
    window_density,
)
from gridcast.grid import MAX_STRENGTH
from naive_oracle import signal

OFFSET_TILING = DiamondLattice(t=3, anchor=Coord(0, 0), shear=3)


def pattern_box(lattice):
    """Corners of the box validate_pattern checks, from its docstring."""
    s = lattice.t - 1
    c = lattice.shear % s
    lo = Coord(lattice.anchor.x, lattice.anchor.y + c - 2 * s)
    return lo, Coord(lo.x + s + c, lo.y + 3 * s - c)


def box_vertices(lo, hi):
    return [Coord(x, y) for x in range(lo.x, hi.x + 1) for y in range(lo.y, hi.y + 1)]


def brute_force_members(lattice, coeff_range=25):
    """Membership oracle: enumerate small coefficient combinations directly."""
    u, w = lattice.basis_u, lattice.basis_w
    return {
        Coord(
            lattice.anchor.x + a * u.x + b * w.x,
            lattice.anchor.y + a * u.y + b * w.y,
        )
        for a in range(-coeff_range, coeff_range + 1)
        for b in range(-coeff_range, coeff_range + 1)
    }


class TestRectilinearLattice:
    def test_t3_tower_positions(self):
        lattice = rectilinear_lattice(3)
        for v in (Coord(0, 0), Coord(2, 2), Coord(4, 0), Coord(0, 4)):
            assert count_in_window(lattice, v, v) == 1

    def test_t4_through_anchor(self):
        lattice = rectilinear_lattice(4, Coord(0, 3))
        for v in (Coord(3, 6), Coord(6, 3), Coord(3, 0), Coord(6, 9)):
            assert count_in_window(lattice, v, v) == 1

    def test_non_members(self):
        lattice = rectilinear_lattice(3)
        for v in (Coord(1, 1), Coord(2, 0)):
            assert count_in_window(lattice, v, v) == 0

    def test_rejects_small_strength(self):
        with pytest.raises(ValueError):
            rectilinear_lattice(2)
        with pytest.raises(ValueError):
            DiamondLattice(t=2, anchor=Coord(0, 0), shear=1)

    def test_rejects_strength_over_the_cap(self):
        assert rectilinear_lattice(MAX_STRENGTH).t == MAX_STRENGTH
        with pytest.raises(ValueError, match=r"^strength t must be in \[3, 10000\], got 10001$"):
            DiamondLattice(t=MAX_STRENGTH + 1, anchor=Coord(0, 0), shear=1)

    def test_basis(self):
        lattice = rectilinear_lattice(4)
        assert lattice.basis_u == Coord(3, 3)
        assert lattice.basis_w == Coord(3, -3)


class TestLatticeContains:
    def test_far_member_matches_brute_force(self):
        lattice = rectilinear_lattice(3)
        v = Coord(200, -196)
        assert count_in_window(lattice, v, v) == 1
        assert Coord(200, -196) in brute_force_members(lattice, coeff_range=120)

    @given(
        t=st.integers(3, 6),
        shear=st.integers(-3, 8),
        ax=st.integers(-2, 2),
        ay=st.integers(-2, 2),
        vx=st.integers(-15, 15),
        vy=st.integers(-15, 15),
    )
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_brute_force(self, t, shear, ax, ay, vx, vy):
        lattice = DiamondLattice(t=t, anchor=Coord(ax, ay), shear=shear)
        v = Coord(vx, vy)
        assert (count_in_window(lattice, v, v) == 1) == (v in brute_force_members(lattice))


class TestTowersInWindow:
    def test_t3_window_count(self):
        towers = towers_in_window(rectilinear_lattice(3), Coord(0, 0), Coord(15, 9))
        assert len(towers) == 20
        # independent characterization: even coordinates with x+y divisible by 4
        assert all(c.x % 2 == 0 and c.y % 2 == 0 and (c.x + c.y) % 4 == 0 for c in towers)

    def test_t4_window_count(self):
        towers = towers_in_window(
            rectilinear_lattice(4, Coord(0, 3)), Coord(0, 0), Coord(15, 9)
        )
        assert len(towers) == 12

    def test_single_point_window(self):
        lattice = rectilinear_lattice(5, Coord(7, -2))
        assert towers_in_window(lattice, Coord(7, -2), Coord(7, -2)).towers == (
            Coord(7, -2),
        )

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            towers_in_window(rectilinear_lattice(3), Coord(1, 0), Coord(0, 0))

    @given(
        t=st.integers(3, 6),
        shear=st.integers(-2, 8),
        ax=st.integers(-3, 3),
        ay=st.integers(-3, 3),
        x0=st.integers(-12, 6),
        y0=st.integers(-12, 6),
        width=st.integers(0, 14),
        height=st.integers(0, 14),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_scan(self, t, shear, ax, ay, x0, y0, width, height):
        lattice = DiamondLattice(t=t, anchor=Coord(ax, ay), shear=shear)
        lo, hi = Coord(x0, y0), Coord(x0 + width, y0 + height)
        got = set(towers_in_window(lattice, lo, hi))
        expected = {
            Coord(x, y)
            for x in range(lo.x, hi.x + 1)
            for y in range(lo.y, hi.y + 1)
            if count_in_window(lattice, Coord(x, y), Coord(x, y)) == 1
        }
        assert got == expected
        assert count_in_window(lattice, lo, hi) == len(expected)

    @given(
        t=st.integers(3, 6),
        shear=st.integers(-2, 8),
        ax=st.integers(-3, 3),
        ay=st.integers(-3, 3),
        x0=st.integers(-12, 6),
        y0=st.integers(-12, 6),
        width=st.integers(0, 14),
        height=st.integers(0, 14),
    )
    @settings(max_examples=100, deadline=None)
    def test_builds_its_array_in_order(self, t, shear, ax, ay, x0, y0, width, height):
        # The column walk hands TowerSet the brute-force members, distinct and
        # already sorted by (x, y), which TowerSet keeps without a sort.
        lattice = DiamondLattice(t=t, anchor=Coord(ax, ay), shear=shear)
        lo, hi = Coord(x0, y0), Coord(x0 + width, y0 + height)
        built = []

        def spy(xy):
            built.append(xy.copy())
            return TowerSet(xy)

        with patch.object(lattice_module, "TowerSet", spy):
            towers_in_window(lattice, lo, hi)
        (xy,) = built
        # A tower here has |x - ax|, |y - ay| <= 23, so |b| = |dx - dy| / 2(t-1) <= 9
        # and |a| = |dx - b*shear| / (t-1) <= 47.
        members = brute_force_members(lattice, coeff_range=47)
        inside = [c for c in members if lo.x <= c.x <= hi.x and lo.y <= c.y <= hi.y]
        assert [Coord(*p) for p in xy.tolist()] == sorted(inside)

    @given(
        t=st.integers(3, 6),
        shear=st.integers(-2, 8),
        pick_u=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodicity_under_basis_translation(self, t, shear, pick_u):
        lattice = DiamondLattice(t=t, anchor=Coord(0, 0), shear=shear)
        step = lattice.basis_u if pick_u else lattice.basis_w
        lo, hi = Coord(-6, -6), Coord(9, 9)
        base = towers_in_window(lattice, lo, hi)
        shifted = towers_in_window(
            lattice,
            Coord(lo.x + step.x, lo.y + step.y),
            Coord(hi.x + step.x, hi.y + step.y),
        )
        assert {Coord(c.x + step.x, c.y + step.y) for c in base} == set(shifted)

    @given(
        t=st.integers(3, 7),
        shear=st.integers(-15, 15),
        k=st.sampled_from([-2, 1, 10**30]),
        ax=st.integers(-40, 40),
        ay=st.integers(-40, 40),
        x0=st.integers(-200, 200),
        y0=st.integers(-200, 200),
        width=st.integers(1, 300),
        height=st.integers(1, 300),
    )
    @settings(max_examples=100, deadline=None)
    def test_shear_is_taken_mod_t_minus_1(self, t, shear, k, ax, ay, x0, y0, width, height):
        # w + k*u has shear c + k(t-1), so both shears span one lattice; the
        # lattice still reports the shear it was given.
        lo, hi = Coord(x0, y0), Coord(x0 + width - 1, y0 + height - 1)
        base = DiamondLattice(t=t, anchor=Coord(ax, ay), shear=shear)
        moved = DiamondLattice(t=t, anchor=Coord(ax, ay), shear=shear + k * (t - 1))
        assert moved.shear == shear + k * (t - 1)
        assert towers_in_window(moved, lo, hi) == towers_in_window(base, lo, hi)
        far = Coord(hi.x + 7 * width, hi.y + 5 * height)
        assert count_in_window(moved, lo, far) == count_in_window(base, lo, far)


class TestWindowDensity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_t3_period_multiples(self, k):
        assert window_density(rectilinear_lattice(3), 4 * k) == Fraction(1, 8)

    @pytest.mark.parametrize("k", [1, 2])
    def test_t4_period_multiples(self, k):
        assert window_density(rectilinear_lattice(4), 6 * k) == Fraction(1, 18)

    def test_unit_window_holding_anchor(self):
        assert window_density(rectilinear_lattice(3), 1) == 1

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            window_density(rectilinear_lattice(3), 0)

    @given(
        t=st.integers(3, 6),
        ax=st.integers(-5, 5),
        ay=st.integers(-5, 5),
        k=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_count_at_period_multiples_any_anchor(self, t, ax, ay, k):
        # rectilinear patterns repeat with period 2(t-1) along both axes, so
        # any period-multiple window holds exactly area / (2(t-1)^2) towers
        lattice = rectilinear_lattice(t, Coord(ax, ay))
        side = 2 * (t - 1) * k
        count = count_in_window(lattice, Coord(0, 0), Coord(side - 1, side - 1))
        assert count * 2 * (t - 1) ** 2 == side * side


def row_loop_count(lattice, lo, hi):
    """Towers in the window, summed over every lattice row that meets it.

    A row holds the towers anchor + a*u + b*w of one b, and along it both
    coordinates grow by t-1. b is pinned by x - y modulo 2(t-1), and for each
    b the feasible a values form an interval: the intersection of the x and y
    window constraints. Shears c and c + (t-1) span the same lattice (w + u
    replaces w), so the walk uses the shear reduced mod t-1.
    """
    step = lattice.t - 1
    period = 2 * step
    wx = lattice.shear % step
    wy = wx - period
    rx0, rx1 = lo.x - lattice.anchor.x, hi.x - lattice.anchor.x
    ry0, ry1 = lo.y - lattice.anchor.y, hi.y - lattice.anchor.y
    total = 0
    # -((-p) // q) is the ceiling of p / q.
    for b in range(-((ry1 - rx0) // period), (rx1 - ry0) // period + 1):
        a_lo = max(-((b * wx - rx0) // step), -((b * wy - ry0) // step))
        a_hi = min((rx1 - b * wx) // step, (ry1 - b * wy) // step)
        total += max(a_hi - a_lo + 1, 0)
    return total


class TestCountPerPeriod:
    @given(
        t=st.integers(3, 7),
        shear=st.integers(-15, 15),
        ax=st.integers(-40, 40),
        ay=st.integers(-40, 40),
        x0=st.integers(-300, 300),
        y0=st.integers(-300, 300),
        width=st.integers(1, 400),
        height=st.integers(1, 400),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_row_loop(self, t, shear, ax, ay, x0, y0, width, height):
        lattice = DiamondLattice(t=t, anchor=Coord(ax, ay), shear=shear)
        lo, hi = Coord(x0, y0), Coord(x0 + width - 1, y0 + height - 1)
        assert count_in_window(lattice, lo, hi) == row_loop_count(lattice, lo, hi)

    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_whole_periods_and_their_edges(self, t):
        period = 2 * (t - 1) ** 2
        lattice = DiamondLattice(t=t, anchor=Coord(1, -2), shear=t)
        for width in (period - 1, period, period + 1, 3 * period):
            for height in (1, period, 2 * period + 1):
                lo, hi = Coord(-5, 7), Coord(-5 + width - 1, 7 + height - 1)
                assert count_in_window(lattice, lo, hi) == row_loop_count(lattice, lo, hi)

    @pytest.mark.parametrize("t", [60, 97, 10_000])
    @pytest.mark.parametrize("shear", ["t-1", 1, 7])
    @pytest.mark.parametrize(
        "anchor,lo,size",
        [
            (Coord(-17, 5), Coord(-123_457, 98_765), (10**6, 999_983)),
            (Coord(3, -40_001), Coord(250, -7), (777_777, 1)),
            (Coord(-9, -2), Coord(-1, -1_000_000), (1, 10**6)),
        ],
    )
    def test_large_windows_match_row_loop(self, t, shear, anchor, lo, size):
        # Sides up to 10^6 and periods up to 2*9999^2 take the floor sums
        # through many reduction steps, unlike the small-t hypothesis cases.
        lattice = DiamondLattice(t=t, anchor=anchor, shear=t - 1 if shear == "t-1" else shear)
        hi = Coord(lo.x + size[0] - 1, lo.y + size[1] - 1)
        assert count_in_window(lattice, lo, hi) == row_loop_count(lattice, lo, hi)


class TestValidatePattern:
    @pytest.mark.parametrize("t", range(3, 9))
    def test_rectilinear_patterns_are_valid(self, t):
        assert validate_pattern(rectilinear_lattice(t)).valid

    def test_offset_tiling_is_valid(self):
        assert validate_pattern(OFFSET_TILING).valid

    @pytest.mark.parametrize("t", range(3, 11))
    def test_every_shear_is_valid(self, t):
        # the lattice module docstring proves this for every shear; one
        # shear period either side of the rectilinear t-1 checks it
        for shear in range(-(t - 1), 2 * (t - 1) + 1):
            verdict = validate_pattern(DiamondLattice(t=t, anchor=Coord(0, 0), shear=shear))
            assert verdict == PatternVerdict(True, None), shear

    def test_reports_first_under_supplied_vertex(self, monkeypatch):
        # No pattern fails, so drop the lowest tower inside the checked box;
        # the counterexample must be the first box vertex that then receives
        # less than 2, by a per-tower signal sum.
        for lattice in (OFFSET_TILING, DiamondLattice(t=5, anchor=Coord(2, -1), shear=-7)):
            lo, hi = pattern_box(lattice)
            s = lattice.t - 1
            real = lattice_module.towers_in_window
            dropped = min(real(lattice, lo, hi), key=lambda c: (c.y, c.x))
            kept = set(real(lattice, Coord(lo.x - s, lo.y - s), Coord(hi.x + s, hi.y + s)))
            kept.discard(dropped)
            first = next(
                v
                for v in box_vertices(lo, hi)
                if sum(signal(lattice.t, tower, v) for tower in kept) < 2
            )
            monkeypatch.setattr(
                lattice_module,
                "towers_in_window",
                lambda lat, a, b: TowerSet([c for c in real(lat, a, b) if c != dropped]),
            )
            assert validate_pattern(lattice) == PatternVerdict(False, first)
            monkeypatch.undo()

    @pytest.mark.parametrize("t", range(3, 6))
    def test_box_holds_every_residue_class(self, t):
        # Every plane vertex v is a lattice translate of some box vertex b:
        # anchor + (v - b) is a tower.
        for shear in (-2 * t, 0, 1, t - 1, t, 3 * t + 1):
            lattice = DiamondLattice(t=t, anchor=Coord(1, -2), shear=shear)
            box = box_vertices(*pattern_box(lattice))
            for vx in range(-4, 5):
                for vy in range(-4, 5):
                    shifts = (Coord(1 + vx - b.x, -2 + vy - b.y) for b in box)
                    assert any(
                        count_in_window(lattice, c, c) == 1 for c in shifts
                    ), (shear, vx, vy)

    @pytest.mark.parametrize(
        "lattice,seconds",
        [
            (DiamondLattice(t=3, anchor=Coord(0, 0), shear=10**12), 0.05),
            (rectilinear_lattice(400), 0.1),
        ],
    )
    def test_check_takes_milliseconds(self, lattice, seconds):
        # The box is set by t and shear mod (t-1) alone, so a huge shear costs
        # what a small one does. Best of three, to ride out a busy machine.
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            assert validate_pattern(lattice) == PatternVerdict(True, None)
            timings.append(time.perf_counter() - start)
        assert min(timings) < seconds

    def test_box_over_the_cell_cap_is_refused_before_it_is_built(self):
        lattice = DiamondLattice(t=2897, anchor=Coord(0, 0), shear=2895)
        with pytest.raises(ValueError, match=r"^pattern check at t=2897 needs a 5792x5794 box"):
            validate_pattern(lattice)


class TestTowerSeparation:
    @given(
        t=st.integers(3, 7),
        shear=st.integers(-4, 10),
        a=st.integers(-4, 4),
        b=st.integers(-4, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_pairwise_distance_at_least_two_radii(self, t, shear, a, b):
        # any two towers differ by a*u + b*w, whose 1-norm is >= 2(t-1)
        if a == 0 and b == 0:
            return
        lattice = DiamondLattice(t=t, anchor=Coord(0, 0), shear=shear)
        u, w = lattice.basis_u, lattice.basis_w
        vec = Coord(a * u.x + b * w.x, a * u.y + b * w.y)
        assert abs(vec.x) + abs(vec.y) >= 2 * (t - 1)
