"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion also enforces its runtime limit.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from gridcast import (
    BroadcastParams,
    Coord,
    DiamondLattice,
    GridDims,
    TowerSet,
    blessing_bounds,
    bound_report,
    check_broadcast,
    construct,
    exact_gamma,
    letterbox_construct,
    lower_t2,
    parse_document,
    rectilinear_lattice,
    towers_in_window,
    upper_t2,
    validate_pattern,
    window_density,
)
from gridcast.cli import main
from naive_oracle import naive_gamma


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
    )
    print(f"PASS criterion {number} [{elapsed:.2f}s < {limit_seconds:g}s]: {description}")


def test_criterion_1_path_reproduction(tmp_path):
    with criterion(1, "path constructions yield the known 3-tower and 1-tower documents", 1.0):
        for m, expected in ((17, 3), (5, 1)):
            out = tmp_path / f"path{m}.json"
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert main(
                    ["construct", "--m", str(m), "--n", "1", "--t", "4", "--out", str(out)]
                ) == 0
                doc = parse_document(out.read_text(encoding="utf-8"))
                assert len(doc.towers) == expected
                assert main(["verify", str(out)]) == 0
            assert f"size={expected}" in buffer.getvalue()
            assert "VALID" in buffer.getvalue()


def test_criterion_2_letterbox_layout():
    expected_towers = TowerSet(
        Coord(x, y)
        for x, y in [
            (1, 4), (4, 1), (7, 4), (10, 1),
            (0, 1), (1, 0), (7, 0), (0, 5), (4, 5), (10, 5), (11, 0), (11, 4),
        ]
    )
    with criterion(2, "12x6 t=4 letterbox at anchor (1,4) gives the known 12-tower layout", 1.0):
        result = letterbox_construct(GridDims(12, 6), rectilinear_lattice(4, Coord(1, 4)))
        assert result.towers == expected_towers
        assert len(result.replacements) == 8
        assert result.raw_count == len(result.towers) == 12


def test_criterion_3_halo_count():
    with criterion(3, "t=3 halo of G_12,6 holds exactly 14 towers = upper bound", 1.0):
        lattice = rectilinear_lattice(3, Coord(0, 0))
        halo = 3 - 2  # the halo grid pads G_12,6 by t-2 on every side
        lo, hi = Coord(-halo, -halo), Coord(12 - 1 + halo, 6 - 1 + halo)
        assert (hi.x - lo.x + 1, hi.y - lo.y + 1) == (14, 8)
        assert len(towers_in_window(lattice, lo, hi)) == 14
        assert upper_t2(12, 6, 3) == 14
        assert letterbox_construct(GridDims(12, 6), lattice).raw_count == 14


def test_criterion_4_construction_conformance_sweep():
    with criterion(4, "construct() valid and within bound for t in 3..6, m,n in 1..40", 60.0):
        for t in (3, 4, 5, 6):
            for m in range(1, 41):
                for n in range(1, 41):
                    dims = GridDims(m, n)
                    towers = construct(dims, t)
                    verdict = check_broadcast(dims, BroadcastParams(t, 2), towers)
                    assert verdict.valid, (m, n, t)
                    assert len(towers) <= upper_t2(m, n, t), (m, n, t)


def test_criterion_5_exact_sandwich():
    with criterion(5, "exact gamma sandwiched by bounds for m,n <= 6, t in {3,4}", 300.0):
        for t in (3, 4):
            for m in range(1, 7):
                for n in range(1, 7):
                    dims = GridDims(m, n)
                    result = exact_gamma(dims, BroadcastParams(t, 2))
                    assert result.status == "optimal", (m, n, t)
                    assert lower_t2(m, n, t) <= result.gamma <= len(construct(dims, t)), (
                        m, n, t, result.gamma,
                    )


def test_criterion_6_oracle_equivalence():
    with criterion(6, "solver equals naive enumeration for m*n <= 16", 300.0):
        for m in range(1, 17):
            for n in range(1, 17):
                if m * n > 16:
                    continue
                for t in (2, 3, 4):
                    for r in (1, 2):
                        expected = naive_gamma(m, n, t, r)
                        result = exact_gamma(GridDims(m, n), BroadcastParams(t, r))
                        assert result.status == "optimal", (m, n, t, r)
                        assert result.gamma == expected, (m, n, t, r, result.gamma, expected)


def test_criterion_7_density_exactness():
    with criterion(7, "window density is exactly 1/(2(t-1)^2) at period multiples", 1.0):
        for t in range(3, 9):
            target = Fraction(1, 2 * (t - 1) ** 2)
            for k in range(1, 6):
                side = 2 * (t - 1) * k
                assert window_density(rectilinear_lattice(t), side) == target, (t, k)


def test_criterion_8_pattern_validity():
    with criterion(8, "patterns validate: rectilinear t in 3..8 all anchors, offset shear", 5.0):
        for t in range(3, 9):
            for ax in range(2 * (t - 1)):
                for ay in range(2 * (t - 1)):
                    verdict = validate_pattern(rectilinear_lattice(t, Coord(ax, ay)))
                    assert verdict.valid, (t, ax, ay)
        assert validate_pattern(DiamondLattice(t=3, anchor=Coord(0, 0), shear=3)).valid


def test_criterion_9_asymptotic_convergence():
    with criterion(9, "bound ratio strictly decreases to below 1.01 at 512x512", 1.0):
        ratios = [bound_report(s, s, 3).ratio for s in (8, 16, 32, 64, 128, 256, 512)]
        assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] < Fraction(101, 100)


def test_criterion_10_specialization_identity():
    with criterion(10, "t=3 bound specializes to floor((m+2)(n+2)/8), one above b32", 1.0):
        for m in range(1, 101):
            for n in range(1, 101):
                expected = (m + 2) * (n + 2) // 8
                assert upper_t2(m, n, 3) == expected, (m, n)
                assert blessing_bounds(m, n).b32 == expected - 1, (m, n)


def test_criterion_11_anchor_mean_identity():
    from gridcast import anchor_raw_counts

    with criterion(11, "anchor-sweep mean equals halo area over 2(t-1)^2 exactly", 5.0):
        for t in (3, 4, 5):
            for m, n in ((5, 5), (12, 6), (9, 13)):
                counts = anchor_raw_counts(GridDims(m, n), t)
                assert len(counts) == 4 * (t - 1) ** 2
                mean = Fraction(sum(counts.values()), len(counts))
                pad = 2 * (t - 2)
                assert mean == Fraction((m + pad) * (n + pad), 2 * (t - 1) ** 2), (t, m, n)
