"""Closed-form bound calculators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import (
    blessing_bounds,
    bound_report,
    lower_t2,
    upper_t2,
)


class TestUpperT2:
    @pytest.mark.parametrize(
        "m,n,t,expected",
        [(12, 6, 3, 14), (12, 6, 4, 8), (1, 1, 3, 1)],
    )
    def test_examples(self, m, n, t, expected):
        assert upper_t2(m, n, t) == expected

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            upper_t2(5, 5, 2)


class TestLowerT2:
    @pytest.mark.parametrize(
        "m,n,t,expected",
        [(12, 6, 3, 9), (12, 6, 4, 4), (1, 1, 3, 1)],
    )
    def test_examples(self, m, n, t, expected):
        assert lower_t2(m, n, t) == expected

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            lower_t2(5, 5, 2)


class TestClassicalBounds:
    def test_blessing_examples(self):
        assert blessing_bounds(12, 6) == (32, 13)
        assert blessing_bounds(16, 16).b32 == 39


class TestBoundReport:
    def test_small_grid(self):
        report = bound_report(12, 6, 3)
        assert (report.upper_t2, report.lower_t2) == (14, 9)
        assert report.ratio == Fraction(14, 9)

    def test_degenerate_grid(self):
        report = bound_report(1, 1, 3)
        assert (report.upper_t2, report.lower_t2, report.ratio) == (1, 1, 1)

    def test_large_grid_ratio_near_one(self):
        assert bound_report(512, 512, 3).ratio <= Fraction(101, 100)

    @given(m=st.integers(1, 60), n=st.integers(1, 60), t=st.integers(3, 9))
    @settings(max_examples=150, deadline=None)
    def test_bounds_sandwich(self, m, n, t):
        report = bound_report(m, n, t)
        assert report.lower_t2 <= report.upper_t2
        assert report.ratio >= 1
        # lower_t2 is the ceiling of mn / (2(t-1)^2).
        density = 2 * (t - 1) ** 2
        assert (report.lower_t2 - 1) * density < m * n <= report.lower_t2 * density

    def test_ratio_decreases_as_grid_doubles(self):
        ratios = [bound_report(s, s, 3).ratio for s in (8, 16, 32, 64, 128, 256, 512)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    @given(m=st.integers(1, 100), n=st.integers(1, 100))
    @settings(max_examples=120, deadline=None)
    def test_t3_specialization(self, m, n):
        assert upper_t2(m, n, 3) == (m + 2) * (n + 2) // 8
        assert blessing_bounds(m, n).b32 == upper_t2(m, n, 3) - 1
