"""Tests for harness statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.bench.stats import (
    format_percent,
    geometric_mean,
    speedup_percent,
)


class TestGeometricMean:
    def test_single_value(self):
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=10))
    def test_scale_invariance(self, values):
        gm = geometric_mean(values)
        scaled = geometric_mean([v * 2.0 for v in values])
        assert scaled == pytest.approx(gm * 2.0, rel=1e-9)


class TestPercentHelpers:
    def test_speedup_percent(self):
        assert speedup_percent(200.0, 100.0) == pytest.approx(100.0)
        assert speedup_percent(100.0, 100.0) == pytest.approx(0.0)
        assert speedup_percent(100.0, 0.0) == 0.0

    def test_format(self):
        assert format_percent(5.891) == "+5.89%"
        assert format_percent(-0.14) == "-0.14%"
