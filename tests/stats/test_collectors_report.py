"""Tests for statistics collectors and ASCII reporting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.collectors import Histogram, geometric_mean
from repro.stats.report import bar_chart, format_table, grouped_series


# ----------------------------------------------------------------------
# geometric mean
# ----------------------------------------------------------------------
def test_geometric_mean_basics():
    assert geometric_mean([2, 8]) == pytest.approx(4.0)
    assert geometric_mean([5]) == pytest.approx(5.0)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([1.0, -2.0])


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                max_size=30))
def test_geometric_mean_bounded_by_min_max(values):
    g = geometric_mean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


# ----------------------------------------------------------------------
# histogram
# ----------------------------------------------------------------------
def test_histogram_percentiles():
    hist = Histogram(bucket_width=10)
    for v in range(100):
        hist.add(v)
    assert hist.percentile(50) == pytest.approx(50.0)
    assert hist.percentile(100) == pytest.approx(100.0)


def test_histogram_overflow_bucket():
    """Out-of-range values land in the explicit overflow bucket instead
    of being folded into the last regular one."""
    hist = Histogram(bucket_width=1, max_buckets=4)
    hist.add(1000)
    assert hist.overflow == 1
    assert hist.buckets() == []
    assert hist.max_value == 1000
    assert hist.percentile(100) == math.inf


def test_histogram_overflow_percentile_split():
    """Percentiles inside the bucketed range stay exact while the tail
    honestly reports as out of range."""
    hist = Histogram(bucket_width=10, max_buckets=10)  # span = 100
    for v in range(90):
        hist.add(v)
    for _ in range(10):
        hist.add(500)
    assert hist.overflow == 10
    assert hist.count == 100
    assert hist.percentile(50) == pytest.approx(50.0)
    assert hist.percentile(90) == pytest.approx(90.0)
    assert hist.percentile(95) == math.inf
    assert hist.span == 100.0


def test_histogram_rejects_bad_values():
    hist = Histogram(bucket_width=1)
    with pytest.raises(ValueError):
        hist.add(-1)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        Histogram(bucket_width=0)


def test_histogram_empty_percentile():
    assert Histogram(1.0).percentile(50) == 0.0


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.5], ["bbbb", 20.25]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "1.500" in text and "20.250" in text


def test_bar_chart_scales_to_peak():
    text = bar_chart({"a": 1.0, "b": 2.0}, width=10)
    lines = text.splitlines()
    assert lines[1].count("#") == 10  # b is the peak
    assert lines[0].count("#") == 5


def test_bar_chart_empty():
    assert bar_chart({}, title="empty") == "empty"


def test_grouped_series_missing_cells():
    text = grouped_series({"s1": {"x": 1.0}, "s2": {"y": 2.0}})
    assert "-" in text
    assert "s1" in text and "s2" in text
    assert "x" in text and "y" in text
