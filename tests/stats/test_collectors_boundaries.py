"""Boundary-condition tests for :mod:`repro.stats.collectors`.

The report tests cover the bulk behaviour; these pin the edges — the
geometric-mean error paths and the exact bucket an on-boundary value
lands in (off-by-one bait whenever ``value / width`` is an integer).
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.collectors import Histogram, geometric_mean


# ----------------------------------------------------------------------
# geometric_mean error paths
# ----------------------------------------------------------------------
def test_geometric_mean_empty_raises_value_error():
    with pytest.raises(ValueError, match="nothing"):
        geometric_mean([])


def test_geometric_mean_zero_raises_value_error():
    with pytest.raises(ValueError, match="positive"):
        geometric_mean([1.0, 0.0, 2.0])


def test_geometric_mean_negative_raises_value_error():
    with pytest.raises(ValueError, match="positive"):
        geometric_mean([-1.0])


def test_geometric_mean_consumes_generators():
    """The input is listified before validation, so a generator is
    checked and averaged like a list (it can only be iterated once)."""
    assert geometric_mean(v for v in [2.0, 8.0]) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Histogram bucket boundaries
# ----------------------------------------------------------------------
def test_value_on_bucket_boundary_goes_to_upper_bucket():
    """Buckets are half-open ``[k*w, (k+1)*w)``: a value exactly on the
    edge belongs to the *upper* bucket."""
    hist = Histogram(bucket_width=10, max_buckets=8)
    hist.add(10.0)
    assert hist.buckets() == [(1, 1)]


def test_zero_lands_in_first_bucket():
    hist = Histogram(bucket_width=10, max_buckets=8)
    hist.add(0.0)
    assert hist.buckets() == [(0, 1)]


def test_value_just_below_boundary_stays_in_lower_bucket():
    hist = Histogram(bucket_width=10, max_buckets=8)
    hist.add(10.0 - 1e-9)
    assert hist.buckets() == [(0, 1)]


def test_span_edge_is_overflow():
    """``span`` itself is the first out-of-range value (half-open)."""
    hist = Histogram(bucket_width=10, max_buckets=4)
    hist.add(hist.span)          # 40 overflows
    hist.add(hist.span - 1e-9)   # 39.999... is the last in-range value
    assert hist.overflow == 1
    assert hist.buckets() == [(3, 1)]


def test_histogram_rejects_zero_buckets():
    with pytest.raises(ValueError):
        Histogram(bucket_width=1.0, max_buckets=0)


def test_all_overflow_percentile_is_inf():
    hist = Histogram(bucket_width=1.0, max_buckets=2)
    hist.add(100.0)
    hist.add(200.0)
    assert hist.percentile(50) == math.inf
    assert hist.max_value == 200.0


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=100))
def test_bucket_index_consistent_with_span(value, width):
    """Every added value is either bucketed in-range or counted as
    overflow — never both, never neither.  (Integer values and widths
    keep the edge comparisons exact.)"""
    hist = Histogram(bucket_width=width, max_buckets=16)
    hist.add(value)
    in_range = sum(count for _, count in hist.buckets())
    assert in_range + hist.overflow == hist.count == 1
    if value >= hist.span:
        assert hist.overflow == 1
    else:
        assert hist.overflow == 0
        ((bucket, _),) = hist.buckets()
        assert bucket * width <= value < (bucket + 1) * width
