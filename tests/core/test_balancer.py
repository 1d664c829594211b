"""Tests for the balancer's lifetime accounting and read-side API.

The windowed decision logic is covered in ``test_predictor_bypass.py``;
these pin the satellite additions: lifetime counters that include the
partial final window, ``current_rate()``'s boundary fallback, and the
transition observer telemetry hooks into.
"""

import pytest

from repro.core.bypass import BandwidthBalancer


# ----------------------------------------------------------------------
# lifetime accounting (the partial-final-window fix)
# ----------------------------------------------------------------------
def test_lifetime_counts_every_access():
    balancer = BandwidthBalancer(0.8, window=16)
    for i in range(40):  # 2.5 windows — 8 misses never complete one
        balancer.record(i % 2 == 0)
    assert balancer.total_accesses == 40
    assert balancer.nm_accesses == 20
    assert balancer.lifetime_rate == pytest.approx(0.5)
    assert balancer.windows_observed == 2
    # 8 misses sit in the open window: 8 more complete it
    for _ in range(7):
        balancer.record(True)
    assert balancer.windows_observed == 2
    balancer.record(True)
    assert balancer.windows_observed == 3


def test_lifetime_rate_differs_from_window_rate():
    """The trailing partial window is invisible to the windowed state
    but must show in the lifetime fraction."""
    balancer = BandwidthBalancer(0.8, window=16)
    for _ in range(16):
        balancer.record(False)  # one full all-FM window
    for _ in range(8):
        balancer.record(True)   # partial all-NM tail, discarded at drain
    assert balancer.last_window_rate == 0.0
    assert balancer.lifetime_rate == pytest.approx(8 / 24)


def test_lifetime_rate_empty():
    assert BandwidthBalancer(0.8, window=16).lifetime_rate == 0.0


# ----------------------------------------------------------------------
# current_rate
# ----------------------------------------------------------------------
def test_current_rate_tracks_inflight_window():
    balancer = BandwidthBalancer(0.8, window=16)
    balancer.record(True)
    balancer.record(True)
    balancer.record(False)
    assert balancer.current_rate() == pytest.approx(2 / 3)


def test_current_rate_falls_back_at_window_boundary():
    """Exactly at a boundary the in-flight window is empty; a telemetry
    sample there must read the just-completed window's rate, not 0."""
    balancer = BandwidthBalancer(0.8, window=16)
    for i in range(16):
        balancer.record(i < 12)  # completes a 0.75 window
    assert balancer.windows_observed == 1  # the open window is empty
    assert balancer.current_rate() == pytest.approx(0.75)


def test_last_window_rate_updates_per_window():
    balancer = BandwidthBalancer(0.8, window=16)
    for _ in range(16):
        balancer.record(True)
    assert balancer.last_window_rate == 1.0
    for _ in range(16):
        balancer.record(False)
    assert balancer.last_window_rate == 0.0


# ----------------------------------------------------------------------
# transitions and the observer hook
# ----------------------------------------------------------------------
def test_transition_counter_counts_both_directions():
    balancer = BandwidthBalancer(0.8, window=16)
    for _ in range(16):
        balancer.record(True)   # off -> on
    for _ in range(16):
        balancer.record(False)  # on -> off
    assert balancer.transitions == 2
    assert not balancer.bypassing


def test_no_transition_when_mode_stable():
    balancer = BandwidthBalancer(0.8, window=16)
    for _ in range(64):
        balancer.record(False)
    assert balancer.transitions == 0


def test_on_transition_observer_fires_with_mode_and_rate():
    seen = []
    balancer = BandwidthBalancer(0.8, window=16)
    balancer.on_transition = lambda bypassing, rate: seen.append(
        (bypassing, rate))
    for _ in range(16):
        balancer.record(True)
    for i in range(16):
        balancer.record(i % 2 == 0)
    assert seen == [(True, 1.0), (False, 0.5)]


def test_observer_not_called_without_flip():
    seen = []
    balancer = BandwidthBalancer(0.8, window=16)
    balancer.on_transition = lambda *args: seen.append(args)
    for _ in range(32):
        balancer.record(True)  # second window stays bypassing
    assert len(seen) == 1
