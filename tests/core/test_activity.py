"""Tests for the activity monitor (aging counters)."""

import pytest

from repro.core.activity import ActivityMonitor
from repro.core.metadata import FrameMetadata
from repro.core.silcfm import SilcFmScheme
from repro.sim.config import BLOCK_BYTES, SilcFmConfig
from repro.xmem.address import AddressSpace

NM_BLOCKS = 16


def make_monitor(n_frames=4, threshold=5, period=100):
    frames = [FrameMetadata() for _ in range(n_frames)]
    return frames, ActivityMonitor(frames, hot_threshold=threshold,
                                   aging_period=period)


def make_silcfm(threshold):
    """SILC-FM classifies hotness inline in ``access``: a block is hot,
    and its frame locks, when its counter reaches the threshold."""
    space = AddressSpace(NM_BLOCKS * BLOCK_BYTES, 4 * NM_BLOCKS * BLOCK_BYTES)
    return SilcFmScheme(space, SilcFmConfig(hot_threshold=threshold,
                                            enable_bypass=False))


def test_tick_counts_and_triggers_aging():
    frames, monitor = make_monitor(period=10)
    frames[0].nm_count = 8
    aged = [monitor.tick() for _ in range(10)]
    assert aged == [False] * 9 + [True]
    assert frames[0].nm_count == 4
    assert monitor.agings == 1


def test_hotness_classification():
    scheme = make_silcfm(threshold=5)
    frame = scheme.frame(0)
    for _ in range(4):
        scheme.access(0, False)  # frame 0's native block
    assert frame.nm_count == 4 and not frame.locked
    scheme.access(0, False)
    assert frame.nm_count == 5
    assert frame.locked and frame.lock_owner == "nm"


def test_fm_hotness_requires_remap():
    scheme = make_silcfm(threshold=5)
    for frame in scheme.frames:
        frame.fm_count = 10  # nothing remapped: the count means nothing
    scheme.access(0, False)
    assert not any(frame.locked for frame in scheme.frames)
    remote = (NM_BLOCKS + 5) * BLOCK_BYTES
    scheme.access(remote, False)  # installs: the block counts from 1
    frame = scheme.frame(scheme.way_of_block(remote // BLOCK_BYTES))
    for _ in range(3):
        scheme.access(remote, False)
    assert frame.fm_count == 4 and not frame.locked
    scheme.access(remote, False)
    assert frame.locked and frame.lock_owner == "fm"


def test_stale_locks_detected_after_cooling():
    frames, monitor = make_monitor(threshold=8, period=10)
    frames[2].remap = 5
    frames[2].fm_count = 10
    frames[2].lock("fm")
    assert list(monitor.stale_locks()) == []
    for _ in range(20):  # two aging passes: 10 -> 5 -> 2
        monitor.tick()
    assert list(monitor.stale_locks()) == [2]


def test_nm_owner_locks_judged_by_nm_counter():
    frames, monitor = make_monitor(threshold=8)
    frames[0].nm_count = 20
    frames[0].lock("nm")
    frames[0].fm_count = 0  # irrelevant for an nm lock
    assert list(monitor.stale_locks()) == []
    frames[0].nm_count = 3
    assert list(monitor.stale_locks()) == [0]


def test_invalid_parameters_rejected():
    frames = [FrameMetadata()]
    with pytest.raises(ValueError):
        ActivityMonitor(frames, hot_threshold=0)
    with pytest.raises(ValueError):
        ActivityMonitor(frames, aging_period=0)


def test_aging_affects_all_frames():
    frames, monitor = make_monitor(n_frames=3)
    for frame in frames:
        frame.nm_count = 16
        frame.fm_count = 2
    monitor.age_all()
    assert all(f.nm_count == 8 and f.fm_count == 1 for f in frames)
