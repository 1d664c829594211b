"""Tests for the channel scheduler, bank timing and device splitting."""

import pytest

from repro.dram.device import MemoryDevice
from repro.dram.request import DRAMRequest, Priority
from repro.dram.timing import DDR3_TIMINGS, HBM2_TIMINGS
from repro.sim.engine import Engine

CAP = 1 << 20


def make_device(timings=DDR3_TIMINGS):
    engine = Engine()
    return engine, MemoryDevice(engine, timings, CAP)


def run_access(device, engine, addr, size, is_write=False,
               priority=Priority.DEMAND):
    done = []
    device.access(addr, size, is_write, priority, done.append)
    engine.run()
    assert len(done) == 1
    return done[0]


def test_single_read_latency_is_closed_bank_access():
    engine, device = make_device()
    t = run_access(device, engine, 0, 64)
    expected = (DDR3_TIMINGS.t_rcd + DDR3_TIMINGS.t_cas
                + DDR3_TIMINGS.burst_mem_cycles(64)) * 4
    assert t == pytest.approx(expected)


def test_row_hit_is_faster_than_first_access():
    engine, device = make_device()
    t1 = run_access(device, engine, 0, 64)
    start = engine.now
    done = []
    device.access(0, 64, False, Priority.DEMAND, done.append)
    engine.run()
    t2 = done[0] - start
    assert t2 < t1
    expected = (DDR3_TIMINGS.t_cas + DDR3_TIMINGS.burst_mem_cycles(64)) * 4
    assert t2 == pytest.approx(expected)


def test_row_conflict_pays_precharge():
    engine, device = make_device()
    run_access(device, engine, 0, 64)  # opens row 0 on (ch0, bank0)
    # same channel + bank, different row: stride = row_bytes * channels
    conflict_addr = DDR3_TIMINGS.row_bytes * DDR3_TIMINGS.channels * DDR3_TIMINGS.banks
    start = engine.now
    done = []
    device.access(conflict_addr, 64, False, Priority.DEMAND, done.append)
    engine.run()
    latency = done[0] - start
    hit = (DDR3_TIMINGS.t_cas + DDR3_TIMINGS.burst_mem_cycles(64)) * 4
    assert latency > hit


def test_channel_stats_track_reads_and_writes():
    engine, device = make_device()
    run_access(device, engine, 0, 64)
    run_access(device, engine, 64, 64, is_write=True)
    stats = device.stats()
    assert stats.reads == 1
    assert stats.writes == 1
    assert stats.bytes_read == 64
    assert stats.bytes_written == 64


def test_priority_classes_accounted_separately():
    engine, device = make_device()
    run_access(device, engine, 0, 64, priority=Priority.DEMAND)
    run_access(device, engine, 64, 64, priority=Priority.BACKGROUND)
    stats = device.stats()
    assert stats.demand_bytes == 64
    assert stats.background_bytes == 64


def test_demand_beats_background_in_scheduling():
    engine, device = make_device()
    order = []
    # fill one channel with a background request, then a demand one;
    # submit both before running so the scheduler chooses.
    device.access(0, 64, False, Priority.BACKGROUND, lambda t: order.append("bg"))
    device.access(64 * DDR3_TIMINGS.channels, 64, False, Priority.DEMAND,
                  lambda t: order.append("demand"))
    # both land on channel 0 (64 * channels keeps channel 0)
    engine.run()
    assert set(order) == {"bg", "demand"}


def test_large_access_splits_across_channels():
    engine, device = make_device(HBM2_TIMINGS)
    done = []
    device.access(0, 2048, False, Priority.DEMAND, done.append)
    engine.run()
    assert len(done) == 1
    stats = device.stats()
    assert stats.bytes_read == 2048
    # 2 KB at 64 B interleave = 32 chunks over 8 channels = 4 per channel
    per_channel = [c.stats.reads for c in device.channels]
    assert per_channel == [4] * 8


def test_sub_64b_access_is_single_chunk():
    engine, device = make_device()
    run_access(device, engine, 8, 8)
    assert device.stats().reads == 1


def test_unaligned_access_crossing_boundary_splits():
    engine, device = make_device()
    run_access(device, engine, 60, 8)  # crosses the 64 B line
    assert device.stats().reads == 2


def test_out_of_range_access_rejected():
    engine, device = make_device()
    with pytest.raises(ValueError):
        device.access(CAP, 64, False)
    with pytest.raises(ValueError):
        device.access(CAP - 32, 64, False)
    with pytest.raises(ValueError):
        device.access(0, 0, False)


def test_bandwidth_under_saturation_approaches_peak():
    """Back-to-back sequential reads should keep the bus mostly busy."""
    engine, device = make_device(HBM2_TIMINGS)
    n = 512
    remaining = [n]

    def done(_):
        remaining[0] -= 1

    for i in range(n):
        device.access((i * 64) % CAP, 64, False, Priority.DEMAND, done)
    engine.run()
    assert remaining[0] == 0
    utilization = device.utilization(engine.now)
    assert utilization > 0.5


def test_mean_queue_wait_grows_under_load():
    engine, device = make_device()
    # hammer a single channel (stride = 64 * channels keeps channel 0)
    stride = 64 * DDR3_TIMINGS.channels
    for i in range(64):
        device.access((i * stride) % CAP, 64, False, Priority.DEMAND, None)
    engine.run()
    stats = device.stats()
    assert stats.max_queue_depth > 1
    assert stats.total_queue_wait > 0
