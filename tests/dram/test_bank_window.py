"""A window of queued requests to one bank, issued by the channel's
fused FR-FCFS loop, must time exactly like the same accesses applied one
at a time through :meth:`Bank.prepare` and the bus recurrence.

``Channel._try_issue`` reads and writes the bus chain, in-flight count
and float stat accumulators on the channel once per pick; the contract
is *bit-identity* with per-access updates, so equality assertions here
are exact (``==``), never approx.  The bank's own timing state — the
``(open_row, ready, _activated_at)`` triple — is pinned alongside.
"""

import math

import pytest

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.request import DRAMRequest, Priority
from repro.dram.timing import DDR3_TIMINGS, HBM2_TIMINGS
from repro.sim.engine import Engine

BANK = 2
SIZE = 64


@pytest.fixture(params=[HBM2_TIMINGS, DDR3_TIMINGS],
                ids=["hbm2", "ddr3"])
def timings(request):
    return request.param


def _state(bank):
    return (bank.open_row, bank.ready, bank._activated_at)


def _through_channel(timings, batches):
    """Submit each ``(now, row, count)`` batch of one-unit reads to bank
    ``BANK`` at engine time ``now``; drain.  Returns the completion
    times in issue order and the channel."""
    engine = Engine()
    channel = Channel(engine, timings)
    done = []

    def submit(row, count):
        for _ in range(count):
            channel.submit(DRAMRequest(
                0, SIZE, False, Priority.DEMAND, engine.now, BANK, row,
                done.append))

    for now, row, count in batches:
        engine.schedule_at(now, submit, row, count)
    engine.run()
    return done, channel


def _sequential(timings, batches):
    """Independent reference: the same accesses one at a time through a
    twin ``Bank.prepare`` and the bus chain.  One bank, one row per
    batch, so FR-FCFS is FIFO; a request past the pipeline depth issues
    when the request ``pipeline_depth`` ahead of it completes."""
    bank = Bank(timings)
    burst = timings.burst_mem_cycles(SIZE) * timings.cpu_cycles_per_mem
    depth = Channel.pipeline_depth
    bus_free = busy = qwait = 0.0
    completions = []
    for now, row, count in batches:
        for _ in range(count):
            issue_at = now
            if len(completions) >= depth:
                issue_at = max(now, completions[-depth])
            data_ready = bank.prepare(row, issue_at)
            data_start = data_ready if data_ready > bus_free else bus_free
            bus_free = data_start + burst
            busy += burst
            qwait += data_start - now
            completions.append(bus_free)
    return completions, bank, (bus_free, busy, qwait)


def _assert_matches_sequential(timings, batches):
    got, channel = _through_channel(timings, batches)
    expected, twin, (bus_free, busy, qwait) = _sequential(timings, batches)
    assert got == expected  # exact, including float bit patterns
    bank = channel.bank(BANK)
    assert _state(bank) == _state(twin)
    assert bank.stats.__dict__ == twin.stats.__dict__
    assert (channel._bus_free, channel.stats.bus_busy_cycles,
            channel.stats.total_queue_wait) == (bus_free, busy, qwait)
    return got, channel, twin


# ---------------------------------------------------------------------------
# bank timing state: complete
# ---------------------------------------------------------------------------
def test_snapshot_restore_roundtrip_is_exact(timings):
    """The triple is the bank's whole mutable timing state: writing a
    captured triple back restores every non-counter attribute."""
    bank = Bank(timings)
    bank.prepare(3, 10.0)
    bank.prepare(7, 20.0)  # conflict: populates _activated_at
    state = _state(bank)
    captured = {k: v for k, v in vars(bank).items() if k != "stats"}

    bank.prepare(11, 30.0)
    bank.prepare(11, 40.0)
    assert _state(bank) != state

    bank.open_row, bank.ready, bank._activated_at = state
    assert {k: v for k, v in vars(bank).items() if k != "stats"} == captured


# ---------------------------------------------------------------------------
# a window through the fused issue loop vs sequential prepare
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("count", [1, 2, 3, 8, 17])
def test_window_matches_sequential_from_closed_bank(timings, count):
    """17 overflows the 16-deep pipeline: the last request queues and
    issues from the first one's completion."""
    _assert_matches_sequential(timings, [(100.0, 4, count)])


@pytest.mark.parametrize("count", [1, 4])
def test_window_matches_sequential_on_row_hit(timings, count):
    _assert_matches_sequential(timings, [(0.0, 4, 1), (200.0, 4, count)])


@pytest.mark.parametrize("count", [1, 4])
def test_window_matches_sequential_on_row_conflict(timings, count):
    """The window lands while the opening access is still in flight."""
    _assert_matches_sequential(timings, [(0.0, 9, 1), (5.0, 4, count)])


def test_window_results_are_monotone_and_gapped(timings):
    """An open row streams at the bus rate: after the first, completions
    come exactly one max(column gap, burst) apart."""
    done, _ = _through_channel(timings, [(0.0, 4, 6)])
    ccd = timings.t_ccd * timings.cpu_cycles_per_mem
    burst = timings.burst_mem_cycles(SIZE) * timings.cpu_cycles_per_mem
    for earlier, later in zip(done, done[1:]):
        assert math.isclose(later - earlier, max(ccd, burst))


def test_window_leaves_bank_ready_for_the_next_hit(timings):
    """The access *after* a window is a row hit continuing the same CAS
    chain, exactly as after the equivalent sequential calls."""
    _, channel, twin = _assert_matches_sequential(timings, [(0.0, 4, 5)])
    bank = channel.bank(BANK)
    hits = bank.stats.row_hits
    assert bank.prepare(4, 0.0) == twin.prepare(4, 0.0)
    assert bank.stats.row_hits == hits + 1
