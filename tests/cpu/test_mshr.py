"""MSHR-file behaviour: coalescing, structural stalls, writeback bypass.

The system-level compatibility guarantee (``mshr_entries = 0`` is
byte-identical to the pre-MSHR design) is covered by the golden-result
tests; these exercise the MSHR file itself against a scripted scheme.
"""

import dataclasses

import pytest

from repro.cpu.controller import FlatMemoryController
from repro.cpu.mshr import MSHRFile
from repro.dram.device import MemoryDevice
from repro.experiments.runner import run_one
from repro.schemes.base import AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import default_config
from repro.sim.engine import Engine
from repro.xmem.address import AddressSpace

NM = 64 * 2048
FM = 256 * 2048


class CountingScheme(MemoryScheme):
    """Serves every access with one FM read; counts consultations."""

    name = "counting"

    def __init__(self, space):
        super().__init__(space)
        self.accesses = 0

    def access(self, paddr, is_write, pc=0):
        self.accesses += 1
        plan = AccessPlan.single(Level.FM, Op(Level.FM, 0, 64, False))
        self.record_plan(plan)
        return plan

    def at_home(self, block):
        return True

    def check_invariants(self):
        pass


def build(entries):
    engine = Engine()
    config = default_config()
    space = AddressSpace(NM, FM)
    nm = MemoryDevice(engine, config.nm_timings, NM + 64 * 32, metadata_base=NM)
    fm = MemoryDevice(engine, config.fm_timings, FM)
    scheme = CountingScheme(space)
    controller = FlatMemoryController(engine, scheme, nm, fm)
    mshr = MSHRFile(engine, entries, controller)
    return engine, mshr, controller, scheme, nm, fm


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
def test_same_subblock_misses_coalesce_and_retire_together():
    engine, mshr, controller, scheme, __, __ = build(entries=8)
    done_a, done_b = [], []
    mshr.issue(0, False, 0, done_a.append)
    mshr.issue(8, False, 0, done_b.append)  # same 64 B subblock
    assert mshr.stats.allocations == 1
    assert mshr.stats.coalesced == 1
    assert scheme.accesses == 1  # the scheme was consulted once
    engine.run()
    # both waiters woken by the one transaction, at the same instant
    assert done_a and done_b and done_a[0] == done_b[0]
    assert controller.stats.misses_completed == 1
    assert mshr.occupancy == 0


def test_different_subblocks_allocate_separate_entries():
    engine, mshr, __, scheme, __, __ = build(entries=8)
    mshr.issue(0, False, 0, lambda t: None)
    mshr.issue(64, False, 0, lambda t: None)
    assert mshr.stats.allocations == 2
    assert mshr.stats.coalesced == 0
    assert scheme.accesses == 2
    engine.run()
    assert mshr.occupancy == 0


# ----------------------------------------------------------------------
# structural stalls
# ----------------------------------------------------------------------
def test_full_mshr_queues_fifo_and_counts_structural_stalls():
    engine, mshr, controller, scheme, __, __ = build(entries=1)
    done_a, done_b = [], []
    mshr.issue(0, False, 0, done_a.append)
    mshr.issue(64, False, 0, done_b.append)  # file full: queues
    assert mshr.stats.structural_stalls == 1
    assert mshr.pending == 1
    assert scheme.accesses == 1  # B not dispatched yet
    engine.run()
    assert done_a and done_b
    assert done_b[0] > done_a[0]  # B admitted only after A freed its entry
    assert mshr.stats.allocations == 2
    assert controller.stats.misses_completed == 2


def test_queued_read_coalesces_without_burning_stall_or_entry():
    """Satellite-1 regression: a read whose subblock already has a
    *queued* read joins it in the pending queue — it must not be charged
    a structural stall, must not take a queue slot, and must not
    allocate a second entry when the queue drains (the old drain path
    charged the stall at arrival and only coalesced if the line happened
    to be in flight at ``popleft`` time)."""
    engine, mshr, __, scheme, __, __ = build(entries=2)
    done = []
    mshr.issue(0, False, 0, done.append)
    mshr.issue(64, False, 0, done.append)
    mshr.issue(128, False, 0, done.append)      # queues (file full)
    mshr.issue(128 + 8, False, 0, done.append)  # joins the queued read
    assert mshr.stats.structural_stalls == 1
    assert mshr.pending == 1
    assert mshr.stats.coalesced == 1
    engine.run()
    # one drained admission serves both waiters with one scheme consult
    assert len(done) == 4
    assert scheme.accesses == 3
    assert mshr.stats.allocations == 3
    assert done[-1] == done[-2]  # coalesced pair retires together


def test_drained_miss_keeps_original_issue_time():
    """Satellite-1 regression: a miss admitted from the pending queue
    keeps its arrival time as ``issue_time`` — the queue wait is part of
    the latency the core experienced, not erased at admission."""
    engine, mshr, controller, __, __, __ = build(entries=1)
    admitted = []
    real_handle = controller.handle_request

    def spy(txn):
        admitted.append((engine.now, txn.issue_time, txn.paddr))
        real_handle(txn)

    controller.handle_request = spy
    mshr.issue(0, False, 0, lambda t: None)
    mshr.issue(64, False, 0, lambda t: None)  # queues at t=0
    engine.run()
    (___, __, _a), (admit_t, issue_t, paddr) = admitted
    assert paddr == 64
    assert admit_t > 0.0    # admitted only after the first entry freed
    assert issue_t == 0.0   # but its issue clock started at arrival


# ----------------------------------------------------------------------
# read-only coalescing (the silc-mshr32 postmortem policy)
# ----------------------------------------------------------------------
def test_write_miss_does_not_coalesce_onto_inflight_read():
    """Postmortem regression: a store to a subblock with an in-flight
    read fill takes its own entry and its own scheme consult — welding
    it to the read's fetch would hide the store from the scheme and
    serialize an independent request."""
    engine, mshr, controller, scheme, __, __ = build(entries=8)
    mshr.issue(0, False, 0, lambda t: None)
    mshr.issue(8, True, 0, lambda t: None)  # same subblock, but a write
    assert mshr.stats.allocations == 2
    assert mshr.stats.coalesced == 0
    assert scheme.accesses == 2
    engine.run()
    assert controller.stats.misses_completed == 2
    assert mshr.occupancy == 0


def test_read_miss_does_not_coalesce_onto_inflight_write():
    """Postmortem regression: nothing coalesces onto a write — a read
    chained to a write-path transaction inherits whatever slow service
    the write drew, where a fresh consult may resolve near-memory."""
    engine, mshr, __, scheme, __, __ = build(entries=8)
    mshr.issue(0, True, 0, lambda t: None)
    mshr.issue(8, False, 0, lambda t: None)  # read follows the write
    assert mshr.stats.allocations == 2
    assert mshr.stats.coalesced == 0
    assert scheme.accesses == 2
    engine.run()
    assert mshr.occupancy == 0


def test_queued_write_is_not_a_coalescing_target():
    """Read-only coalescing applies in the pending queue too: a read
    behind a *queued write* to the same subblock queues separately."""
    engine, mshr, __, scheme, __, __ = build(entries=1)
    mshr.issue(0, False, 0, lambda t: None)
    mshr.issue(64, True, 0, lambda t: None)   # queues (file full)
    mshr.issue(64 + 8, False, 0, lambda t: None)  # may not join the write
    assert mshr.stats.structural_stalls == 2
    assert mshr.pending == 2
    assert mshr.stats.coalesced == 0
    engine.run()
    assert mshr.stats.allocations == 3
    assert scheme.accesses == 3


def test_structural_stall_distinct_from_rob_stall():
    """The MSHR's structural stalls and the cores' full-ROB stalls are
    separate counters, surfaced through separate result fields."""
    config = dataclasses.replace(default_config(scale=0.25), mshr_entries=1)
    result = run_one("silc", "mcf", config, misses_per_core=150, seed=11)
    assert "mshr_structural_stalls" in result.extras
    assert "mshr_allocations" in result.extras
    assert result.extras["mshr_allocations"] > 0
    # ROB stalls live in the core stats, untouched by the MSHR counters
    assert hasattr(result.core_stats[0], "stall_events")
    # compat run (explicit mshr_entries=0, the escape hatch from the
    # nonzero default): the compat file publishes no mshr_* keys at all
    compat = run_one(
        "silc", "mcf",
        dataclasses.replace(default_config(scale=0.25), mshr_entries=0),
        misses_per_core=150, seed=11)
    assert not any(k.startswith("mshr_") for k in compat.extras)


# ----------------------------------------------------------------------
# writebacks
# ----------------------------------------------------------------------
def test_writebacks_bypass_a_full_mshr():
    """Dirty evictions never enter the MSHR: they issue to the devices
    immediately even when the file is full and demand misses queue."""
    engine, mshr, controller, __, __, fm = build(entries=1)
    issued = []
    real_access = fm.access

    def spy(addr, size, is_write, priority, on_complete=None, span=None):
        issued.append((engine.now, is_write))
        real_access(addr, size, is_write, priority, on_complete, span)

    fm.access = spy
    mshr.issue(0, False, 0, lambda t: None)
    mshr.issue(64, False, 0, lambda t: None)  # file full: queues
    controller.handle_writeback(NM + 128)     # straight through
    # the writeback's FM write was submitted at t=0, before the queued
    # demand miss was even admitted
    assert (0.0, True) in issued
    assert mshr.pending == 1
    engine.run()
    assert controller.stats.writebacks == 1
    assert controller.stats.misses_completed == 2


def test_writeback_order_preserved_under_coalescing():
    """Coalescing a second miss onto an in-flight transaction must not
    reorder an interleaved writeback: device submission order stays
    miss-A, writeback, (no new op for coalesced miss-B)."""
    engine, mshr, controller, __, __, fm = build(entries=8)
    order = []
    real_access = fm.access

    def spy(addr, size, is_write, priority, on_complete=None, span=None):
        order.append("write" if is_write else "read")
        real_access(addr, size, is_write, priority, on_complete, span)

    fm.access = spy
    mshr.issue(0, False, 0, lambda t: None)
    controller.handle_writeback(NM + 128)
    mshr.issue(8, False, 0, lambda t: None)  # coalesces onto the first
    assert order == ["read", "write"]
    engine.run()
    assert mshr.stats.coalesced == 1
    assert controller.stats.writebacks == 1


# ----------------------------------------------------------------------
# the compat file (entries = 0)
# ----------------------------------------------------------------------
def test_compat_file_never_coalesces_and_never_stalls():
    """``entries = 0`` is the compat file: two reads of one subblock
    each consult the scheme, and more misses than any file size all
    dispatch at arrival — no coalescing, no queue, no structural stall."""
    engine, mshr, controller, scheme, __, __ = build(entries=0)
    done = []
    mshr.issue(0, False, 0, done.append)
    mshr.issue(8, False, 0, done.append)  # same 64 B subblock
    assert scheme.accesses == 2
    misses = 2 + 256
    for i in range(2, misses):
        mshr.issue(64 * i, i % 2 == 0, 0, done.append)
    assert scheme.accesses == misses  # every miss dispatched at arrival
    assert mshr.pending == 0
    assert mshr.stats.coalesced == 0
    assert mshr.stats.structural_stalls == 0
    engine.run()
    assert len(done) == misses
    assert controller.stats.misses_completed == misses
    assert mshr.occupancy == 0


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_mshr_rejects_negative_entries():
    engine, __, controller, __, __, __ = build(entries=1)
    with pytest.raises(ValueError):
        MSHRFile(engine, -1, controller)


def test_config_rejects_negative_entry_count():
    with pytest.raises(ValueError):
        dataclasses.replace(default_config(), mshr_entries=-1)
