"""Tests for the flat-memory controller.

Misses reach the controller only through an MSHR file; these tests use
the compat file (``MSHRFile(engine, 0, controller)``), which dispatches
every miss at arrival with its own scheme consult, so each test drives
the controller's plan execution directly.
"""

import pytest

from repro.cpu.controller import FlatMemoryController
from repro.cpu.mshr import MSHRFile
from repro.dram.device import MemoryDevice
from repro.schemes.base import AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import default_config
from repro.sim.engine import Engine
from repro.xmem.address import AddressSpace

NM = 64 * 2048
FM = 256 * 2048


class ScriptedScheme(MemoryScheme):
    """Returns pre-programmed plans for testing the executor."""

    name = "scripted"

    def __init__(self, space, plans):
        super().__init__(space)
        self._plans = iter(plans)
        self.epoch_calls = 0
        self._epoch_period = None
        self._epoch_result = ([], 0.0)

    def access(self, paddr, is_write, pc=0):
        plan = next(self._plans)
        self.record_plan(plan)
        return plan

    def at_home(self, block):
        return True

    def epoch_period_cycles(self):
        return self._epoch_period

    def epoch(self):
        self.epoch_calls += 1
        return self._epoch_result

    def check_invariants(self):
        pass  # no metadata to cross-check


def build(plans, epoch_period=None, epoch_result=([], 0.0)):
    engine = Engine()
    config = default_config()
    space = AddressSpace(NM, FM)
    nm = MemoryDevice(engine, config.nm_timings, NM + 64 * 32, metadata_base=NM)
    fm = MemoryDevice(engine, config.fm_timings, FM)
    scheme = ScriptedScheme(space, plans)
    scheme._epoch_period = epoch_period
    scheme._epoch_result = epoch_result
    controller = FlatMemoryController(engine, scheme, nm, fm)
    return engine, controller, MSHRFile(engine, 0, controller), nm, fm


def nm_read(addr=0, size=64):
    return Op(Level.NM, addr, size, False)


def fm_read(addr=0, size=64):
    return Op(Level.FM, addr, size, False)


def test_single_stage_plan_completes():
    plan = AccessPlan(serviced_from=Level.NM, stages=[[nm_read()]])
    engine, controller, mshr, nm, fm = build([plan])
    done = []
    mshr.issue(0, False, 0, done.append)
    engine.run()
    assert len(done) == 1
    assert controller.stats.misses_completed == 1
    assert nm.stats().reads == 1


def test_stages_execute_serially():
    plan = AccessPlan(serviced_from=Level.FM,
                      stages=[[nm_read()], [fm_read()]])
    engine, controller, mshr, nm, fm = build([plan])
    done = []
    mshr.issue(NM, False, 0, done.append)
    engine.run()
    serial = done[0]

    plan2 = AccessPlan(serviced_from=Level.FM,
                       stages=[[nm_read(), fm_read()]])
    engine2, controller2, mshr2, __, __ = build([plan2])
    done2 = []
    mshr2.issue(NM, False, 0, done2.append)
    engine2.run()
    parallel = done2[0]
    assert serial > parallel


def test_background_ops_do_not_block_completion():
    plan = AccessPlan(serviced_from=Level.NM, stages=[[nm_read()]],
                      background=[Op(Level.FM, 0, 2048, True)] * 4)
    engine, controller, mshr, nm, fm = build([plan])
    done = []
    mshr.issue(0, False, 0, done.append)
    engine.run()
    # completion time unaffected by the 8KB of background traffic
    plan_only = AccessPlan(serviced_from=Level.NM, stages=[[nm_read()]])
    engine2, controller2, mshr2, __, __ = build([plan_only])
    done2 = []
    mshr2.issue(0, False, 0, done2.append)
    engine2.run()
    assert done[0] == done2[0]
    assert fm.stats().bytes_written == 4 * 2048


def test_demand_vs_background_accounting():
    plan = AccessPlan(serviced_from=Level.NM, stages=[[nm_read(size=64)]],
                      background=[fm_read(size=64)])
    engine, controller, mshr, __, __ = build([plan])
    mshr.issue(0, False, 0, lambda t: None)
    engine.run()
    assert controller.stats.demand_nm_bytes == 64
    assert controller.stats.background_fm_bytes == 64
    assert controller.stats.nm_demand_fraction == 1.0


def test_empty_stage_skipped():
    plan = AccessPlan(serviced_from=Level.NM, stages=[[], [nm_read()]])
    engine, controller, mshr, __, __ = build([plan])
    done = []
    mshr.issue(0, False, 0, done.append)
    engine.run()
    assert done


def test_writeback_uses_locate():
    engine, controller, mshr, nm, fm = build([])
    controller.handle_writeback(NM + 128)
    engine.run()
    assert fm.stats().bytes_written == 64
    assert controller.stats.writebacks == 1


def test_epoch_scheduling_and_stall():
    plan = AccessPlan(serviced_from=Level.NM, stages=[[nm_read()]])
    engine, controller, mshr, __, __ = build(
        [plan], epoch_period=1000.0, epoch_result=([], 500.0))
    # let one epoch fire
    engine.run(until=1100)
    assert controller.scheme.epoch_calls == 1
    # a miss arriving during the stall is delayed to its end
    done = []
    mshr.issue(0, False, 0, done.append)
    engine.run(until=1800)
    assert done and done[0] >= 1500.0
    assert controller.stats.epoch_stall_cycles == 500.0


def test_mean_miss_latency():
    plans = [AccessPlan(serviced_from=Level.NM, stages=[[nm_read()]])
             for _ in range(3)]
    engine, controller, mshr, __, __ = build(plans)
    for i in range(3):
        mshr.issue(0, False, 0, lambda t: None)
    engine.run()
    assert controller.stats.mean_miss_latency > 0
