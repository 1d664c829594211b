"""Assorted edge-case tests across modules (pure-unit, fast)."""

import pytest

from repro.schemes.base import AccessPlan, Level, Op
from repro.sim.config import BLOCK_BYTES
from repro.sim.engine import Engine, SimulationError
from repro.workloads.trace import MemoryAccess, interleave_round_robin, trace_stats
from repro.xmem.address import AddressSpace


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def test_engine_is_not_reentrant():
    engine = Engine()

    def recurse():
        with pytest.raises(SimulationError, match="reentrant"):
            engine.run()

    engine.schedule(1, recurse)
    engine.run()


# ----------------------------------------------------------------------
# address space
# ----------------------------------------------------------------------
def test_frames_of_set_rejects_bad_index():
    space = AddressSpace(8 * BLOCK_BYTES, 32 * BLOCK_BYTES)
    with pytest.raises(ValueError):
        space.nm_frames_of_set(99, 4)
    with pytest.raises(ValueError):
        space.nm_frames_of_set(-1, 4)


def test_block_base_roundtrip():
    space = AddressSpace(8 * BLOCK_BYTES, 32 * BLOCK_BYTES)
    for block in (0, 7, 8, 39):
        assert space.block_of(space.block_base(block)) == block


# ----------------------------------------------------------------------
# access plans / ops
# ----------------------------------------------------------------------
def test_op_validation():
    """Validation is hoisted out of ``__post_init__`` (constructing an
    op is allocation-lean); the explicit debug check still rejects
    malformed ops, and the oracle calls it on every checked plan."""
    with pytest.raises(ValueError):
        Op(Level.NM, -1, 64, False).validate()
    with pytest.raises(ValueError):
        Op(Level.FM, 0, 0, True).validate()
    op = Op(Level.NM, 0, 64, False)
    assert op.validate() is op  # chainable on well-formed ops


def test_plan_validate_checks_every_op():
    plan = AccessPlan(
        serviced_from=Level.FM,
        stages=[[Op(Level.NM, 0, 8, False)]],
        background=[Op(Level.FM, 0, 0, True)],  # malformed
    )
    with pytest.raises(ValueError):
        plan.validate()
    ok = AccessPlan.single(Level.NM, Op(Level.NM, 0, 64, False))
    assert ok.validate() is ok


def test_empty_plan_totals():
    plan = AccessPlan(serviced_from=Level.NM)
    assert plan.critical_ops() == []
    assert plan.total_bytes() == 0


def test_plan_total_bytes_counts_both_kinds():
    plan = AccessPlan(
        serviced_from=Level.FM,
        stages=[[Op(Level.NM, 0, 8, False)], [Op(Level.FM, 0, 64, False)]],
        background=[Op(Level.FM, 64, 64, True)],
    )
    assert plan.total_bytes() == 8 + 64 + 64
    assert len(plan.critical_ops()) == 2


# ----------------------------------------------------------------------
# trace helpers
# ----------------------------------------------------------------------
def test_trace_stats_empty():
    stats = trace_stats([])
    assert stats["accesses"] == 0
    assert stats["mpki"] == 0.0
    assert stats["footprint_bytes"] == 0


def test_trace_record_validation():
    with pytest.raises(ValueError):
        MemoryAccess(pc=-1, vaddr=0, is_write=False, gap_instr=1)
    with pytest.raises(ValueError):
        MemoryAccess(pc=0, vaddr=-5, is_write=False, gap_instr=1)
    with pytest.raises(ValueError):
        MemoryAccess(pc=0, vaddr=0, is_write=False, gap_instr=-1)
    # trace round trips compare records by value
    fields = dict(pc=1 << 40, vaddr=4096, is_write=True, gap_instr=7)
    record = MemoryAccess(1 << 40, 4096, True, 7)
    assert record == MemoryAccess(**fields)
    for name, other in (("pc", (1 << 40) + 4), ("vaddr", 4160),
                        ("is_write", False), ("gap_instr", 8)):
        assert record != MemoryAccess(**{**fields, name: other})


def test_round_robin_interleave():
    a = iter([MemoryAccess(1, 0, False, 1), MemoryAccess(1, 64, False, 1)])
    b = iter([MemoryAccess(2, 128, False, 1)])
    merged = list(interleave_round_robin([a, b]))
    assert [m.vaddr for m in merged] == [0, 128, 64]
