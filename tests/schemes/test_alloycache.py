"""Tests for the Alloy-style DRAM cache scheme."""

import pytest

from repro.schemes.alloycache import TAD_BYTES, AlloyCacheScheme
from repro.schemes.base import Level
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.xmem.address import AddressSpace

NM = 4 * BLOCK_BYTES
FM = 16 * BLOCK_BYTES


def make_scheme():
    return AlloyCacheScheme(AddressSpace(NM, FM))


def fm(line, offset=0):
    return NM + line * SUBBLOCK_BYTES + offset


def test_cold_miss_then_hit():
    scheme = make_scheme()
    plan = scheme.access(fm(3), False)
    assert plan.note == "miss"
    assert plan.serviced_from is Level.FM
    assert len(plan.stages) == 2  # tag probe, then FM fill
    plan = scheme.access(fm(3), False)
    assert plan.note == "hit"
    assert plan.serviced_from is Level.NM
    assert plan.stages[0][0].size == TAD_BYTES


def test_direct_mapped_conflict_evicts():
    scheme = make_scheme()
    slots = NM // SUBBLOCK_BYTES
    scheme.access(fm(0), False)
    scheme.access(fm(slots), False)  # same slot
    assert scheme.access(fm(0), False).note == "miss"


def test_dirty_eviction_writes_back():
    scheme = make_scheme()
    slots = NM // SUBBLOCK_BYTES
    scheme.access(fm(0), True)            # dirty fill
    plan = scheme.access(fm(slots), False)
    wb = [op for op in plan.background if op.level is Level.FM and op.is_write]
    assert len(wb) == 1
    assert wb[0].addr == 0
    assert scheme.dirty_writebacks == 1


def test_clean_eviction_is_silent():
    scheme = make_scheme()
    slots = NM // SUBBLOCK_BYTES
    scheme.access(fm(0), False)
    plan = scheme.access(fm(slots), False)
    assert not any(op.is_write and op.level is Level.FM
                   for op in plan.background)


def test_miss_never_swaps_a_line_out():
    """Cache fills copy data; nothing is displaced to FM (no swap)."""
    scheme = make_scheme()
    plan = scheme.access(fm(7), False)
    fm_writes = [op for op in plan.background
                 if op.level is Level.FM and op.is_write]
    assert not fm_writes


def test_locate_tracks_cached_copy():
    scheme = make_scheme()
    assert scheme.locate(fm(5))[0] is Level.FM
    scheme.access(fm(5), False)
    assert scheme.locate(fm(5))[0] is Level.NM


def test_nm_addresses_rejected():
    scheme = make_scheme()
    with pytest.raises(ValueError):
        scheme.access(0, False)
    with pytest.raises(ValueError):
        scheme.locate(0)


def test_hit_rate_accounting():
    scheme = make_scheme()
    scheme.access(fm(1), False)
    scheme.access(fm(1), False)
    scheme.access(fm(1), False)
    assert scheme.hit_rate == pytest.approx(2 / 3)
