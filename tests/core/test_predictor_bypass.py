"""Tests for the way/location predictor and the bandwidth balancer.

SILC-FM reads and trains the predictor's table inline in
``SilcFmScheme.access``, so the predictor tests drive that.
"""

import pytest

from repro.core.bypass import BandwidthBalancer
from repro.core.predictor import WayPredictor
from repro.core.silcfm import SilcFmScheme
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES, SilcFmConfig
from repro.xmem.address import AddressSpace

NM_BLOCKS = 16
FM_BLOCKS = 64
PC = 0x400


def make_scheme():
    """Locking and bypass off, so every access is a plain Table I row
    whose predictor judgement is easy to follow."""
    space = AddressSpace(NM_BLOCKS * BLOCK_BYTES, FM_BLOCKS * BLOCK_BYTES)
    return SilcFmScheme(space, SilcFmConfig(
        predictor_entries=4096, enable_locking=False, enable_bypass=False))


def fm_block_addr(k, sub=0):
    """Subblock ``sub`` of the ``k``-th FM block."""
    return (NM_BLOCKS + k) * BLOCK_BYTES + sub * SUBBLOCK_BYTES


def entry(scheme, pc, paddr):
    """The entry ``access`` reads and trains for ``(pc, paddr)``: PC xor
    the 2 KB block number."""
    predictor = scheme.predictor
    return predictor.table.get((pc ^ paddr // BLOCK_BYTES) & predictor.mask)


def judged(scheme):
    p = scheme.predictor
    return p.way_correct, p.way_wrong, p.loc_correct, p.loc_wrong


# ----------------------------------------------------------------------
# predictor
# ----------------------------------------------------------------------
def test_cold_predictor_returns_no_way():
    scheme = make_scheme()
    addr = fm_block_addr(0)
    assert entry(scheme, PC, addr) is None
    scheme.access(addr, False, pc=PC)
    # no entry, no way to judge; the default NM location guess was wrong
    assert judged(scheme) == (0, 0, 0, 1)


def test_update_then_predict():
    scheme = make_scheme()
    addr = fm_block_addr(0)
    scheme.access(addr, False, pc=PC)  # installs the block from FM
    way = scheme.way_of_block(addr // BLOCK_BYTES)
    assert entry(scheme, PC, addr) == (way, True)
    scheme.access(addr, False, pc=PC)  # now resident: served from NM
    assert entry(scheme, PC, addr) == (way, False)
    assert judged(scheme) == (1, 0, 0, 2)


def test_subblocks_of_one_block_share_an_entry():
    """The predicted way/location is a block property, so all 32
    subblocks of a 2 KB block should alias to the same entry."""
    scheme = make_scheme()
    scheme.access(fm_block_addr(3), False, pc=PC)
    for k in range(1, 32):
        scheme.access(fm_block_addr(3, k), False, pc=PC)
    way_correct, way_wrong, __, __ = judged(scheme)
    assert (way_correct, way_wrong) == (31, 0)


def test_different_blocks_do_not_necessarily_share():
    scheme = make_scheme()
    scheme.access(fm_block_addr(3), False, pc=PC)
    other = fm_block_addr(4)
    assert entry(scheme, PC, other) is None
    scheme.access(other, False, pc=PC)
    way_correct, way_wrong, __, __ = judged(scheme)
    assert way_correct + way_wrong == 0


def test_accuracy_accounting():
    scheme = make_scheme()
    a = fm_block_addr(0)
    scheme.access(a, False, pc=PC)  # cold: location wrong only
    scheme.access(a, False, pc=PC)  # way right, location wrong (now NM)
    scheme.access(a, False, pc=PC)  # way and location right
    # a block of another set whose PC aliases onto a's entry: its way
    # (a frame of a different set) is judged wrong
    b = fm_block_addr(1)
    alias_pc = PC ^ a // BLOCK_BYTES ^ b // BLOCK_BYTES
    scheme.access(b, False, pc=alias_pc)
    p = scheme.predictor
    assert p.way_correct == 2 and p.way_wrong == 1
    assert p.way_accuracy == pytest.approx(2 / 3)
    # location judged even without a way (default NM guess)
    assert p.loc_correct + p.loc_wrong == 4
    assert p.location_accuracy == pytest.approx(1 / 4)


def test_power_of_two_required():
    with pytest.raises(ValueError):
        WayPredictor(1000)


# ----------------------------------------------------------------------
# bandwidth balancer
# ----------------------------------------------------------------------
def test_bypass_off_until_first_window():
    balancer = BandwidthBalancer(0.8, window=16)
    for _ in range(15):
        balancer.record(True)
    assert not balancer.bypassing


def test_bypass_engages_above_target():
    balancer = BandwidthBalancer(0.8, window=16)
    for _ in range(16):
        balancer.record(True)  # rate 1.0 > 0.8
    assert balancer.bypassing


def test_bypass_disengages_when_rate_drops():
    balancer = BandwidthBalancer(0.8, window=16)
    for _ in range(16):
        balancer.record(True)
    assert balancer.bypassing
    for i in range(16):
        balancer.record(i % 2 == 0)  # rate 0.5
    assert not balancer.bypassing


def test_rate_exactly_at_target_does_not_bypass():
    balancer = BandwidthBalancer(0.75, window=16)
    for i in range(16):
        balancer.record(i < 12)  # exactly 0.75
    assert not balancer.bypassing


def test_bypassed_counter():
    balancer = BandwidthBalancer(0.8, window=16)
    balancer.note_bypassed()
    balancer.note_bypassed()
    assert balancer.bypassed_accesses == 2


def test_current_window_rate():
    balancer = BandwidthBalancer(0.8, window=16)
    balancer.record(True)
    balancer.record(False)
    assert balancer.current_rate() == 0.5


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BandwidthBalancer(0.0)
    with pytest.raises(ValueError):
        BandwidthBalancer(1.0)
    with pytest.raises(ValueError):
        BandwidthBalancer(0.8, window=4)
