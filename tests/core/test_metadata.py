"""Tests for per-frame metadata."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metadata import COUNTER_MAX, FULL_BITVEC, FrameMetadata
from repro.core.silcfm import SilcFmScheme
from repro.sim.config import BLOCK_BYTES, SilcFmConfig
from repro.xmem.address import AddressSpace


def swapped_in(frame):
    return [i for i in range(32) if frame.bit(i)]


def test_bits_start_clear():
    frame = FrameMetadata()
    assert frame.bitvec == 0
    assert not any(frame.bit(i) for i in range(32))


def test_set_and_clear_bits():
    frame = FrameMetadata()
    frame.set_bit(5)
    assert frame.bit(5)
    assert frame.bitvec == 1 << 5
    frame.clear_bit(5)
    assert not frame.bit(5)


def test_bit_index_bounds():
    frame = FrameMetadata()
    with pytest.raises(ValueError):
        frame.bit(32)
    with pytest.raises(ValueError):
        frame.set_bit(-1)


def test_swapped_and_missing_partition():
    frame = FrameMetadata()
    for i in (0, 7, 31):
        frame.set_bit(i)
    assert swapped_in(frame) == [0, 7, 31]
    assert set(swapped_in(frame)) | set(frame.missing_indices()) == set(
        range(32))


def test_interleaved_predicate():
    frame = FrameMetadata()
    assert not frame.interleaved         # no remap
    frame.remap = 99
    assert not frame.interleaved         # no bits
    frame.set_bit(3)
    assert frame.interleaved
    frame.bitvec = FULL_BITVEC
    assert not frame.interleaved         # fully remapped, not mixed


def test_counters_saturate_at_6_bits():
    """SILC-FM's ``access`` bumps a frame's native (NM-space miss) and
    remapped-block (FM-space miss) counters, saturating at 6 bits."""
    nm_blocks = 16
    scheme = SilcFmScheme(
        AddressSpace(nm_blocks * BLOCK_BYTES, 4 * nm_blocks * BLOCK_BYTES),
        SilcFmConfig(enable_locking=False, enable_bypass=False))
    native = 2 * BLOCK_BYTES          # NM-space: frame 2's own block
    remote = (nm_blocks + 5) * BLOCK_BYTES  # FM-space: interleaves in
    for _ in range(100):
        scheme.access(native, False)
        scheme.access(remote, False)
    assert scheme.frame(2).nm_count == COUNTER_MAX == 63
    way = scheme.way_of_block(remote // BLOCK_BYTES)
    assert scheme.frame(way).fm_count == 63


def test_aging_halves_counters():
    frame = FrameMetadata(nm_count=40, fm_count=7)
    frame.age()
    assert frame.nm_count == 20
    assert frame.fm_count == 3
    for _ in range(10):
        frame.age()
    assert frame.nm_count == 0


def test_lock_requires_valid_owner():
    frame = FrameMetadata()
    with pytest.raises(ValueError):
        frame.lock("os")
    with pytest.raises(ValueError):
        frame.lock("fm")  # no remapped block
    frame.remap = 4
    frame.lock("fm")
    assert frame.locked and frame.lock_owner == "fm"
    frame.unlock()
    assert not frame.locked and frame.lock_owner is None


def test_nm_lock_never_needs_remap():
    frame = FrameMetadata()
    frame.lock("nm")
    assert frame.locked


@given(bits=st.lists(st.integers(min_value=0, max_value=31), max_size=40))
def test_bitvec_matches_set_of_bits(bits):
    frame = FrameMetadata()
    for b in bits:
        frame.set_bit(b)
    assert swapped_in(frame) == sorted(set(bits))
    assert 0 <= frame.bitvec <= FULL_BITVEC
