"""Tests for flat address-space arithmetic, including the property-based
congruence-set invariants every scheme relies on."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.xmem.address import AddressSpace

NM = 64 * BLOCK_BYTES
FM = 256 * BLOCK_BYTES


@pytest.fixture
def space():
    return AddressSpace(nm_bytes=NM, fm_bytes=FM)


def test_capacity_is_sum_of_levels(space):
    assert space.total_bytes == NM + FM
    assert space.nm_blocks == 64
    assert space.fm_blocks == 256
    assert space.total_blocks == 320


def test_nm_occupies_low_addresses(space):
    assert space.is_nm(0)
    assert space.is_nm(NM - 1)
    assert space.is_fm(NM)
    assert space.is_fm(NM + FM - 1)


def test_out_of_range_rejected(space):
    with pytest.raises(ValueError):
        space.is_nm(NM + FM)
    with pytest.raises(ValueError):
        space.is_fm(-1)


def test_block_and_subblock_arithmetic(space):
    addr = 3 * BLOCK_BYTES + 5 * SUBBLOCK_BYTES + 17
    assert space.block_of(addr) == 3
    assert space.subblock_index(addr) == 5


@pytest.mark.parametrize("assoc,expected_sets", [(1, 64), (2, 32), (4, 16)])
def test_num_sets(space, assoc, expected_sets):
    assert space.num_sets(assoc) == expected_sets


def test_bad_associativity_rejected(space):
    with pytest.raises(ValueError):
        space.num_sets(3)  # does not divide 64? 64 % 3 != 0
    with pytest.raises(ValueError):
        space.num_sets(0)


def test_frames_of_set_partition_nm(space):
    assoc = 4
    sets = space.num_sets(assoc)
    seen = set()
    for s in range(sets):
        frames = space.nm_frames_of_set(s, assoc)
        assert len(frames) == assoc
        for f in frames:
            assert f % sets == s
            seen.add(f)
    assert seen == set(range(space.nm_blocks))


@given(block=st.integers(min_value=0, max_value=319),
       assoc=st.sampled_from([1, 2, 4]))
def test_every_block_maps_to_valid_set(block, assoc):
    space = AddressSpace(nm_bytes=NM, fm_bytes=FM)
    s = block % space.num_sets(assoc)
    # the block's set contains at least one NM frame
    frames = space.nm_frames_of_set(s, assoc)
    assert all(space.is_nm(f * BLOCK_BYTES) for f in frames)


@given(addr=st.integers(min_value=0, max_value=NM + FM - 1))
def test_subblock_roundtrip(addr):
    space = AddressSpace(nm_bytes=NM, fm_bytes=FM)
    block = space.block_of(addr)
    index = space.subblock_index(addr)
    base = block * BLOCK_BYTES + index * SUBBLOCK_BYTES
    assert base <= addr < base + SUBBLOCK_BYTES


@given(addr=st.integers(min_value=0, max_value=NM + FM - 1))
def test_levels_partition_the_space(addr):
    space = AddressSpace(nm_bytes=NM, fm_bytes=FM)
    assert space.is_nm(addr) != space.is_fm(addr)


def test_misaligned_capacity_rejected():
    with pytest.raises(ValueError):
        AddressSpace(nm_bytes=1000, fm_bytes=FM)
    with pytest.raises(ValueError):
        AddressSpace(nm_bytes=0, fm_bytes=FM)
