"""Tests for CAMEO and CAMEO+prefetch."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.base import Level
from repro.schemes.cameo import DATA_PLUS_META_BYTES, CameoPrefetchScheme, CameoScheme
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.xmem.address import AddressSpace

NM = 4 * BLOCK_BYTES    # 128 subblock slots
FM = 16 * BLOCK_BYTES


def make_space():
    return AddressSpace(NM, FM)


def fm_addr_in_group(space, group, k=0):
    """The k-th FM member of ``group`` (subblock address)."""
    slots = NM // SUBBLOCK_BYTES
    return (group + (k + 1) * slots) * SUBBLOCK_BYTES


def test_nm_hit_is_single_extended_burst():
    scheme = CameoScheme(make_space())
    plan = scheme.access(0, False)
    assert plan.serviced_from is Level.NM
    assert len(plan.stages) == 1
    op = plan.stages[0][0]
    assert op.size == DATA_PLUS_META_BYTES
    assert not plan.background


def test_fm_miss_swaps_line_into_nm():
    space = make_space()
    scheme = CameoScheme(space)
    addr = fm_addr_in_group(space, group=5)
    plan = scheme.access(addr, False)
    assert plan.serviced_from is Level.FM
    assert len(plan.stages) == 2            # NM tag read, then FM data
    assert len(plan.background) == 2        # NM install + FM evict
    # after the swap the line is NM-resident
    assert scheme.locate(addr)[0] is Level.NM
    assert scheme.access(addr, False).serviced_from is Level.NM


def test_swap_is_an_exchange_not_a_copy():
    """The displaced NM line must be retrievable from the vacated FM home."""
    space = make_space()
    scheme = CameoScheme(space)
    nm_native = 5 * SUBBLOCK_BYTES          # subblock 5, slot 5
    fm_member = fm_addr_in_group(space, group=5)
    scheme.access(fm_member, False)
    level, offset = scheme.locate(nm_native)
    assert level is Level.FM
    assert offset == fm_member - space.nm_bytes


def test_native_line_returns_home():
    space = make_space()
    scheme = CameoScheme(space)
    nm_native = 7 * SUBBLOCK_BYTES
    fm_member = fm_addr_in_group(space, group=7)
    scheme.access(fm_member, False)          # native displaced
    scheme.access(nm_native, False)          # native swaps back
    assert scheme.locate(nm_native) == (Level.NM, nm_native)
    assert scheme.locate(fm_member) == (Level.FM, fm_member - space.nm_bytes)


def test_direct_mapped_conflicts_thrash():
    """Two FM members of the same group evict each other (the conflict
    problem Section II-B describes)."""
    space = make_space()
    scheme = CameoScheme(space)
    a = fm_addr_in_group(space, group=3, k=0)
    b = fm_addr_in_group(space, group=3, k=1)
    for _ in range(3):
        assert scheme.access(a, False).serviced_from is Level.FM
        assert scheme.access(b, False).serviced_from is Level.FM
    assert scheme.stats.access_rate == 0.0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=NM + FM - 1),
                min_size=1, max_size=300))
def test_locate_remains_a_bijection(addrs):
    """Part-of-memory invariant: after any access sequence, distinct
    subblocks occupy distinct storage slots."""
    space = make_space()
    scheme = CameoScheme(space)
    for addr in addrs:
        scheme.access(addr - addr % SUBBLOCK_BYTES, False)
    seen = {}
    for sb_addr in range(0, NM + FM, SUBBLOCK_BYTES):
        slot = scheme.locate(sb_addr)
        assert slot not in seen, f"{sb_addr} and {seen[slot]} share {slot}"
        seen[slot] = sb_addr


# ----------------------------------------------------------------------
# prefetching variant
# ----------------------------------------------------------------------
def test_prefetcher_fetches_next_lines():
    space = make_space()
    scheme = CameoPrefetchScheme(space, prefetch_lines=3)
    addr = fm_addr_in_group(space, group=0)
    scheme.access(addr, False)
    assert scheme.prefetches_issued == 3
    # the three following subblocks are now NM hits
    for k in range(1, 4):
        assert scheme.locate(addr + k * SUBBLOCK_BYTES)[0] is Level.NM


def test_prefetch_adds_background_traffic():
    space = make_space()
    plain = CameoScheme(space)
    prefetching = CameoPrefetchScheme(space, prefetch_lines=3)
    addr = fm_addr_in_group(space, group=0)
    plain_bytes = plain.access(addr, False).total_bytes()
    prefetch_bytes = prefetching.access(addr, False).total_bytes()
    assert prefetch_bytes > plain_bytes


def test_nm_hit_triggers_no_prefetch():
    scheme = CameoPrefetchScheme(make_space())
    scheme.access(0, False)
    assert scheme.prefetches_issued == 0


def test_invalid_prefetch_depth_rejected():
    with pytest.raises(ValueError):
        CameoPrefetchScheme(make_space(), prefetch_lines=0)


def test_prefetch_never_displaces_demand_swapped_lines():
    """A speculative prefetch must not evict a line that a demand miss
    installed (the non-displacing prefetch filter)."""
    space = make_space()
    scheme = CameoPrefetchScheme(space, prefetch_lines=3)
    slots = NM // SUBBLOCK_BYTES
    # demand-install a line into slot of (victim_sb % slots)
    victim_target = fm_addr_in_group(space, group=1)
    scheme.access(victim_target, False)
    assert scheme.locate(victim_target)[0] is Level.NM
    # a miss on the line just before it prefetches into slot group=1,
    # which is now owned by a demand-swapped line -> must be skipped
    trigger = victim_target - SUBBLOCK_BYTES
    scheme.access(trigger, False)
    assert scheme.locate(victim_target)[0] is Level.NM


def test_prefetch_installs_into_native_slots():
    space = make_space()
    scheme = CameoPrefetchScheme(space, prefetch_lines=2)
    addr = fm_addr_in_group(space, group=3)
    scheme.access(addr, False)
    # groups 4 and 5 still held their native lines, so both prefetches fired
    assert scheme.prefetches_issued == 2


def test_prefetch_skips_native_lines_in_their_own_slots():
    """A demand miss on a displaced NM-range line prefetches the lines
    after it, which still sit in their own slots.  Neither early return
    of the prefetch filter may be dropped: with only the demand-owner
    check, each would be "swapped" into the slot it already holds."""
    space = make_space()
    scheme = CameoPrefetchScheme(space, prefetch_lines=3)
    scheme.ledger.exchange(5, fm_addr_in_group(space, 5) // SUBBLOCK_BYTES)
    plan = scheme.access(5 * SUBBLOCK_BYTES, False)
    assert plan.serviced_from is Level.FM
    assert scheme.prefetches_issued == 0
    assert len(plan.background) == 2  # the demand swap's install + write-back
    for line in (6, 7, 8):
        assert scheme.locate(line * SUBBLOCK_BYTES) == (
            Level.NM, line * SUBBLOCK_BYTES)
    scheme.check_invariants()
