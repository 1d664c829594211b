"""Unit tests for the shadow-memory exchange-matching replay.

Each test hand-builds the exact ``Op`` sequences the schemes emit
(subblock swap triplet, restore quartet, 2 KB migration) and checks
the ledger tracks the movement — or stays put for traffic that moves
nothing.  The sparse ledger is held to a dense two-list
permutation replaying the same swaps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.base import Level, Op
from repro.sim.config import (
    BLOCK_BYTES, SUBBLOCK_BYTES, SUBBLOCKS_PER_BLOCK, default_config)
from repro.validate.shadow import ShadowMemory, ShadowViolation
from repro.xmem.address import AddressSpace

NM_BLOCKS = 4
FM_BLOCKS = 16
SPACE = AddressSpace(NM_BLOCKS * BLOCK_BYTES, FM_BLOCKS * BLOCK_BYTES)
NM_SLOTS = NM_BLOCKS * (BLOCK_BYTES // SUBBLOCK_BYTES)
SLOTS = SPACE.total_bytes // SUBBLOCK_BYTES


def nm_op(slot, write=False, size=SUBBLOCK_BYTES):
    return Op(Level.NM, slot * SUBBLOCK_BYTES, size, write)


def fm_op(slot, write=False, size=SUBBLOCK_BYTES):
    return Op(Level.FM, slot * SUBBLOCK_BYTES, size, write)


def shadow():
    return ShadowMemory(SPACE)


# ----------------------------------------------------------------------
# identity + queries
# ----------------------------------------------------------------------
def test_initial_state_is_the_identity_mapping():
    s = shadow()
    assert s.location(0) == (Level.NM, 0)
    assert s.location(NM_SLOTS - 1) == (Level.NM, NM_SLOTS - 1)
    assert s.location(NM_SLOTS) == (Level.FM, 0)
    assert s.id_at(Level.NM, 7) == 7
    assert s.id_at(Level.FM, 3) == NM_SLOTS + 3
    s.check_self_bijection()


def test_out_of_space_id_rejected():
    s = shadow()
    with pytest.raises(ValueError):
        s.location(NM_SLOTS + FM_BLOCKS * 32)


# ----------------------------------------------------------------------
# the exchange primitive
# ----------------------------------------------------------------------
def test_subblock_swap_triplet_exchanges_contents():
    # SILC-FM row 2: critical FM read + background (NM out, NM in, FM out)
    s = shadow()
    index = 5
    s.apply([fm_op(index),
             nm_op(index), nm_op(index, write=True), fm_op(index, write=True)])
    assert s.exchanges_replayed == 1
    assert s.id_at(Level.NM, index) == NM_SLOTS + index
    assert s.id_at(Level.FM, index) == index
    assert s.location(index) == (Level.FM, index)
    assert s.location(NM_SLOTS + index) == (Level.NM, index)
    s.check_self_bijection()


def test_swap_back_restores_the_identity():
    s = shadow()
    index = 5
    swap = [fm_op(index), nm_op(index),
            nm_op(index, write=True), fm_op(index, write=True)]
    s.apply(swap)
    s.apply(swap)  # row 3 drains with the same position-for-position ops
    assert s.exchanges_replayed == 2
    assert s.location(index) == (Level.NM, index)
    assert s.location(NM_SLOTS + index) == (Level.FM, index)
    s.check_self_bijection()


def test_restore_quartet_order_is_accepted():
    # _restore emits per index: NM read, FM write, FM read, NM write —
    # the FM slot completes before the NM one; pairing must not care.
    s = shadow()
    s.apply([fm_op(3), nm_op(3), nm_op(3, write=True), fm_op(3, write=True)])
    s.apply([nm_op(3), fm_op(3, write=True), fm_op(3), nm_op(3, write=True)])
    assert s.location(3) == (Level.NM, 3)
    assert s.location(NM_SLOTS + 3) == (Level.FM, 3)
    s.check_self_bijection()


def test_whole_block_migration_swaps_32_subblocks():
    # PoM: FM read 2KB, NM read 2KB, NM write 2KB, FM write 2KB
    s = shadow()
    fm_block_base = 2 * BLOCK_BYTES  # FM device offset of FM block 2
    s.apply([
        Op(Level.FM, fm_block_base, BLOCK_BYTES, False),
        Op(Level.NM, 0, BLOCK_BYTES, False),
        Op(Level.NM, 0, BLOCK_BYTES, True),
        Op(Level.FM, fm_block_base, BLOCK_BYTES, True),
    ])
    assert s.exchanges_replayed == 32
    for j in range(32):
        assert s.id_at(Level.NM, j) == NM_SLOTS + 64 + j
        assert s.id_at(Level.FM, 64 + j) == j
    s.check_self_bijection()


def test_two_sequential_migrations_pair_within_their_own_group():
    # HMA epoch migrating two pages: group A fully precedes group B in
    # the op list, so index-j pairs must never cross groups.
    s = shadow()
    ops = []
    for frame, fm_block in ((0, 2), (1, 3)):
        base = fm_block * BLOCK_BYTES
        ops.extend([
            Op(Level.FM, base, BLOCK_BYTES, False),
            Op(Level.NM, frame * BLOCK_BYTES, BLOCK_BYTES, False),
            Op(Level.NM, frame * BLOCK_BYTES, BLOCK_BYTES, True),
            Op(Level.FM, base, BLOCK_BYTES, True),
        ])
    s.apply(ops)
    for j in range(32):
        assert s.id_at(Level.NM, j) == NM_SLOTS + 64 + j
        assert s.id_at(Level.NM, 32 + j) == NM_SLOTS + 96 + j
    s.check_self_bijection()


# ----------------------------------------------------------------------
# traffic that must move nothing
# ----------------------------------------------------------------------
def test_reads_and_writes_alone_move_nothing():
    s = shadow()
    s.apply([nm_op(0), fm_op(0), fm_op(9)])            # demand reads
    s.apply([nm_op(1, write=True), fm_op(4, write=True)])  # writebacks
    assert s.exchanges_replayed == 0
    s.check_self_bijection()
    assert s.location(0) == (Level.NM, 0)


def test_completed_slot_without_a_partner_stays_in_place():
    # read + write of one NM slot with no opposite-level counterpart is
    # an in-place rewrite (e.g. metadata-adjacent data update).
    s = shadow()
    s.apply([nm_op(2), nm_op(2, write=True)])
    assert s.exchanges_replayed == 0
    assert s.location(2) == (Level.NM, 2)


def test_metadata_region_and_partial_slots_are_filtered():
    s = ShadowMemory(SPACE)
    meta = Op(Level.NM, SPACE.nm_bytes + 16, 8, False)       # remap entry
    tad = Op(Level.NM, 3 * SUBBLOCK_BYTES, SUBBLOCK_BYTES + 8, False)
    tiny = Op(Level.FM, 0, 8, True)
    assert list(s.data_slots(meta)) == []
    assert list(s.data_slots(tad)) == [3]   # the 8 B tag tail is dropped
    assert list(s.data_slots(tiny)) == []
    s.apply([meta, tad, tiny])
    assert s.exchanges_replayed == 0


def test_self_bijection_check_detects_ledger_corruption():
    s = shadow()
    s._ids[0] = 1  # duplicate an identity: position 1 holds it too
    with pytest.raises(ShadowViolation, match="ledger corrupt: id 0 "):
        s.check_self_bijection()


def _swap_recorded_in_pos_only(s):
    """Half an exchange: ids 9 and ``NM_SLOTS + 9`` trade positions in
    the id -> position map, while the position -> id map still holds
    the identity."""
    s._pos[9] = NM_SLOTS + 9
    s._pos[NM_SLOTS + 9] = 9


def _identity_entries(s):
    """Ids 7 and ``NM_SLOTS + 2`` indexed at their own positions."""
    for sid in (NM_SLOTS + 2, 7):
        s._ids[sid] = s._pos[sid] = sid


@pytest.mark.parametrize("plant, message", [
    (_swap_recorded_in_pos_only,
     "ledger corrupt: id 9 indexed at fm slot 9 which holds "
     f"{NM_SLOTS + 9}$"),
    (_identity_entries,
     "ledger corrupt: id 7 has an explicit identity entry"),
], ids=["one-sided", "identity"])
def test_self_bijection_check_rejects_non_canonical_entries(plant, message):
    """Both maps hold displaced ids only and are each other's inverse; a
    plant that breaks either names the lowest id it affects."""
    s = shadow()
    s.apply([fm_op(5), nm_op(5), nm_op(5, write=True), fm_op(5, write=True)])
    s.check_self_bijection()
    plant(s)
    with pytest.raises(ShadowViolation, match=message):
        s.check_self_bijection()


# ----------------------------------------------------------------------
# the sparse ledger against a dense permutation
# ----------------------------------------------------------------------
def _level_slot(position):
    if position < NM_SLOTS:
        return Level.NM, position
    return Level.FM, position - NM_SLOTS


@settings(max_examples=40, deadline=None)
@given(swaps=st.lists(st.tuples(st.integers(0, NM_SLOTS - 1),
                                st.integers(0, FM_BLOCKS - 1)),
                      max_size=40))
def test_sparse_ledger_matches_a_dense_permutation(swaps):
    """Random subblock swaps (the SILC-FM triplet, NM slot against the
    same within-block index of an FM block) replayed into the shadow and
    into two dense lists: every query, every address's placement, the
    displaced blocks and the self-check agree, and the maps hold exactly
    the displaced ids."""
    s = shadow()
    ids = list(range(SLOTS))  # position -> id
    pos = list(range(SLOTS))  # id -> position
    slots = [_level_slot(position) for position in range(SLOTS)]
    for nm_slot, fm_block in swaps:
        index = nm_slot % SUBBLOCKS_PER_BLOCK
        fm_slot = fm_block * SUBBLOCKS_PER_BLOCK + index
        s.apply([fm_op(fm_slot), nm_op(nm_slot),
                 nm_op(nm_slot, write=True), fm_op(fm_slot, write=True)])
        a, b = nm_slot, NM_SLOTS + fm_slot
        ids[a], ids[b] = ids[b], ids[a]
        pos[ids[a]], pos[ids[b]] = a, b

        assert [s.location(sid) for sid in range(SLOTS)] == [
            _level_slot(position) for position in pos]
        assert [s.id_at(*slot) for slot in slots] == ids
        # every subblock, each at a different byte within it
        assert [s.placement(sid * SUBBLOCK_BYTES + sid % SUBBLOCK_BYTES)
                for sid in range(SLOTS)] == [
            (level, slot * SUBBLOCK_BYTES + sid % SUBBLOCK_BYTES)
            for sid, (level, slot) in enumerate(map(_level_slot, pos))]
        assert s.displaced_blocks() == sorted({
            sid // SUBBLOCKS_PER_BLOCK
            for sid, position in enumerate(pos) if sid != position})
        s.check_self_bijection()
        displaced = sum(sid != position for position, sid in enumerate(ids))
        assert len(s._ids) == len(s._pos) == displaced


def test_ledger_at_eight_times_the_default_capacity_starts_empty():
    """Construction allocates nothing per slot: 5.2M slots, two empty
    maps, and the identity at both ends of the space."""
    config = default_config(16)
    s = ShadowMemory(AddressSpace(config.nm_bytes, config.fm_bytes))
    last = (config.nm_bytes + config.fm_bytes) // SUBBLOCK_BYTES - 1
    assert last + 1 > 5_000_000
    assert s._ids == {} and s._pos == {}
    assert s.location(0) == (Level.NM, 0)
    assert s.location(last) == (Level.FM, s.fm_slots - 1)
    s.check_self_bijection()
