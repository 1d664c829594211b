"""Shadow memory: an independent model of where every subblock lives.

The simulator's schemes keep remapping *metadata* (bit vectors, remap
entries, reverse maps) and emit device :class:`~repro.schemes.base.Op`
traffic describing the data movement they intend.  :class:`ShadowMemory`
closes the loop: it tags every 64 B slot of the NM and FM devices with
the **logical identity** of the subblock stored there (initially the
identity mapping — flat subblock *k* in slot *k*) and replays each
plan's operations, so at any instant it knows, independently of any
scheme's bookkeeping, which data each physical slot holds.

Every scheme in this repository keeps each subblock in exactly one NM
or FM slot (the paper's flat part-of-memory premise), and replay
interprets the one movement primitive they all use: the
**position-for-position exchange**.
A subblock swap, a 2 KB migration, a restore or a batch install all
decompose into pairs of 64 B slots — one NM, one FM, at the same
within-block index — that are each read *and* written inside one plan;
when such a pair completes, the two slots' contents exchange.  Reads
without a matching write (demand reads, speculative predictor reads,
metadata fetches) and writes without a matching read (LLC writebacks,
in-place demand writes) move nothing.

The ledger numbers every slot in one **position space** — NM slot *s*
is position *s*, FM slot *s* is position ``nm_slots + s`` — and keeps
the permutation sparse: ``_ids`` maps a position to the identity stored
there and ``_pos`` an identity to the position holding it, each holding
only *displaced* entries.  Everywhere else the identity holds, so the
ledger's memory, its construction and its self-check scale with the
subblocks a run has moved, not with the flat space.  An exchange keeps
both maps canonical: an identity back at its own position leaves both.
:meth:`ShadowMemory.displaced_blocks` names the 2 KB blocks holding a
displaced subblock, from the displaced entries alone, and
:meth:`ShadowMemory.placement` is what ``locate`` of one address must
answer, so the oracle's bijection scan compares subblock by subblock
only the blocks that moved.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.schemes.base import FM, NM, InvariantViolation, Level, Op
from repro.sim.config import SUBBLOCK_BYTES, SUBBLOCKS_PER_BLOCK
from repro.xmem.address import AddressSpace


class ShadowViolation(InvariantViolation):
    """Replayed device traffic contradicts the shadow's model."""


class ShadowMemory:
    """Slot-granularity ledger of logical subblock identities.

    Identities are global flat-space subblock numbers (``addr // 64``).
    NM slot *s* is device-local offset ``s * 64`` of the NM data region;
    FM slot *s* likewise on the FM device.  NM slot *s* is ledger
    position *s* and FM slot *s* is position ``nm_slots + s``.
    """

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self.nm_slots = space.nm_bytes // SUBBLOCK_BYTES
        self.fm_slots = space.fm_bytes // SUBBLOCK_BYTES
        self._nm_bytes = space.nm_bytes
        #: position -> logical id stored there, displaced ids only.
        self._ids: Dict[int, int] = {}
        #: logical id -> position holding it, the inverse of ``_ids``.
        self._pos: Dict[int, int] = {}
        self.exchanges_replayed = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def location(self, sid: int) -> Tuple[Level, int]:
        """(level, slot) currently holding logical subblock ``sid``."""
        if not 0 <= sid < self.nm_slots + self.fm_slots:
            raise ValueError(f"subblock id {sid} out of space")
        return self._level_slot(self._pos.get(sid, sid))

    def id_at(self, level: Level, slot: int) -> int:
        """Logical id stored in a slot."""
        position = self._position(level, slot)
        return self._ids.get(position, position)

    def _position(self, level: Level, slot: int) -> int:
        return slot if level is NM else self.nm_slots + slot

    def _level_slot(self, position: int) -> Tuple[Level, int]:
        if position < self.nm_slots:
            return NM, position
        return FM, position - self.nm_slots

    def placement(self, paddr: int) -> Tuple[Level, int]:
        """``(level, device byte offset)`` holding the data of in-space
        flat address ``paddr`` — what ``locate(paddr)`` must return."""
        sid = paddr // SUBBLOCK_BYTES
        offset = (self._pos.get(sid, sid) * SUBBLOCK_BYTES
                  + paddr % SUBBLOCK_BYTES)
        if offset < self._nm_bytes:
            return NM, offset
        return FM, offset - self._nm_bytes

    def displaced_blocks(self) -> List[int]:
        """The 2 KB flat blocks, ascending, holding a subblock that is
        not at its own position.  Every other block is wholly at home."""
        return sorted({sid // SUBBLOCKS_PER_BLOCK for sid in self._pos})

    def check_self_bijection(self) -> None:
        """The ledger itself must stay a bijection (exchange replay
        preserves it by construction; this guards the replay code)."""
        # Over the displaced entries, the two maps must be inverses over
        # one key set, hold no identity entry and stay in space; then,
        # with the identity everywhere else, the ledger is a bijection.
        # Every key of either map is an id whose round trip through both
        # maps is checked, lowest first, so the lowest bad id is named.
        ids, pos = self._ids, self._pos
        total = self.nm_slots + self.fm_slots
        for sid in sorted(ids.keys() | pos.keys()):
            position = pos.get(sid, sid)
            stored = ids.get(position, position)
            if not (0 <= sid < total and 0 <= position < total):
                problem = f"indexed at position {position}, out of space"
            elif stored != sid:
                level, slot = self._level_slot(position)
                problem = (f"indexed at {level.value} slot {slot} which "
                           f"holds {stored}")
            elif pos.get(sid) == sid or ids.get(sid) == sid:
                problem = "has an explicit identity entry"
            else:
                continue
            raise ShadowViolation(f"ledger corrupt: id {sid} {problem}")

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def data_slots(self, op: Op) -> range:
        """64 B slots *fully contained* in ``op``'s byte range, restricted
        to the data region.  Metadata traffic (the NM metadata region,
        sub-64 B remap-entry reads, the 8 B tail of a tag-and-data burst)
        therefore contributes no slots."""
        limit = self.nm_slots if op.level is NM else self.fm_slots
        first = (op.addr + SUBBLOCK_BYTES - 1) // SUBBLOCK_BYTES
        last = (op.addr + op.size) // SUBBLOCK_BYTES  # exclusive
        return range(min(first, limit), min(last, limit))

    def apply(self, ops: Iterable[Op]) -> None:
        """Replay one plan's operations (critical path first, then
        background, in issue order), updating the ledger."""
        # (level, slot) -> [read, written, queued-for-pairing]
        marks: Dict[Tuple[Level, int], List[bool]] = {}
        # within-block index -> completed slots awaiting a partner, in
        # completion order
        ready: Dict[int, List[Tuple[Level, int]]] = {}
        for op in ops:
            for slot in self.data_slots(op):
                key = (op.level, slot)
                mark = marks.setdefault(key, [False, False, False])
                mark[1 if op.is_write else 0] = True
                if mark[0] and mark[1] and not mark[2]:
                    mark[2] = True
                    self._pair_or_queue(key, marks, ready)
        # Leftovers are fine: read-only slots (demand/speculative reads),
        # write-only slots (in-place writebacks) and completed-but-
        # unpaired slots (in-place rewrite) all move nothing.

    def _pair_or_queue(self, key: Tuple[Level, int],
                       marks: Dict[Tuple[Level, int], List[bool]],
                       ready: Dict[int, List[Tuple[Level, int]]]) -> None:
        level, slot = key
        index = slot % SUBBLOCKS_PER_BLOCK
        queue = ready.setdefault(index, [])
        for position, partner in enumerate(queue):
            if partner[0] is not level:
                queue.pop(position)
                del marks[key]
                del marks[partner]
                self._exchange(key, partner)
                return
        queue.append(key)

    def _exchange(self, a: Tuple[Level, int], b: Tuple[Level, int]) -> None:
        """Position-for-position content swap between an NM and an FM
        slot (the single movement primitive of every scheme)."""
        ids, pos = self._ids, self._pos
        pa = self._position(*a)
        pb = self._position(*b)
        ida = ids.pop(pa, pa)
        idb = ids.pop(pb, pb)
        pos.pop(ida, None)
        pos.pop(idb, None)
        # an id back at its own position leaves both maps
        if idb != pa:
            ids[pa] = idb
            pos[idb] = pa
        if ida != pb:
            ids[pb] = ida
            pos[ida] = pb
        self.exchanges_replayed += 1
