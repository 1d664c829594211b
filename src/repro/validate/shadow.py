"""Shadow memory: an independent model of where every subblock lives.

The simulator's schemes keep remapping *metadata* (bit vectors, remap
entries, reverse maps) and emit device :class:`~repro.schemes.base.Op`
traffic describing the data movement they intend.  :class:`ShadowMemory`
closes the loop: it tags every 64 B slot of the NM and FM devices with
the **logical identity** of the subblock stored there (initially the
identity mapping — flat subblock *k* in slot *k*) and replays each
plan's operations, so at any instant it knows, independently of any
scheme's bookkeeping, which data each physical slot holds.

Replay interprets the one movement primitive every part-of-memory
scheme in this repository uses: the **position-for-position exchange**.
A subblock swap, a 2 KB migration, a restore or a batch install all
decompose into pairs of 64 B slots — one NM, one FM, at the same
within-block index — that are each read *and* written inside one plan;
when such a pair completes, the two slots' contents exchange.  Reads
without a matching write (demand reads, speculative predictor reads,
metadata fetches) and writes without a matching read (LLC writebacks,
in-place demand writes) move nothing.

The ledger numbers every slot in one **position space** — NM slot *s*
is position *s*, FM slot *s* is position ``nm_slots + s`` — and keeps
two plain lists over it: ``_ids[position]``, the identity stored there,
and ``_pos[id]``, the position holding that identity.  Each is the
other's inverse; an exchange swaps two entries of each.  Both start as
the identity, and :meth:`ShadowMemory.placements` streams the ledger
slot by slot, so the oracle's whole-space scan compares it against
``locate`` without building anything per subblock.

Cache-style schemes (Alloy) are not bijective: FM is always the home
and NM holds copies.  ``copy_mode=True`` switches the shadow to copy
tracking — an NM write paired with an FM read records a fill; FM
contents stay the identity mapping.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from operator import eq, mul
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.schemes.base import FM, NM, InvariantViolation, Level, Op
from repro.sim.config import SUBBLOCK_BYTES, SUBBLOCKS_PER_BLOCK
from repro.xmem.address import AddressSpace


class ShadowViolation(InvariantViolation):
    """Replayed device traffic contradicts the shadow's model."""


class ShadowMemory:
    """Slot-granularity ledger of logical subblock identities.

    Identities are global flat-space subblock numbers (``addr // 64``).
    NM slot *s* is device-local offset ``s * 64`` of the NM data region;
    FM slot *s* likewise on the FM device.  In bijective mode NM slot *s*
    is ledger position *s* and FM slot *s* is position ``nm_slots + s``.
    """

    def __init__(self, space: AddressSpace, copy_mode: bool = False) -> None:
        self.space = space
        self.copy_mode = copy_mode
        self.nm_slots = space.nm_bytes // SUBBLOCK_BYTES
        self.fm_slots = space.fm_bytes // SUBBLOCK_BYTES
        if copy_mode:
            #: NM slot -> logical id of the FM subblock copied there.
            self._nm_copy: Dict[int, int] = {}
        else:
            ids = list(range(self.nm_slots + self.fm_slots))
            #: position -> logical id stored there.
            self._ids: List[int] = ids
            #: logical id -> position holding it, the inverse of ``_ids``
            #: (a copy, so the two lists share their int objects).
            self._pos: List[int] = ids.copy()
        self.exchanges_replayed = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def location(self, sid: int) -> Tuple[Level, int]:
        """(level, slot) currently holding logical subblock ``sid``."""
        if not 0 <= sid < self.nm_slots + self.fm_slots:
            raise ValueError(f"subblock id {sid} out of space")
        if self.copy_mode:
            # FM is always the home; an NM copy shadows it when present.
            fm_slot = sid - self.nm_slots
            if fm_slot < 0:
                raise ValueError(
                    f"subblock id {sid} is NM-native; a copy-mode scheme "
                    "exposes only FM capacity")
            nm_slot = fm_slot % self.nm_slots
            if self._nm_copy.get(nm_slot) == sid:
                return NM, nm_slot
            return FM, fm_slot
        position = self._pos[sid]
        if position < self.nm_slots:
            return NM, position
        return FM, position - self.nm_slots

    def id_at(self, level: Level, slot: int) -> Optional[int]:
        """Logical id stored in a slot (copy mode: None = no NM copy)."""
        if self.copy_mode:
            if level is FM:
                return self.nm_slots + slot
            return self._nm_copy.get(slot)
        return self._ids[self._position(level, slot)]

    def _position(self, level: Level, slot: int) -> int:
        return slot if level is NM else self.nm_slots + slot

    def placements(self) -> Tuple[Iterable[int],
                                  Iterable[Tuple[Level, int]]]:
        """Two streams in step, for a whole-space scan: the flat address
        of every tracked subblock, and the ``(level, device byte offset)``
        the ledger holds it at — what ``locate`` of that address must
        return.  Bijective mode walks the positions (NM slots, then FM
        slots) with the address of the id each holds; copy mode walks the
        FM lines in address order, each at its NM copy when it has one.
        Both are lazy: a scan builds no list per subblock.  The address
        stream names every id exactly once only while the ledger is a
        bijection, so scan after :meth:`check_self_bijection`."""
        nm_bytes = self.space.nm_bytes
        if self.copy_mode:
            return (range(nm_bytes, self.space.total_bytes, SUBBLOCK_BYTES),
                    chain.from_iterable(self._copy_runs()))
        return (map(mul, self._ids, repeat(SUBBLOCK_BYTES)),
                chain(zip(repeat(NM, self.nm_slots),
                          range(0, nm_bytes, SUBBLOCK_BYTES)),
                      self._fm_homes(0, self.fm_slots)))

    def _copy_runs(self) -> Iterator[Iterable[Tuple[Level, int]]]:
        """Copy mode's placements as runs: FM lines at their homes up to
        the next copied line, then that line at its NM copy."""
        line = 0
        for copied, slot in sorted((sid - self.nm_slots, slot)
                                   for slot, sid in self._nm_copy.items()):
            yield self._fm_homes(line, copied)
            yield ((NM, slot * SUBBLOCK_BYTES),)
            line = copied + 1
        yield self._fm_homes(line, self.fm_slots)

    @staticmethod
    def _fm_homes(first: int, end: int) -> Iterable[Tuple[Level, int]]:
        """FM slots ``[first, end)``, each at its own offset."""
        return zip(repeat(FM, end - first),
                   range(first * SUBBLOCK_BYTES, end * SUBBLOCK_BYTES,
                         SUBBLOCK_BYTES))

    def check_self_bijection(self) -> None:
        """The ledger itself must stay a bijection (exchange replay
        preserves it by construction; this guards the replay code)."""
        if self.copy_mode:
            for slot, sid in self._nm_copy.items():
                if (sid - self.nm_slots) % self.nm_slots != slot:
                    raise ShadowViolation(
                        f"NM slot {slot} copies line {sid} of a different "
                        "congruence class")
            return
        ids, pos = self._ids, self._pos
        if all(map(eq, map(ids.__getitem__, pos), count())):
            return
        for sid, position in enumerate(pos):
            stored = ids[position]
            if stored != sid:
                level, slot = self.location(sid)
                raise ShadowViolation(
                    f"ledger corrupt: id {sid} indexed at {level.value} slot "
                    f"{slot} which holds {stored}")

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
        if self.copy_mode:
            self._apply_copy_mode(list(ops))
            return
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
        slot (the single movement primitive of every bijective scheme)."""
        ids, pos = self._ids, self._pos
        pa = self._position(*a)
        pb = self._position(*b)
        ida, idb = ids[pa], ids[pb]
        ids[pa], ids[pb] = idb, ida
        pos[idb], pos[ida] = pa, pb
        self.exchanges_replayed += 1

    # ------------------------------------------------------------------
    def _apply_copy_mode(self, ops: List[Op]) -> None:
        """Alloy-style fill tracking: an NM data write paired with an FM
        read at the same within-block index installs a copy; everything
        else (tag probes, dirty victim writebacks, in-place writeback
        writes) leaves the ledger alone."""
        fm_reads: Dict[int, List[int]] = {}
        for op in ops:
            if op.level is FM and not op.is_write:
                for slot in self.data_slots(op):
                    fm_reads.setdefault(slot % SUBBLOCKS_PER_BLOCK,
                                        []).append(self.nm_slots + slot)
        for op in ops:
            if op.level is not NM or not op.is_write:
                continue
            for slot in self.data_slots(op):
                sources = fm_reads.get(slot % SUBBLOCKS_PER_BLOCK, [])
                if len(sources) > 1:
                    raise ShadowViolation(
                        f"ambiguous fill: NM slot {slot} written while "
                        f"{len(sources)} FM lines of its index were read")
                if sources:
                    self._nm_copy[slot] = sources[0]
                # no FM read: in-place write (LLC writeback) — keep copy
