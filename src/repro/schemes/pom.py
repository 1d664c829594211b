"""PoM — Part of Memory (Sim et al., ISCA 2014), as characterised in the
SILC-FM paper.

PoM migrates whole 2 KB large blocks.  Each FM block has a competing
access counter; when the counter says the block is hotter than the NM
frame's current occupant by a threshold, the two blocks swap in their
entirety (32 subblocks each way).  The remap table is assumed cached in
SRAM (PoM dedicates a remap cache), so lookups are free; the cost PoM
pays is **migration bandwidth** — 4 KB of traffic per swap decision — and
the lost opportunity while a counter accumulates to the threshold
(Section II-B: "PoM has to accumulate a certain access count until the
migration is triggered, so it achieves a lower performance").

Mapping is direct: FM block ``b`` competes for NM frame ``b mod F``
(``F`` = NM frames).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.schemes.base import (
    FM, NM, AccessPlan, ExchangeLedger, Level, MemoryScheme, Op)
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.xmem.address import AddressSpace

#: accesses an FM block must accumulate (beyond the NM occupant's count)
#: before a migration is considered worth 4 KB of traffic.
DEFAULT_MIGRATION_THRESHOLD = 16
#: segments whose remap entries fit in PoM's SRAM remap cache (scaled
#: with the rest of the system: PoM's cache covers a fraction of the NM
#: frame count, so cold sets pay a metadata fetch from NM).
DEFAULT_REMAP_CACHE_ENTRIES = 256
#: remap entry size in the NM metadata region.
METADATA_ENTRY_BYTES = 8


class PomScheme(MemoryScheme):
    """Whole-block (2 KB) counter-based migration."""

    name = "pom"
    SPAN_ROWS = ("nm-hit", "fm", "fm-migrate")

    def __init__(self, space: AddressSpace,
                 threshold: int = DEFAULT_MIGRATION_THRESHOLD,
                 remap_cache_entries: int = DEFAULT_REMAP_CACHE_ENTRIES) -> None:
        super().__init__(space)
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if remap_cache_entries < 1:
            raise ValueError("remap cache must have at least one entry")
        self.threshold = threshold
        self.num_frames = space.nm_blocks
        #: LRU set of frames whose remap entry is cached in SRAM; a miss
        #: costs a metadata fetch from the NM metadata region before the
        #: data access can be routed.
        self._remap_cache: "OrderedDict[int, None]" = OrderedDict()
        self._remap_cache_entries = remap_cache_entries
        self.remap_cache_hits = 0
        self.remap_cache_misses = 0
        self._meta_base = space.nm_bytes
        #: which block each frame holds and where displaced blocks live
        self.ledger = ExchangeLedger(space, BLOCK_BYTES)
        #: access counters for candidate (non-resident) blocks, per frame.
        self._counters: Dict[int, int] = {}
        #: count of accesses the current occupant has received, per frame.
        self._occupant_count: List[int] = [0] * self.num_frames

    # ------------------------------------------------------------------
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        block = paddr // BLOCK_BYTES
        frame = block % self.num_frames
        within = paddr % BLOCK_BYTES
        aligned = within - within % SUBBLOCK_BYTES
        meta_stage = self._remap_lookup(frame)

        if self.ledger.present[frame] == block:
            self._occupant_count[frame] += 1
            meta_stage.append([Op(NM, frame * BLOCK_BYTES + aligned,
                                  SUBBLOCK_BYTES, False)])
            plan = AccessPlan(NM, meta_stage, [], False, "nm-hit")
            self.record_plan(plan)
            return plan

        fm_offset = self.ledger.fm_offset(block) + aligned
        background: List[Op] = []
        self._counters[block] = self._counters.get(block, 0) + 1
        if self._counters[block] >= self._occupant_count[frame] + self.threshold:
            background = self._migrate(frame, block)
        meta_stage.append([Op(FM, fm_offset, SUBBLOCK_BYTES, False)])
        plan = AccessPlan(FM, meta_stage, background, False,
                          "fm-migrate" if background else "fm")
        self.record_plan(plan)
        return plan

    def _remap_lookup(self, frame: int) -> List[List[Op]]:
        """SRAM remap-cache check: a hit routes the access for free, a
        miss prepends an NM metadata fetch to the critical path."""
        if frame in self._remap_cache:
            self._remap_cache.move_to_end(frame)
            self.remap_cache_hits += 1
            return []
        self.remap_cache_misses += 1
        self._remap_cache[frame] = None
        if len(self._remap_cache) > self._remap_cache_entries:
            self._remap_cache.popitem(last=False)
        return [[Op(NM, self._meta_base + frame * METADATA_ENTRY_BYTES,
                    METADATA_ENTRY_BYTES, False)]]

    # ------------------------------------------------------------------
    def _migrate(self, frame: int, block: int) -> List[Op]:
        """Swap the whole 2 KB of ``block`` with the frame's occupant.
        Generates 4 KB of background traffic."""
        fm_base = self.ledger.exchange(frame, block)
        self._occupant_count[frame] = self._counters.pop(block)
        self.stats.block_migrations += 1
        nm_base = frame * BLOCK_BYTES
        return [
            Op(FM, fm_base, BLOCK_BYTES, False),   # fetch new block
            Op(NM, nm_base, BLOCK_BYTES, False),   # read occupant out
            Op(NM, nm_base, BLOCK_BYTES, True),    # install new block
            Op(FM, fm_base, BLOCK_BYTES, True),    # evict occupant
        ]

    # ------------------------------------------------------------------
    def at_home(self, block: int) -> bool:
        """An NM block in its own frame, or an FM block neither in its
        frame nor stored at another block's home."""
        present = self.ledger.present
        if block < self.num_frames:
            return present[block] == block
        return (present[block % self.num_frames] != block
                and block not in self.ledger.home_of)

    def locate_moved(self, paddr: int) -> Tuple[Level, int]:
        block = paddr // BLOCK_BYTES
        within = paddr % BLOCK_BYTES
        frame = block % self.num_frames
        if self.ledger.present[frame] == block:
            return NM, frame * BLOCK_BYTES + within
        return FM, self.ledger.fm_offset(block) + within

    def attach_telemetry(self, hub) -> None:
        """PoM's costs are migration bandwidth (base block_migrations
        meter) and remap-cache misses on the critical path — expose the
        hit rate plus the counter-table population (how many blocks are
        accumulating toward the migration threshold)."""
        super().attach_telemetry(hub)
        hub.meter("pom.remap_cache_misses", lambda: self.remap_cache_misses)
        hub.gauge("pom.remap_cache_hit_rate", lambda: (
            self.remap_cache_hits /
            (self.remap_cache_hits + self.remap_cache_misses)
            if self.remap_cache_hits + self.remap_cache_misses else 0.0))
        hub.gauge("pom.competing_blocks", lambda: float(len(self._counters)))

    def check_invariants(self) -> None:
        """Direct-mapped block bookkeeping (the ledger's check), and
        competing counters only for non-resident blocks."""
        self.ledger.check(self._fail, self.num_frames)
        present = self.ledger.present
        for frame, count in enumerate(self._occupant_count):
            if count < 0:
                self._fail(f"frame {frame} occupant count negative")
        for block, count in self._counters.items():
            if count < 0:
                self._fail(f"block {block} counter negative")
            if present[block % self.num_frames] == block:
                self._fail(f"resident block {block} still has a competing "
                           "counter")
