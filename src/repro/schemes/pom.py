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

from repro.schemes.base import FM, NM, AccessPlan, Level, MemoryScheme, Op
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
        #: NM frame f currently holds large block _present[f] (global
        #: block number; initially its own NM block).
        self._present: List[int] = list(range(self.num_frames))
        #: displaced block -> FM home block storing it now.
        self._home_of: Dict[int, int] = {}
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

        if self._present[frame] == block:
            self._occupant_count[frame] += 1
            meta_stage.append([Op(NM, frame * BLOCK_BYTES + aligned,
                                  SUBBLOCK_BYTES, False)])
            plan = AccessPlan(NM, meta_stage, [], False, "nm-hit")
            self.record_plan(plan)
            return plan

        home = self._home_of.get(block, block)
        fm_offset = self._fm_offset_of_block(home) + aligned
        background: List[Op] = []
        self._counters[block] = self._counters.get(block, 0) + 1
        if self._counters[block] >= self._occupant_count[frame] + self.threshold:
            background = self._migrate(frame, block, home)
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
    def _migrate(self, frame: int, block: int, home: int) -> List[Op]:
        """Swap the whole 2 KB of ``block`` (at FM ``home``) with the
        frame's occupant.  Generates 4 KB of background traffic."""
        occupant = self._present[frame]
        self._present[frame] = block
        self._home_of.pop(block, None)
        if occupant == home:
            self._home_of.pop(occupant, None)
        else:
            self._home_of[occupant] = home
        self._occupant_count[frame] = self._counters.pop(block)
        self.stats.block_migrations += 1
        fm_base = self._fm_offset_of_block(home)
        nm_base = frame * BLOCK_BYTES
        return [
            Op(FM, fm_base, BLOCK_BYTES, False),   # fetch new block
            Op(NM, nm_base, BLOCK_BYTES, False),   # read occupant out
            Op(NM, nm_base, BLOCK_BYTES, True),    # install new block
            Op(FM, fm_base, BLOCK_BYTES, True),    # evict occupant
        ]

    # ------------------------------------------------------------------
    def locate(self, paddr: int) -> Tuple[Level, int]:
        block = paddr // BLOCK_BYTES
        within = paddr % BLOCK_BYTES
        frame = block % self.num_frames
        if self._present[frame] == block:
            return NM, frame * BLOCK_BYTES + within
        home = self._home_of.get(block, block)
        offset = home * BLOCK_BYTES - self._nm_bytes
        if offset < 0:
            raise ValueError(f"block {home} is an NM home, not FM")
        return FM, offset + within

    def _fm_offset_of_block(self, block: int) -> int:
        offset = block * BLOCK_BYTES - self.space.nm_bytes
        if offset < 0:
            raise ValueError(f"block {block} is an NM home, not FM")
        return offset

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
        """Direct-mapped block bookkeeping: every frame holds a block of
        its own congruence class, displaced homes are unique FM blocks,
        and competing counters only exist for non-resident blocks."""
        total_blocks = self.space.total_blocks
        frames = self.num_frames
        present = self._present
        counts = self._occupant_count
        for frame, occupant in enumerate(present):
            if not 0 <= occupant < total_blocks:
                self._fail(f"frame {frame} holds out-of-space block "
                           f"{occupant}")
            if occupant % frames != frame:
                self._fail(f"frame {frame} holds block {occupant} from a "
                           "different congruence class")
            if counts[frame] < 0:
                self._fail(f"frame {frame} occupant count negative")
        homes_seen = {}
        for block, home in self._home_of.items():
            if block % frames != home % frames:
                self._fail(f"block {block} stored at home {home} outside "
                           "its congruence class")
            if not frames <= home < total_blocks:
                self._fail(f"block {block} claims non-FM home {home}")
            if present[block % frames] == block:
                self._fail(f"block {block} recorded as displaced while its "
                           "frame also holds it (duplication)")
            if home in homes_seen:
                self._fail(f"FM home {home} stores both block "
                           f"{homes_seen[home]} and block {block}")
            homes_seen[home] = block
        for block, count in self._counters.items():
            if count < 0:
                self._fail(f"block {block} counter negative")
            if present[block % frames] == block:
                self._fail(f"resident block {block} still has a competing "
                           "counter")

    # exposed for tests ----------------------------------------------------
    def frame_occupant(self, frame: int) -> int:
        return self._present[frame]
