"""SILC-FM: Subblocked InterLeaved Cache-Like Flat Memory (Section III).

NM is organised as a set-associative structure of 2 KB frames.  FM block
``b`` maps to congruence set ``b mod num_sets`` and may interleave its
subblocks into any unlocked way of that set; swaps are position-for-
position between the frame and the block's FM home, so each (frame,
partner) pair exchanges subblocks under a single 32-bit residency vector
and the flat-space mapping stays a bijection.

The access semantics implement Table I exactly; plans are tagged with
their Table I row so the test-suite can verify every case:

=========  =========  ==========  ==========================================
remap      bit        NM address  action                              (note)
=========  =========  ==========  ==========================================
match      1          --          service from NM                     row1
match      0          --          swap subblock from FM               row2
mismatch   1          yes         swap subblock from FM (native back) row3
mismatch   0          yes         service from NM                     row4
mismatch   1          no          restore current block + swap        row5
mismatch   0          no          restore current block + swap        row6
=========  =========  ==========  ==========================================

On top of the swap machinery sit the four features the evaluation
ablates (Fig. 6): bit-vector history batch fetch, hot-block locking,
set associativity and bandwidth-balancing bypass, plus the way/location
predictor that shortens the metadata critical path (Section III-F).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.activity import ActivityMonitor
from repro.core.bitvector import BitVectorHistoryTable
from repro.core.bypass import BandwidthBalancer
from repro.core.metadata import COUNTER_MAX, FULL_BITVEC, FrameMetadata
from repro.core.predictor import WayPredictor
from repro.schemes.base import FM, NM, AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import (
    BLOCK_BYTES,
    SUBBLOCK_BYTES,
    SUBBLOCKS_PER_BLOCK,
    SilcFmConfig,
)
from repro.xmem.address import AddressSpace

#: one remap entry (remap field + bit vector + counters + lock/LRU bits)
METADATA_ENTRY_BYTES = 8

#: a flat address's block and subblock numbers are these right shifts of
#: it; a subblock number's index within its block is this mask of it
_BLOCK_SHIFT = BLOCK_BYTES.bit_length() - 1
_SUBBLOCK_SHIFT = SUBBLOCK_BYTES.bit_length() - 1
_INDEX_MASK = SUBBLOCKS_PER_BLOCK - 1


class SilcFmScheme(MemoryScheme):
    """The paper's contribution."""

    name = "silcfm"
    #: Table I rows this scheme's plans can resolve to (plan notes plus
    #: the ``+lock`` variants for lock-pinned hits) — the span-tracing
    #: row vocabulary ``repro analyze`` reports against.
    SPAN_ROWS = ("row1", "row1+lock", "row2", "row2-bypass",
                 "row3", "row3-bypass", "row4", "row4+lock",
                 "row5", "row5-bypass", "all-locked",
                 "nm-displaced-by-lock")

    def __init__(self, space: AddressSpace,
                 config: Optional[SilcFmConfig] = None) -> None:
        super().__init__(space)
        self.config = config = config or SilcFmConfig()
        self.assoc = assoc = config.associativity
        self.num_sets = sets = space.num_sets(assoc)
        self.frames = [FrameMetadata() for _ in range(space.nm_blocks)]
        #: FM block -> frame index currently interleaving/holding it.
        self._frame_of_block: Dict[int, int] = {}
        self.monitor = ActivityMonitor(
            self.frames,
            hot_threshold=config.hot_threshold,
            aging_period=config.aging_period_accesses,
        )
        self.history = BitVectorHistoryTable(config.bitvector_table_entries)
        self.predictor = WayPredictor(config.predictor_entries)
        self.balancer = BandwidthBalancer(
            config.bypass_target_access_rate,
            config.access_rate_window,
        )
        self._lru_clock = 0
        #: SRAM cache of frames whose remap entry is on chip, least
        #: recently used first; a hit costs nothing, a miss fetches from
        #: the metadata channel.
        self._meta_cache: Dict[int, None] = {}
        self._meta_cache_entries = config.metadata_cache_entries
        self.meta_cache_hits = 0
        self.meta_cache_misses = 0
        # What the frozen config and address space fix, read once here.
        self._nm_blocks = space.nm_blocks
        self._lock_on = config.enable_locking
        self._bypass_on = config.enable_bypass
        self._predict_on = config.enable_predictor
        self._history_on = config.enable_bitvector_history
        self._predict_mask = self.predictor.mask
        #: each congruence set's ways
        self._ways = [tuple(space.nm_frames_of_set(s, assoc))
                      for s in range(sets)]
        #: each frame's remap-entry read.  Entries sit right after the
        #: data region, laid out set-contiguously (set 0's ways, then
        #: set 1's, ...) so a serial scan of one set's entries stays
        #: within one row — consecutive probes are row-buffer hits, which
        #: is why the metadata region behaves like the paper's dedicated
        #: metadata channel.
        self._meta_ops = [
            Op(NM, space.nm_bytes + (way % sets * assoc + way // sets)
               * METADATA_ENTRY_BYTES, METADATA_ENTRY_BYTES, False)
            for way in range(space.nm_blocks)]
        # feature-level statistics
        self.restores = 0
        self.installs = 0
        self.locks_acquired = 0
        self.locks_released = 0
        self.all_locked_fallbacks = 0
        self.batch_fetched_subblocks = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        """Decide one miss in one frame: its Table I row, its metadata
        critical path (Section III-F), then predictor and balancer
        training.  Rows 3 and 5/6, locking and the multi-entry metadata
        scan are helpers."""
        if self.monitor.tick() and self._lock_on:
            self._release_stale_locks()
        if not 0 <= paddr < self._total_bytes:
            raise ValueError(f"address {paddr:#x} outside flat space")
        block = paddr >> _BLOCK_SHIFT
        index = (paddr >> _SUBBLOCK_SHIFT) & _INDEX_MASK
        bypassing = self._bypass_on and self.balancer.bypassing
        # one predictor index serves the lookup and the training
        pway = None
        pin_fm = bypassed = False
        if self._predict_on:
            table = self.predictor.table
            pindex = (pc ^ block) & self._predict_mask
            entry = table.get(pindex)
            if entry is not None:
                pway, pin_fm = entry

        if paddr >= self._nm_bytes:
            way = self._frame_of_block.get(block)
            if way is not None:
                # rows 1/2: the block interleaves into ``way``
                frame = self.frames[way]
                self._lru_clock += 1
                frame.lru = self._lru_clock
                count = frame.fm_count
                frame.fm_count = count + 1 if count < COUNTER_MAX else COUNTER_MAX
                if frame.locked or frame.bitvec >> index & 1:
                    in_fm = False
                    plan = AccessPlan(NM, [[Op(
                        NM,
                        (way << _BLOCK_SHIFT) + (index << _SUBBLOCK_SHIFT),
                        SUBBLOCK_BYTES, False)]], [], False, "row1",
                        frame.locked)
                elif bypassing:
                    in_fm = bypassed = True
                    plan = self._bypass_plan(block, index, "row2-bypass")
                else:
                    # row 2: bring the FM block's subblock into the
                    # frame, pushing the native subblock out to the
                    # block's home (position-for-position exchange)
                    in_fm = True
                    if frame.bitvec == 0:
                        frame.first_pc = pc
                        frame.first_addr = paddr
                    frame.bitvec |= 1 << index
                    self.stats.subblock_swaps += 1
                    if self.telemetry is not None:
                        self.telemetry.instant("swap-in", cat="swap", way=way,
                                               block=block, index=index)
                    slot = (way << _BLOCK_SHIFT) + (index << _SUBBLOCK_SHIFT)
                    home = ((paddr >> _SUBBLOCK_SHIFT << _SUBBLOCK_SHIFT)
                            - self._nm_bytes)
                    plan = AccessPlan(
                        FM, [[Op(FM, home, SUBBLOCK_BYTES, False)]],
                        [Op(NM, slot, SUBBLOCK_BYTES, False),  # native out
                         Op(NM, slot, SUBBLOCK_BYTES, True),   # FM data in
                         Op(FM, home, SUBBLOCK_BYTES, True)],  # native home
                        False, "row2")
                if (self._lock_on and not bypassing and not frame.locked
                        and frame.fm_count >= self.monitor.hot_threshold
                        > frame.nm_count):
                    self._lock_fm(way, plan.background)
                # the scan up to the matching way collapses to one entry
                # on a correct way prediction
                single = pway == way
                matched = True
            else:
                # remap mismatch in every way of the set (rows 5/6): the
                # miss is known only once every remap entry is checked
                in_fm = True
                single = matched = False
                set_index = block % self.num_sets
                if bypassing:
                    bypassed = True
                    plan = self._bypass_plan(block, index, "row5-bypass")
                    way = set_index
                else:
                    way = self._choose_victim(set_index, block)
                    if way is None:
                        self.all_locked_fallbacks += 1
                        plan = AccessPlan(FM, [[self._fm_sub_op(block, index)]],
                                          [], False, "all-locked", True)
                        way = set_index
                    else:
                        plan = self._interleave(way, block, index, paddr, pc)
        else:
            # rows 3/4: an NM-space request's frame is fixed by its
            # address, so exactly one remap entry is read
            way = block
            frame = self.frames[way]
            self._lru_clock += 1
            frame.lru = self._lru_clock
            count = frame.nm_count
            frame.nm_count = count + 1 if count < COUNTER_MAX else COUNTER_MAX
            in_fm = True
            if frame.locked and frame.lock_owner == "fm":
                # the native page is fully displaced to the partner's home
                plan = AccessPlan(FM, [[self._fm_sub_op(frame.remap, index)]],
                                  [], False, "nm-displaced-by-lock", True)
            elif (frame.remap is not None and not frame.locked
                  and frame.bitvec >> index & 1):
                if bypassing:
                    bypassed = True
                    plan = self._bypass_plan(frame.remap, index, "row3-bypass")
                else:
                    plan = self._swap_back(way, index)
            else:
                in_fm = False
                plan = AccessPlan(NM, [[Op(
                    NM, paddr >> _SUBBLOCK_SHIFT << _SUBBLOCK_SHIFT,
                    SUBBLOCK_BYTES, False)]], [], False, "row4",
                    frame.locked)
            if (self._lock_on and not bypassing and not frame.locked
                    and frame.nm_count >= self.monitor.hot_threshold):
                self._lock_nm(way, plan.background)
            single = matched = True

        # Section III-F: the remap entries read before the data access
        if single:
            meta_cache = self._meta_cache
            if way in meta_cache:
                del meta_cache[way]
                meta_cache[way] = None
                self.meta_cache_hits += 1
                meta = ()
            else:
                self.meta_cache_misses += 1
                meta_cache[way] = None
                if len(meta_cache) > self._meta_cache_entries:
                    del meta_cache[next(iter(meta_cache))]
                meta = (self._meta_ops[way],)
        else:
            meta = self._meta_scan(way, matched, pway)
        if pway is not None and (pin_fm and in_fm
                                 or pway == way and pin_fm == in_fm):
            # Perfect speculation, or FM location speculated correctly
            # (the way may be wrong): the data access is launched
            # immediately, and the metadata reads (if the entries are
            # not in the SRAM metadata cache) proceed in parallel purely
            # to *verify* the prediction, off the critical path ("the
            # latency is just a single access latency", Section III-F).
            plan.background.extend(meta)
        else:
            if pway is not None and pin_fm:
                # wasted speculative FM read: pure bandwidth cost, aimed
                # at ``paddr mod fm_bytes`` — for an FM-space address
                # not the block's FM home (``paddr - nm_bytes``), kept
                # so because aiming it there changes simulated results.
                spec_offset = paddr % self.space.fm_bytes
                spec_offset -= spec_offset % SUBBLOCK_BYTES
                plan.background.append(
                    Op(FM, spec_offset, SUBBLOCK_BYTES, False))
            elif pway == way and in_fm:
                # NM speculated at the right way but the data was in FM:
                # the speculative NM data read is wasted bandwidth.
                plan.background.append(self._nm_sub_op(way, index))
            if meta:
                plan.stages = [[op] for op in meta] + plan.stages

        if self._predict_on and not bypassed:
            # A bypassed access says nothing about where the data will
            # live once balancing ends (the swap was suppressed, not
            # decided against); training in_fm=True here would keep
            # steering post-bypass requests at FM and waste speculative
            # FM reads long after the window closes.
            predictor = self.predictor
            if pway is not None:
                if pway == way:
                    predictor.way_correct += 1
                else:
                    predictor.way_wrong += 1
            if pin_fm == in_fm:
                predictor.loc_correct += 1
            else:
                predictor.loc_wrong += 1
            if pway != way or pin_fm != in_fm:
                table[pindex] = (way, in_fm)
        if self._bypass_on:
            self.balancer.record(not in_fm)
        self.record_plan(plan)
        return plan

    @property
    def bypassing(self) -> bool:
        """True while bandwidth balancing suppresses new swaps."""
        return self._bypass_on and self.balancer.bypassing

    # ------------------------------------------------------------------
    # telemetry (pull-based probes + event hooks)
    # ------------------------------------------------------------------
    def attach_telemetry(self, hub) -> None:
        """Register SILC-FM's feature-level signals.

        Meters cover the ablatable mechanisms (Fig. 6): swap/restore
        churn, locking, batch fetch and bypass.  Gauges expose the
        balancer's windowed access rate, predictor accuracy and the
        metadata-cache hit rate.  Bypass-mode flips additionally emit
        instant trace events via the balancer's transition observer —
        the time-domain signal Section III-E's feedback loop produces.
        """
        super().attach_telemetry(hub)
        hub.meter("silcfm.installs", lambda: self.installs)
        hub.meter("silcfm.restores", lambda: self.restores)
        hub.meter("silcfm.locks_acquired", lambda: self.locks_acquired)
        hub.meter("silcfm.locks_released", lambda: self.locks_released)
        hub.meter("silcfm.all_locked_fallbacks",
                  lambda: self.all_locked_fallbacks)
        hub.meter("silcfm.batch_fetched_subblocks",
                  lambda: self.batch_fetched_subblocks)
        hub.meter("silcfm.bypassed_accesses",
                  lambda: self.balancer.bypassed_accesses)
        hub.meter("silcfm.bypass_transitions",
                  lambda: self.balancer.transitions)
        hub.gauge("silcfm.bypassing",
                  lambda: float(self.balancer.bypassing), trace=True)
        hub.gauge("silcfm.window_access_rate",
                  lambda: self.balancer.current_rate(), trace=True)
        hub.gauge("silcfm.lifetime_nm_fraction",
                  lambda: self.balancer.lifetime_rate)
        hub.gauge("silcfm.locked_frames",
                  lambda: float(self.locked_frames), trace=True)
        hub.gauge("silcfm.predictor_way_accuracy",
                  lambda: self.predictor.way_accuracy)
        hub.gauge("silcfm.predictor_location_accuracy",
                  lambda: self.predictor.location_accuracy)
        hub.gauge("silcfm.meta_cache_hit_rate", lambda: (
            self.meta_cache_hits /
            (self.meta_cache_hits + self.meta_cache_misses)
            if self.meta_cache_hits + self.meta_cache_misses else 0.0))
        self.balancer.on_transition = self._on_bypass_transition

    def _on_bypass_transition(self, bypassing: bool, rate: float) -> None:
        if self.telemetry is not None:
            self.telemetry.instant(
                "bypass-on" if bypassing else "bypass-off",
                cat="bypass", window_rate=round(rate, 4))

    def at_home(self, block: int) -> bool:
        """An NM frame with no partner, or an FM block in no frame —
        most of the flat space."""
        if block < self._nm_blocks:
            return self.frames[block].remap is None
        return block not in self._frame_of_block

    def locate_moved(self, paddr: int) -> Tuple[Level, int]:
        index = paddr >> _SUBBLOCK_SHIFT & _INDEX_MASK
        if paddr < self._nm_bytes:
            frame = self.frames[paddr >> _BLOCK_SHIFT]
            if (frame.bitvec >> index & 1
                    or frame.locked and frame.lock_owner == "fm"):
                # the native subblock is out at the partner's home
                return FM, (self._fm_home_offset(frame.remap, index)
                            + paddr % SUBBLOCK_BYTES)
            return NM, paddr
        way = self._frame_of_block.get(paddr >> _BLOCK_SHIFT)
        if way is not None:
            frame = self.frames[way]
            if (frame.bitvec >> index & 1
                    or frame.locked and frame.lock_owner == "fm"):
                return NM, (way << _BLOCK_SHIFT) + paddr % BLOCK_BYTES
        return FM, paddr - self._nm_bytes  # at the block's FM home

    # ------------------------------------------------------------------
    # swap machinery
    # ------------------------------------------------------------------
    def _swap_back(self, way: int, index: int) -> AccessPlan:
        """Row 3: the native subblock returns; the partner's goes home."""
        frame = self.frames[way]
        block = frame.remap
        footprint = frame.bitvec
        frame.clear_bit(index)
        if frame.bitvec == 0:
            # Nothing left interleaved: the frame is clean again.  Save
            # the pre-clear footprint first — a block that drains
            # incrementally must train the history table exactly like
            # one evicted by a restore, or its next install batch-
            # fetches nothing (Section III-A).
            if self._history_on and footprint:
                self.history.save(frame.first_pc, frame.first_addr, footprint)
            self._forget_remap(way)
        self.stats.subblock_swaps += 1
        if self.telemetry is not None:
            self.telemetry.instant("swap-back", cat="swap",
                                   way=way, block=block, index=index)
        return AccessPlan(FM, [[self._fm_sub_op(block, index)]], [
            self._nm_sub_op(way, index),                      # partner out
            self._nm_sub_op(way, index, is_write=True),       # native back in
            self._fm_sub_op(block, index, is_write=True),     # partner to home
        ], False, "row3")

    def _interleave(self, way: int, block: int, index: int,
                    paddr: int, pc: int) -> AccessPlan:
        """Rows 5/6: restore whatever ``way`` holds, then install
        ``block`` into it."""
        frame = self.frames[way]
        background = self._restore(way) if frame.remap is not None else []
        background += self._install(way, block, index, paddr, pc)
        self._lru_clock += 1
        frame.lru = self._lru_clock
        if (self._lock_on and frame.fm_count >= self.monitor.hot_threshold
                > frame.nm_count):
            self._lock_fm(way, background)
        return AccessPlan(FM, [[self._fm_sub_op(block, index)]], background,
                          False, "row5")

    def _restore(self, way: int) -> List[Op]:
        """Rows 5/6 prologue: undo all interleaving in ``way`` and save
        the usage bit vector in the history table (Section III-A)."""
        frame = self.frames[way]
        block = frame.remap
        bitvec = FULL_BITVEC if frame.locked and frame.lock_owner == "fm" else frame.bitvec
        ops: List[Op] = []
        for j in range(SUBBLOCKS_PER_BLOCK):
            if bitvec >> j & 1:
                ops.append(self._nm_sub_op(way, j))                  # partner out
                ops.append(self._fm_sub_op(block, j, is_write=True))  # partner home
                ops.append(self._fm_sub_op(block, j))                 # native fetch
                ops.append(self._nm_sub_op(way, j, is_write=True))    # native back
        if self._history_on and bitvec:
            self.history.save(frame.first_pc, frame.first_addr, bitvec)
        self._forget_remap(way)
        self.restores += 1
        return ops

    def _install(self, way: int, block: int, index: int,
                 paddr: int, pc: int) -> List[Op]:
        """Rows 5/6 epilogue: interleave ``block`` into ``way``, batch-
        fetching the history-predicted footprint."""
        frame = self.frames[way]
        fetch_vec = 1 << index
        if self._history_on:
            fetch_vec |= self.history.lookup(pc, paddr)
        frame.remap = block
        frame.bitvec = fetch_vec
        frame.first_pc = pc
        frame.first_addr = paddr
        frame.fm_count = 1
        self._frame_of_block[block] = way
        self.installs += 1
        if self.telemetry is not None:
            self.telemetry.instant("install", cat="swap", way=way,
                                   block=block, fetch_vec=fetch_vec)
        ops: List[Op] = []
        for j in range(SUBBLOCKS_PER_BLOCK):
            if not fetch_vec >> j & 1:
                continue
            self.stats.subblock_swaps += 1
            if j != index:
                ops.append(self._fm_sub_op(block, j))          # batch fetch
                self.batch_fetched_subblocks += 1
            ops.append(self._nm_sub_op(way, j))                # native out
            ops.append(self._nm_sub_op(way, j, is_write=True))  # partner in
            ops.append(self._fm_sub_op(block, j, is_write=True))  # native home
        return ops

    def _forget_remap(self, way: int) -> None:
        frame = self.frames[way]
        if frame.remap is not None:
            self._frame_of_block.pop(frame.remap, None)
        frame.remap = None
        frame.bitvec = 0
        frame.fm_count = 0
        frame.unlock()

    # ------------------------------------------------------------------
    # locking (Section III-C)
    # ------------------------------------------------------------------
    # ``access`` locks a frame when the block crosses the hot threshold,
    # balancing is off and the frame is unlocked.  An FM block must also
    # be hotter than the threshold while the frame's native page is not
    # hot itself: fully displacing a hot native page to FM would hurt
    # more than the lock helps (the counters exist precisely to classify
    # the two coexisting blocks).
    def _lock_fm(self, way: int, ops: List[Op]) -> None:
        """Lock the frame's remapped FM block: complete the remap by
        fetching all missing subblocks (appended to ``ops``)."""
        frame = self.frames[way]
        block = frame.remap
        pending = frame.missing_indices()
        for j in pending:
            frame.set_bit(j)
            self.stats.subblock_swaps += 1
        ops.extend(
            op
            for j in pending
            for op in (
                self._fm_sub_op(block, j),
                self._nm_sub_op(way, j),
                self._nm_sub_op(way, j, is_write=True),
                self._fm_sub_op(block, j, is_write=True),
            )
        )
        frame.lock("fm")
        self.locks_acquired += 1
        if self.telemetry is not None:
            self.telemetry.instant("lock", cat="lock", way=way,
                                   owner="fm", block=block,
                                   fetched=len(pending))

    def _lock_nm(self, frame_idx: int, ops: List[Op]) -> None:
        """Pin a hot native page: restore any interleaving (appended to
        ``ops``), then lock so no FM block can displace its subblocks."""
        frame = self.frames[frame_idx]
        if frame.remap is not None:
            ops.extend(self._restore(frame_idx))
        frame.lock("nm")
        self.locks_acquired += 1
        if self.telemetry is not None:
            self.telemetry.instant("lock", cat="lock", way=frame_idx,
                                   owner="nm")

    def _release_stale_locks(self) -> None:
        """After aging, unlock frames whose owner cooled off.  An
        unlocked fm-owner behaves as a normal interleaved block with all
        bits set (Section III-C), so hotter data can displace it
        incrementally."""
        for way in self.monitor.stale_locks():
            frame = self.frames[way]
            owner = frame.lock_owner
            if owner == "fm":
                frame.bitvec = FULL_BITVEC
            frame.unlock()
            self.locks_released += 1
            if self.telemetry is not None:
                self.telemetry.instant("unlock", cat="lock", way=way,
                                       owner=owner)

    # ------------------------------------------------------------------
    # victim choice (associativity, Section III-C)
    # ------------------------------------------------------------------
    def _choose_victim(self, set_index: int, block: int) -> Optional[int]:
        """Pick the way ``block`` interleaves into.

        Placement is row-locality aware: a 2 KB frame's slices share a
        DRAM row with its 31 neighbouring frames, so blocks of the same
        32-block spatial group prefer the same way — that keeps
        neighbouring hot blocks in neighbouring frames (as a direct map
        would) and their accesses row-buffer friendly.  The preferred
        way is used when it is clean; otherwise fall back to LRU among
        clean, then LRU among unlocked frames.
        """
        ways = self._ways[set_index]
        frames = self.frames
        unlocked = [w for w in ways if not frames[w].locked]
        if not unlocked:
            return None
        preferred = ways[(block // SUBBLOCKS_PER_BLOCK) % self.assoc]
        clean = [w for w in unlocked if frames[w].remap is None]
        if preferred in clean:
            return preferred
        pool = clean or unlocked
        return min(pool, key=lambda w: frames[w].lru)

    # ------------------------------------------------------------------
    # bypass (Section III-E)
    # ------------------------------------------------------------------
    def _bypass_plan(self, block: int, index: int, note: str) -> AccessPlan:
        self.balancer.note_bypassed()
        return AccessPlan.single(
            FM, self._fm_sub_op(block, index), note, bypassed=True)

    # ------------------------------------------------------------------
    # metadata scan (Section III-F)
    # ------------------------------------------------------------------
    def _meta_scan(self, way: int, matched: bool,
                   predicted: Optional[int]) -> List[Op]:
        """Remap-entry reads, one serial stage each: the (wrong)
        predicted way first, then the set's ways — up to the hit, or all
        of them when nothing matches (rows 5/6: a miss needs every entry
        checked) — filtered through the SRAM metadata cache (cached
        entries cost nothing)."""
        ways = self._ways[way % self.num_sets]
        order: List[int] = []
        if predicted is not None and predicted in ways and predicted != way:
            order.append(predicted)
        for w in ways:
            if w not in order:
                order.append(w)
            if matched and w == way:
                break
        meta_cache = self._meta_cache
        ops: List[Op] = []
        for w in order:
            if w in meta_cache:
                del meta_cache[w]
                meta_cache[w] = None
                self.meta_cache_hits += 1
                continue
            self.meta_cache_misses += 1
            meta_cache[w] = None
            if len(meta_cache) > self._meta_cache_entries:
                del meta_cache[next(iter(meta_cache))]
            ops.append(self._meta_ops[w])
        return ops

    # ------------------------------------------------------------------
    # op constructors
    # ------------------------------------------------------------------
    def _nm_sub_op(self, way: int, index: int, is_write: bool = False) -> Op:
        return Op(NM, way * BLOCK_BYTES + index * SUBBLOCK_BYTES,
                  SUBBLOCK_BYTES, is_write)

    def _fm_sub_op(self, block: int, index: int, is_write: bool = False) -> Op:
        return Op(FM, self._fm_home_offset(block, index),
                  SUBBLOCK_BYTES, is_write)

    def _fm_home_offset(self, block: int, index: int) -> int:
        offset = block * BLOCK_BYTES - self._nm_bytes + index * SUBBLOCK_BYTES
        if offset < 0:
            raise ValueError(f"block {block} is not an FM block")
        return offset

    # ------------------------------------------------------------------
    # invariants (differential oracle hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Metadata agreement: residency bit vectors, the
        ``_frame_of_block`` reverse map and the lock owners must tell
        one consistent story (the flat-space bijection depends on it)."""
        remap_seen: Dict[int, int] = {}
        sets = self.num_sets
        nm_blocks = self.space.nm_blocks
        total_blocks = self.space.total_blocks
        frame_of_block = self._frame_of_block
        for way, frame in enumerate(self.frames):
            if not 0 <= frame.bitvec <= FULL_BITVEC:
                self._fail(f"way {way} bit vector {frame.bitvec:#x} "
                           "out of range")
            if not (0 <= frame.nm_count <= COUNTER_MAX
                    and 0 <= frame.fm_count <= COUNTER_MAX):
                self._fail(f"way {way} activity counter out of 6-bit range")
            if frame.locked:
                if frame.lock_owner not in ("nm", "fm"):
                    self._fail(f"way {way} locked with owner "
                               f"{frame.lock_owner!r}")
            elif frame.lock_owner is not None:
                self._fail(f"way {way} unlocked but owner "
                           f"{frame.lock_owner!r} lingers")
            if frame.remap is None:
                if frame.bitvec != 0:
                    self._fail(f"way {way} has residency bits "
                               f"{frame.bitvec:#x} but no remapped block")
                if frame.fm_count != 0:
                    self._fail(f"way {way} counts FM activity with no "
                               "remapped block")
                if frame.lock_owner == "fm":
                    self._fail(f"way {way} fm-locked with no remapped block")
                continue
            block = frame.remap
            if block < nm_blocks:
                self._fail(f"way {way} remaps NM-native block {block}")
            if block >= total_blocks:
                self._fail(f"way {way} remaps out-of-space block {block}")
            if block % sets != way % sets:
                self._fail(f"way {way} (set {way % sets}) remaps "
                           f"block {block} of set {block % sets}")
            if block in remap_seen:
                self._fail(f"block {block} interleaved into both way "
                           f"{remap_seen[block]} and way {way}")
            remap_seen[block] = way
            if frame_of_block.get(block) != way:
                self._fail(f"way {way} remaps block {block} but the "
                           "reverse map says "
                           f"{frame_of_block.get(block)}")
            if frame.locked and frame.lock_owner == "fm":
                if frame.bitvec != FULL_BITVEC:
                    self._fail(f"way {way} fm-locked with partial bit "
                               f"vector {frame.bitvec:#x}")
            elif frame.locked:
                self._fail(f"way {way} nm-locked while block {block} is "
                           "remapped into it (restore must precede the "
                           "lock)")
            elif frame.bitvec == 0:
                self._fail(f"way {way} remaps block {block} with an "
                           "empty bit vector (drain should have "
                           "forgotten it)")
        frames = self.frames
        for block, way in frame_of_block.items():
            if not 0 <= way < len(frames):
                self._fail(f"block {block} mapped to bad way {way}")
            if frames[way].remap != block:
                self._fail(f"reverse map says way {way} holds block "
                           f"{block} but the frame metadata disagrees")

    # ------------------------------------------------------------------
    # introspection for tests / reports
    # ------------------------------------------------------------------
    def frame(self, way: int) -> FrameMetadata:
        """The metadata of NM frame ``way`` (read-only introspection)."""
        return self.frames[way]

    def way_of_block(self, block: int) -> Optional[int]:
        """The frame currently interleaving/holding FM ``block``, if any."""
        return self._frame_of_block.get(block)

    @property
    def locked_frames(self) -> int:
        return sum(frame.locked for frame in self.frames)
