"""HMA — epoch-based OS-managed page migration (Meswani et al.,
HPCA 2015), as characterised in the SILC-FM paper.

The OS counts page accesses during an epoch; at the epoch boundary it
sweeps the counters, picks the hottest pages (threshold-marked, up to NM
capacity), and bulk-migrates them into NM with **fully associative**
placement — the advantage CAMEO's direct mapping lacks (libquantum), at
the cost of:

* epoch-boundary-only adaptation (short-lived hot pages are missed —
  gemsFDTD's weakness);
* heavy software overhead per migration: PTE updates, TLB shootdowns and
  a counter sweep, modelled as a stall applied to all cores while the
  OS runs, plus the bulk 2 KB-per-page migration traffic.

Between epochs the mapping is frozen: demand accesses go wherever the
page currently resides.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.schemes.base import FM, NM, AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.xmem.address import AddressSpace

#: Epoch length in CPU cycles.  The per-page OS cost (TLB shootdown
#: IPIs to 16 cores, PTE updates) is a hardware constant that does NOT
#: shrink with simulation scale, so the epoch must stay long enough to
#: amortise it — which is exactly why the paper's HMA reacts slowly to
#: hot-working-set changes.
DEFAULT_EPOCH_CYCLES = 200_000.0
#: minimum epoch access count for a page to be migration-eligible.
DEFAULT_HOT_THRESHOLD = 16
#: OS stall per migrated page: PTE update + amortised (batched) TLB
#: shootdown bookkeeping.  The 2 KB copies themselves are modelled
#: explicitly as DRAM traffic (they compete for bandwidth), so the
#: global stall covers only the work that genuinely freezes the cores.
PER_PAGE_OS_CYCLES = 50.0
#: fixed epoch cost: counter sweep + context switching.
EPOCH_BASE_OS_CYCLES = 10_000.0
#: hysteresis: an FM page must be this much hotter than the coldest NM
#: resident it would displace before the OS migrates it.  Without this
#: the epoch ranking churns on statistical noise among equally-warm
#: pages, bulk-swapping 2 KB pages for no benefit.
MIGRATION_HYSTERESIS = 2.0


class HmaScheme(MemoryScheme):
    """Epoch-based hot-page migration with fully associative NM."""

    name = "hma"
    SPAN_ROWS = ("nm-resident", "fm-resident")

    def __init__(self, space: AddressSpace,
                 epoch_cycles: float = DEFAULT_EPOCH_CYCLES,
                 hot_threshold: int = DEFAULT_HOT_THRESHOLD) -> None:
        super().__init__(space)
        if epoch_cycles <= 0 or hot_threshold < 1:
            raise ValueError("epoch_cycles and hot_threshold must be positive")
        self.epoch_cycles = epoch_cycles
        self.hot_threshold = hot_threshold
        self.num_frames = space.nm_blocks
        #: NM frame -> global block it currently holds (fully associative).
        self._present: List[int] = list(range(self.num_frames))
        #: block -> NM frame, for blocks currently in NM.
        self._frame_of: Dict[int, int] = {i: i for i in range(self.num_frames)}
        #: displaced block -> FM home block storing it.
        self._home_of: Dict[int, int] = {}
        #: per-block access counts within the current epoch.
        self._counts: Dict[int, int] = {}
        self.epochs_run = 0
        self.pages_migrated = 0

    # ------------------------------------------------------------------
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        block = paddr // BLOCK_BYTES
        within = paddr % BLOCK_BYTES
        aligned = within - within % SUBBLOCK_BYTES
        self._counts[block] = self._counts.get(block, 0) + 1

        frame = self._frame_of.get(block)
        if frame is not None:
            plan = AccessPlan.single(
                NM, Op(NM, frame * BLOCK_BYTES + aligned,
                       SUBBLOCK_BYTES, False), "nm-resident")
        else:
            home = self._home_of.get(block, block)
            plan = AccessPlan.single(
                FM, Op(FM, self._fm_offset_of_block(home) + aligned,
                       SUBBLOCK_BYTES, False), "fm-resident")
        self.record_plan(plan)
        return plan

    def attach_telemetry(self, hub) -> None:
        """Epoch-level probes: migration burstiness is HMA's defining
        time-domain behaviour (all movement clusters at epoch
        boundaries), so the per-window migration meter plus the epoch
        instant events make Fig.-8-style phase plots possible."""
        super().attach_telemetry(hub)
        hub.meter("hma.epochs", lambda: self.epochs_run)
        hub.meter("hma.pages_migrated", lambda: self.pages_migrated)
        hub.gauge("hma.tracked_pages", lambda: float(len(self._counts)))

    # ------------------------------------------------------------------
    # epoch machinery
    # ------------------------------------------------------------------
    def epoch_period_cycles(self) -> float:
        return self.epoch_cycles

    def epoch(self) -> Tuple[List[Op], float]:
        """OS epoch: select hot pages, bulk-migrate, reset counters.

        Returns the migration traffic and the OS stall in cycles.
        """
        self.epochs_run += 1
        hot = sorted(
            (b for b, c in self._counts.items() if c >= self.hot_threshold),
            key=lambda b: -self._counts[b],
        )[: self.num_frames]
        desired = set(hot)

        # victims: NM frames holding pages outside the desired set,
        # coldest first.
        victims = sorted(
            (f for f in range(self.num_frames)
             if self._present[f] not in desired),
            key=lambda f: self._counts.get(self._present[f], 0),
        )
        incoming = [b for b in hot if b not in self._frame_of]

        ops: List[Op] = []
        migrated = 0
        for block, frame in zip(incoming, victims):
            occupant_count = self._counts.get(self._present[frame], 0)
            if self._counts[block] < MIGRATION_HYSTERESIS * max(1, occupant_count):
                continue
            ops.extend(self._swap_into_frame(frame, block))
            migrated += 1
        self.pages_migrated += migrated
        # exponential decay instead of a hard reset: hotness accumulates
        # across epochs, so the ranking separates persistently-hot pages
        # from per-epoch sampling noise and the migration set stabilises
        # (per-epoch resets ping-pong equally-warm pages every epoch).
        self._counts = {
            block: count >> 1
            for block, count in self._counts.items()
            if count >> 1 > 0
        }
        stall = EPOCH_BASE_OS_CYCLES + PER_PAGE_OS_CYCLES * migrated
        if self.telemetry is not None:
            self.telemetry.instant("hma-epoch", cat="epoch",
                                   migrated=migrated, stall_cycles=stall)
        return ops, stall

    def _swap_into_frame(self, frame: int, block: int) -> List[Op]:
        """Bulk-swap ``block`` (in FM) with the occupant of ``frame``."""
        occupant = self._present[frame]
        home = self._home_of.get(block, block)
        self._present[frame] = block
        del self._frame_of[occupant]
        self._frame_of[block] = frame
        self._home_of.pop(block, None)
        if occupant == home:
            self._home_of.pop(occupant, None)
        else:
            self._home_of[occupant] = home
        self.stats.block_migrations += 1
        fm_base = self._fm_offset_of_block(home)
        nm_base = frame * BLOCK_BYTES
        return [
            Op(FM, fm_base, BLOCK_BYTES, False),
            Op(NM, nm_base, BLOCK_BYTES, False),
            Op(NM, nm_base, BLOCK_BYTES, True),
            Op(FM, fm_base, BLOCK_BYTES, True),
        ]

    # ------------------------------------------------------------------
    def locate(self, paddr: int) -> Tuple[Level, int]:
        block = paddr // BLOCK_BYTES
        within = paddr % BLOCK_BYTES
        frame = self._frame_of.get(block)
        if frame is not None:
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

    def check_invariants(self) -> None:
        """Fully-associative bookkeeping: ``_present`` and ``_frame_of``
        are mutual inverses, and a displaced block is never also
        NM-resident."""
        total_blocks = self.space.total_blocks
        if len(self._present) != self.num_frames:
            self._fail("frame table size drifted")
        present = self._present
        frame_of = self._frame_of
        for frame, block in enumerate(present):
            if not 0 <= block < total_blocks:
                self._fail(f"frame {frame} holds out-of-space block {block}")
            if frame_of.get(block) != frame:
                self._fail(f"frame {frame} holds block {block} but the "
                           "reverse map disagrees")
        for block, frame in frame_of.items():
            if not 0 <= frame < self.num_frames:
                self._fail(f"block {block} mapped to bad frame {frame}")
            if present[frame] != block:
                self._fail(f"reverse map says frame {frame} holds block "
                           f"{block} but the frame table disagrees")
        homes_seen = {}
        nm_blocks = self.space.nm_blocks
        for block, home in self._home_of.items():
            if block in frame_of:
                self._fail(f"block {block} is both NM-resident and "
                           "recorded as displaced (duplication)")
            if not nm_blocks <= home < total_blocks:
                self._fail(f"block {block} claims non-FM home {home}")
            if home in homes_seen:
                self._fail(f"FM home {home} stores both block "
                           f"{homes_seen[home]} and block {block}")
            homes_seen[home] = block
