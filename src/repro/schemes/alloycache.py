"""Alloy-Cache-style hardware DRAM cache (Qureshi & Loh, MICRO 2012).

The paper's Section II contrasts part-of-memory designs against using
NM as a big hardware *cache*: direct-mapped at 64 B, the tag alloyed
with the data in one extended burst (a TAD unit), FM always holding the
home copy.  A cache gives up NM's capacity (the OS sees only FM) but
never needs swap-restore machinery, and a 100% hit rate is its optimum
(there is no bandwidth-balancing argument — the paper's Section III-E
point only applies to part-of-memory organisations).

Included so downstream users can quantify the capacity-vs-simplicity
trade the paper's introduction motivates.  Distinctives vs CAMEO:

* FM is the home of *all* data; NM holds copies (no bijection over
  NM+FM — the no-capacity-gain drawback);
* clean evictions are free, dirty ones write back 64 B;
* a miss fills the line from FM (no displaced-line swap writes).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.schemes.base import FM, NM, AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import SUBBLOCK_BYTES
from repro.xmem.address import AddressSpace

#: tag-and-data unit: 64 B line + 8 B tag in one burst.
TAD_BYTES = SUBBLOCK_BYTES + 8


class AlloyCacheScheme(MemoryScheme):
    """NM as a direct-mapped, tag-with-data hardware cache over FM.

    Use with the ``fm_only`` allocation policy: the OS only sees FM
    capacity (the scheme asserts this by construction — NM-space
    addresses are rejected).
    """

    name = "alloy"
    SPAN_ROWS = ("hit", "miss")
    #: a cache is deliberately not a bijection: FM is always the home,
    #: NM holds copies (the oracle validates it in copy-tracking mode).
    bijective = False

    def __init__(self, space: AddressSpace) -> None:
        super().__init__(space)
        self.num_slots = space.nm_bytes // SUBBLOCK_BYTES
        #: slot -> (cached FM line number, dirty)
        self._slot: Dict[int, Tuple[int, bool]] = {}
        self.hits = 0
        self.misses = 0
        self.dirty_writebacks = 0

    # ------------------------------------------------------------------
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        if self.space.is_nm(paddr):
            raise ValueError(
                "Alloy cache exposes only FM capacity; allocate pages with "
                "the fm_only policy")
        line = self.space.fm_offset(paddr) // SUBBLOCK_BYTES
        slot = line % self.num_slots
        tad_read = Op(NM, slot * SUBBLOCK_BYTES, TAD_BYTES, False)

        cached = self._slot.get(slot)
        if cached is not None and cached[0] == line:
            self.hits += 1
            if is_write:
                self._slot[slot] = (line, True)
            plan = AccessPlan.single(NM, tad_read, "hit")
            self.record_plan(plan)
            return plan

        self.misses += 1
        background = []
        if cached is not None and cached[1]:
            # dirty victim: write the line back to its FM home
            self.dirty_writebacks += 1
            background.append(
                Op(FM, cached[0] * SUBBLOCK_BYTES, SUBBLOCK_BYTES, True))
        # fill: install line + tag into the slot
        background.append(Op(NM, slot * SUBBLOCK_BYTES, TAD_BYTES, True))
        self._slot[slot] = (line, is_write)
        plan = AccessPlan(
            FM,
            [[tad_read],
             [Op(FM, line * SUBBLOCK_BYTES, SUBBLOCK_BYTES, False)]],
            background, False, "miss")
        self.record_plan(plan)
        return plan

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def locate(self, paddr: int) -> Tuple[Level, int]:
        """Where the *current* copy of the data is serviced from.

        Note: a cache is deliberately NOT a bijection over NM+FM — FM is
        always the home; NM holds copies.  ``locate`` points at the NM
        copy while it is cached (it may be the only up-to-date copy when
        dirty) and the FM home otherwise.
        """
        if not 0 <= paddr < self._total_bytes:
            raise ValueError(f"address {paddr:#x} outside flat space")
        offset = paddr - self._nm_bytes
        if offset < 0:
            raise ValueError("NM is not part of the address space here")
        line = offset // SUBBLOCK_BYTES
        slot = line % self.num_slots
        cached = self._slot.get(slot)
        if cached is not None and cached[0] == line:
            return NM, slot * SUBBLOCK_BYTES + offset % SUBBLOCK_BYTES
        return FM, offset

    def attach_telemetry(self, hub) -> None:
        """A cache's story is its hit rate and writeback pressure; the
        part-of-memory swap/migration meters from the base stay at zero
        by construction."""
        super().attach_telemetry(hub)
        hub.gauge("alloy.hit_rate", lambda: self.hit_rate, trace=True)
        hub.meter("alloy.dirty_writebacks", lambda: self.dirty_writebacks)
        hub.gauge("alloy.occupied_slots", lambda: float(len(self._slot)))

    def check_invariants(self) -> None:
        """Tag-array consistency: every cached line maps to the slot it
        occupies and names a real FM line."""
        fm_lines = self.space.fm_bytes // SUBBLOCK_BYTES
        slots = self.num_slots
        for slot, (line, dirty) in self._slot.items():
            if not 0 <= slot < slots:
                self._fail(f"tag entry for out-of-range slot {slot}")
            if not 0 <= line < fm_lines:
                self._fail(f"slot {slot} caches out-of-space FM line {line}")
            if line % slots != slot:
                self._fail(f"slot {slot} caches line {line} that maps to "
                           f"slot {line % slots}")
            if not isinstance(dirty, bool):
                self._fail(f"slot {slot} dirty bit is not a bool")

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
