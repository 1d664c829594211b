"""CAMEO (Chou et al., MICRO 2014) and CAMEO+prefetch.

CAMEO manages the flat space at 64 B granularity.  NM provides one slot
per *congruence group*; group ``g`` contains subblocks
``{g, g+S, g+2S, ...}`` (``S`` = NM slots), exactly one of which is in NM
at any time, the rest permuted over the group's FM homes.  The remap
entry (line-location metadata) is stored **next to the data** in the NM
row, fetched in the same burst (a 72 B access instead of 64 B), so the
tag check costs no extra request — but an FM access is always serialised
behind that NM tag read.

CAMEOP is the paper's strengthened variant: on a miss it additionally
prefetch-swaps the next three subblocks (the paper found 3 lines best),
buying spatial locality at the cost of extra swap bandwidth.

The scheme is direct-mapped by construction, so conflict misses in
low-associativity-tolerant workloads are its weakness (Section II-B).
"""

from __future__ import annotations

from operator import eq
from typing import List, Tuple

from repro.schemes.base import (
    FM, NM, AccessPlan, ExchangeLedger, Level, MemoryScheme, Op)
from repro.sim.config import SUBBLOCK_BYTES, SUBBLOCKS_PER_BLOCK
from repro.xmem.address import AddressSpace

#: 64 B data + 8 B line-location metadata fetched in one extended burst.
DATA_PLUS_META_BYTES = SUBBLOCK_BYTES + 8


class CameoScheme(MemoryScheme):
    """CAMEO: congruence-group swapping at 64 B granularity."""

    name = "cameo"
    SPAN_ROWS = ("nm-hit", "fm-swap")

    def __init__(self, space: AddressSpace) -> None:
        super().__init__(space)
        #: NM subblock slots == subblocks in the NM region.
        self.num_slots = space.nm_bytes // SUBBLOCK_BYTES
        self._total_subblocks = space.total_bytes // SUBBLOCK_BYTES
        #: which line each slot holds and where displaced lines live
        self.ledger = ExchangeLedger(space, SUBBLOCK_BYTES)

    # ------------------------------------------------------------------
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        plan = self._demand_access(paddr)
        self.record_plan(plan)
        return plan

    def _demand_access(self, paddr: int) -> AccessPlan:
        sb = paddr // SUBBLOCK_BYTES
        group = sb % self.num_slots
        tag_read = Op(NM, group * SUBBLOCK_BYTES, DATA_PLUS_META_BYTES, False)
        if self.ledger.present[group] == sb:
            return AccessPlan.single(NM, tag_read, "nm-hit")

        fm_read, *background = self._swap_in(group, sb)
        return AccessPlan(
            FM, [[tag_read], [fm_read]], background, False, "fm-swap")

    def _swap_in(self, group: int, sb: int) -> List[Op]:
        """Exchange ``sb`` into NM slot ``group``: the read of ``sb``
        from the FM home it leaves, then the install and the displaced
        occupant's write-back to that home."""
        home = self.ledger.exchange(group, sb)
        self.stats.subblock_swaps += 1
        return [
            Op(FM, home, SUBBLOCK_BYTES, False),
            # install new line + updated metadata into the NM row
            Op(NM, group * SUBBLOCK_BYTES, DATA_PLUS_META_BYTES, True),
            # displaced occupant written to the vacated FM home
            Op(FM, home, SUBBLOCK_BYTES, True),
        ]

    # ------------------------------------------------------------------
    def at_home(self, block: int) -> bool:
        """Every line of an NM block in its own slot; no line of an FM
        block in NM or stored at another line's home.  A block's lines
        fall in consecutive groups, so one slice of the slot table
        covers them."""
        first = block * SUBBLOCKS_PER_BLOCK
        lines = range(first, first + SUBBLOCKS_PER_BLOCK)
        group = first % self.num_slots
        held = self.ledger.present[group:group + SUBBLOCKS_PER_BLOCK]
        if first < self.num_slots:
            return held == list(lines)
        return (not any(map(eq, held, lines))
                and self.ledger.home_of.keys().isdisjoint(lines))

    def locate_moved(self, paddr: int) -> Tuple[Level, int]:
        sb = paddr // SUBBLOCK_BYTES
        within = paddr % SUBBLOCK_BYTES
        group = sb % self.num_slots
        if self.ledger.present[group] == sb:
            return NM, group * SUBBLOCK_BYTES + within
        return FM, self.ledger.fm_offset(sb) + within

    def attach_telemetry(self, hub) -> None:
        """CAMEO's swap traffic is already metered by the base; add the
        displacement pressure (how many lines live away from home) —
        the conflict-miss signal the paper's Section II-B critique of
        direct mapping is about."""
        super().attach_telemetry(hub)
        hub.gauge("cameo.displaced_lines",
                  lambda: float(len(self.ledger.home_of)))

    def check_invariants(self) -> None:
        """Congruence-group bookkeeping: every slot holds a member of
        its own group, and displaced members sit at distinct FM homes
        of their group (the ledger's check)."""
        self.ledger.check(self._fail, self.num_slots)


class CameoPrefetchScheme(CameoScheme):
    """CAMEO with next-N-line prefetching (the paper's CAMEOP, N=3)."""

    name = "cameop"

    def __init__(self, space: AddressSpace, prefetch_lines: int = 3) -> None:
        super().__init__(space)
        if prefetch_lines < 1:
            raise ValueError("prefetch_lines must be >= 1")
        self.prefetch_lines = prefetch_lines
        self.prefetches_issued = 0

    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        plan = self._demand_access(paddr)
        if plan.serviced_from is FM:
            sb = paddr // SUBBLOCK_BYTES
            for offset in range(1, self.prefetch_lines + 1):
                nxt = sb + offset
                if nxt >= self._total_subblocks:
                    break
                plan.background.extend(self._prefetch(nxt))
        self.record_plan(plan)
        return plan

    def _prefetch(self, sb: int) -> List[Op]:
        """Swap ``sb`` into its NM slot in the background (tag read, FM
        fetch, install, displaced writeback).

        Prefetches are speculative, so they are not allowed to displace
        a line that earned its slot through a demand swap — only slots
        still holding their NM-native line accept prefetched data.
        Unfiltered prefetching evicts demand-hot lines and loses to
        plain CAMEO (the paper notes naive prefetching "wastes
        bandwidth as those prefetched subblocks are not always useful").
        """
        group = sb % self.num_slots
        present = self.ledger.present
        if present[group] == sb:
            return []
        if present[group] != group:
            return []  # slot owned by a demand-swapped line: keep it
        self.prefetches_issued += 1
        tag_read = Op(NM, group * SUBBLOCK_BYTES, DATA_PLUS_META_BYTES, False)
        return [tag_read, *self._swap_in(group, sb)]
