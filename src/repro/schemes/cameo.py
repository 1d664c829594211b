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

from typing import Dict, List, Tuple

from repro.schemes.base import FM, NM, AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import SUBBLOCK_BYTES
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
        #: slot g currently holds subblock _present[g] (init: its own).
        self._present: List[int] = list(range(self.num_slots))
        #: displaced member -> FM home (subblock number) storing it now.
        #: Members at their own home are absent.
        self._home_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        plan = self._demand_access(paddr)
        self.record_plan(plan)
        return plan

    def _demand_access(self, paddr: int) -> AccessPlan:
        sb = paddr // SUBBLOCK_BYTES
        group = sb % self.num_slots
        tag_read = Op(NM, group * SUBBLOCK_BYTES, DATA_PLUS_META_BYTES, False)
        if self._present[group] == sb:
            return AccessPlan.single(NM, tag_read, "nm-hit")

        home = self._home_of.get(sb, sb)
        fm_read = Op(FM, self._fm_offset_of_subblock(home), SUBBLOCK_BYTES, False)
        background = self._swap_in(group, sb, home)
        return AccessPlan(
            FM, [[tag_read], [fm_read]], background, False, "fm-swap")

    def _swap_in(self, group: int, sb: int, home: int) -> List[Op]:
        """Install ``sb`` (read from FM ``home``) into NM slot ``group``,
        displacing the current occupant into ``home``."""
        occupant = self._present[group]
        self._present[group] = sb
        self._home_of.pop(sb, None)
        if occupant == home:
            # occupant returns to its own home
            self._home_of.pop(occupant, None)
        else:
            self._home_of[occupant] = home
        self.stats.subblock_swaps += 1
        return [
            # install new line + updated metadata into the NM row
            Op(NM, group * SUBBLOCK_BYTES, DATA_PLUS_META_BYTES, True),
            # displaced occupant written to the vacated FM home
            Op(FM, self._fm_offset_of_subblock(home), SUBBLOCK_BYTES, True),
        ]

    # ------------------------------------------------------------------
    def locate(self, paddr: int) -> Tuple[Level, int]:
        sb = paddr // SUBBLOCK_BYTES
        within = paddr % SUBBLOCK_BYTES
        group = sb % self.num_slots
        if self._present[group] == sb:
            return NM, group * SUBBLOCK_BYTES + within
        home = self._home_of.get(sb, sb)
        offset = home * SUBBLOCK_BYTES - self._nm_bytes
        if offset < 0:
            raise ValueError(f"subblock {home} is an NM home, not FM")
        return FM, offset + within

    def _fm_offset_of_subblock(self, subblock: int) -> int:
        """Device-local FM offset of a global subblock home (must be FM)."""
        offset = subblock * SUBBLOCK_BYTES - self.space.nm_bytes
        if offset < 0:
            raise ValueError(f"subblock {subblock} is an NM home, not FM")
        return offset

    def attach_telemetry(self, hub) -> None:
        """CAMEO's swap traffic is already metered by the base; add the
        displacement pressure (how many lines live away from home) —
        the conflict-miss signal the paper's Section II-B critique of
        direct mapping is about."""
        super().attach_telemetry(hub)
        hub.gauge("cameo.displaced_lines", lambda: float(len(self._home_of)))

    def check_invariants(self) -> None:
        """Congruence-group bookkeeping consistency: every slot holds a
        member of its own group, and the displaced-member map never
        duplicates a home or contradicts slot occupancy."""
        slots = self.num_slots
        total = self._total_subblocks
        present = self._present
        for group, occupant in enumerate(present):
            if not 0 <= occupant < total:
                self._fail(f"slot {group} holds out-of-space line {occupant}")
            if occupant % slots != group:
                self._fail(f"slot {group} holds line {occupant} from a "
                           "different congruence group")
        homes_seen = {}
        for member, home in self._home_of.items():
            if member % slots != home % slots:
                self._fail(f"line {member} stored at home {home} outside "
                           "its congruence group")
            if home < slots:
                self._fail(f"line {member} claims NM-range home {home}")
            if home >= total:
                self._fail(f"line {member} home {home} out of space")
            if present[member % slots] == member:
                self._fail(f"line {member} recorded as displaced while its "
                           "NM slot also holds it (duplication)")
            if home in homes_seen:
                self._fail(f"FM home {home} stores both line "
                           f"{homes_seen[home]} and line {member}")
            homes_seen[home] = member


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
        if self._present[group] == sb:
            return []
        if self._present[group] != group:
            return []  # slot owned by a demand-swapped line: keep it
        home = self._home_of.get(sb, sb)
        self.prefetches_issued += 1
        ops = [
            Op(NM, group * SUBBLOCK_BYTES, DATA_PLUS_META_BYTES, False),
            Op(FM, self._fm_offset_of_subblock(home), SUBBLOCK_BYTES, False),
        ]
        ops.extend(self._swap_in(group, sb, home))
        return ops
