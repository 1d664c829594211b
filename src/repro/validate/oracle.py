"""Differential oracle: the scheme's story vs the shadow's ledger.

For every serviced LLC miss the oracle checks, in order:

1. **Serviced-from** — ``plan.serviced_from`` names the level where the
   shadow says the requested subblock lived *before* the plan's own
   data movement (a swap brings data in for *next* time; this access
   was serviced from the old location).
2. **Critical-path coverage** — some critical-path operation actually
   touches the slot the data was serviced from (a plan that claims NM
   service but only ever read FM is mis-accounting latency).
3. **Table I row tag** (SILC-FM only) — the plan's ``note`` matches the
   row the oracle derives from the *pre-access* metadata snapshot.
4. **Replay + locate round-trip** — after replaying the plan's
   operations into the shadow, ``scheme.locate(paddr)`` must agree with
   the shadow about where the requested subblock now lives.

Every ``check_every`` misses (and once at end of run) a **full check**
additionally runs :meth:`MemoryScheme.check_invariants` and the
shadow's own bijection check, then scans the whole flat space: every
subblock's ``locate`` must round-trip against the shadow — this is the
bijection proof (no subblock duplicated, none lost).  The shadow stores
only displaced subblocks, and the scan shrinks with them too.
``locate`` is :meth:`MemoryScheme.locate` for every scheme (the oracle
refuses one that overrides it): a block ``at_home`` vouches for is
answered at its own addresses.  So the scan asks ``at_home`` once per
2 KB block, and a block that neither the scheme (``at_home`` False)
nor the shadow (:meth:`ShadowMemory.displaced_blocks`) reports moved
agrees on both sides without a ``locate`` call.  Every subblock of
every other block is compared, in address order, one C-level
comparison per block: ``locate_moved`` (what ``locate`` returns there)
or ``locate`` against :meth:`ShadowMemory.placement`.  Only when a
comparison fails does the oracle rescan those blocks one
:meth:`ValidationOracle._check_locate` at a time, so the violation
names the lowest failing address.

The oracle is pure observation: it never mutates scheme state, so a
checked run's figures of merit are identical to an unchecked run's
(only wall-clock time differs).
"""

from __future__ import annotations

from itertools import filterfalse
from operator import eq
from typing import Iterable, List, NoReturn, Optional, Set, Tuple

from repro.core.silcfm import SilcFmScheme
from repro.schemes.base import AccessPlan, InvariantViolation, MemoryScheme, Op
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.validate.shadow import ShadowMemory

#: default full-scan period (in checked misses); the scan costs one
#: ``at_home`` per 2 KB block of the flat space and one ``locate`` per
#: subblock of a moved block, so it is the expensive half of the oracle.
DEFAULT_CHECK_EVERY = 10_000


def _subblock_addresses(block: int) -> range:
    """The flat address of each subblock of 2 KB block ``block``."""
    return range(block * BLOCK_BYTES, (block + 1) * BLOCK_BYTES,
                 SUBBLOCK_BYTES)


class OracleViolation(InvariantViolation):
    """The scheme's metadata/plan disagrees with the shadow memory."""


class ValidationOracle:
    """Differential checker wrapping one scheme instance.

    Hooked into the controller around every ``scheme.access`` /
    ``writeback`` / ``epoch`` call (see
    :class:`repro.cpu.controller.FlatMemoryController`).  Raises
    :class:`OracleViolation` (or lets the scheme's own
    :class:`InvariantViolation` propagate) on the first inconsistency.
    """

    def __init__(self, scheme: MemoryScheme,
                 check_every: int = DEFAULT_CHECK_EVERY) -> None:
        if (type(scheme).locate is not MemoryScheme.locate
                or "locate" in vars(scheme)):
            raise TypeError(
                f"{scheme.name}: overrides locate, but the bijection scan "
                "rests on MemoryScheme.locate; implement at_home and "
                "locate_moved instead")
        self.scheme = scheme
        self.space = scheme.space
        self.check_every = max(0, int(check_every))
        self.shadow = ShadowMemory(self.space)
        self.accesses_checked = 0
        self.full_scans = 0
        self._expected_note: Optional[str] = None
        self._silcfm = isinstance(scheme, SilcFmScheme)
        #: telemetry hub; None in normal runs (see attach_telemetry).
        self.telemetry = None

    def attach_telemetry(self, hub) -> None:
        """Expose checking progress and mark full scans in the trace —
        an oracle scan between two samples explains a throughput dip
        (it is wall-clock work, not simulated time)."""
        self.telemetry = hub
        hub.meter("oracle.accesses_checked", lambda: self.accesses_checked)
        hub.meter("oracle.full_scans", lambda: self.full_scans)

    # ------------------------------------------------------------------
    # controller hooks
    # ------------------------------------------------------------------
    def before_access(self, paddr: int, is_write: bool) -> None:
        """Snapshot-derived expectations, taken before the scheme runs."""
        if self._silcfm:
            self._expected_note = self._predict_note(paddr)

    def after_access(self, paddr: int, is_write: bool,
                     plan: AccessPlan) -> None:
        # per-op sanity check, hoisted out of Op.__post_init__ onto the
        # checked path (unchecked runs construct ops validation-free)
        plan.validate()
        sid = paddr // SUBBLOCK_BYTES
        level, slot = self.shadow.location(sid)
        if plan.serviced_from is not level:
            raise OracleViolation(
                f"{self.scheme.name}: access {paddr:#x} serviced from "
                f"{plan.serviced_from.value} (note={plan.note!r}) but the "
                f"shadow holds its data at {level.value} slot {slot}")
        critical = plan.critical_ops()
        if not any(op.level is level and slot in self.shadow.data_slots(op)
                   for op in critical):
            raise OracleViolation(
                f"{self.scheme.name}: access {paddr:#x} serviced from "
                f"{level.value} slot {slot} but no critical-path operation "
                f"touches that slot (note={plan.note!r})")
        if self._expected_note is not None and plan.note != self._expected_note:
            raise OracleViolation(
                f"{self.scheme.name}: access {paddr:#x} produced Table I "
                f"tag {plan.note!r} but pre-access metadata implies "
                f"{self._expected_note!r}")
        self._expected_note = None
        self.shadow.apply(critical + list(plan.background))
        self._check_locate(paddr)
        self.accesses_checked += 1
        if self.check_every and self.accesses_checked % self.check_every == 0:
            self.full_check()

    def after_writeback(self, paddr: int, plan: AccessPlan) -> None:
        """LLC dirty eviction: the write must land where the data lives,
        and must not move anything."""
        plan.validate()
        level, slot = self.shadow.location(paddr // SUBBLOCK_BYTES)
        if plan.serviced_from is not level:
            raise OracleViolation(
                f"{self.scheme.name}: writeback {paddr:#x} routed to "
                f"{plan.serviced_from.value} but the shadow holds its data "
                f"at {level.value} slot {slot}")
        self.shadow.apply(plan.critical_ops() + list(plan.background))

    def after_epoch(self, ops: Iterable[Op]) -> None:
        """Epoch-based bulk migration (HMA): replay and re-verify the
        scheme's bookkeeping at its most dangerous moment."""
        ops = list(ops)
        for op in ops:
            op.validate()
        self.shadow.apply(ops)
        self.scheme.check_invariants()

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def _check_locate(self, paddr: int) -> None:
        answer = self.scheme.locate(paddr)
        expected = self.shadow.placement(paddr)
        if answer != expected:
            (llevel, loffset), (slevel, soffset) = answer, expected
            raise OracleViolation(
                f"{self.scheme.name}: locate({paddr:#x}) = "
                f"({llevel.value}, {loffset:#x}) but the shadow holds the "
                f"data at {slevel.value} slot {soffset // SUBBLOCK_BYTES}")

    def full_check(self) -> None:
        """Scheme self-consistency plus the whole-space bijection scan."""
        self.scheme.check_invariants()
        self.shadow.check_self_bijection()
        try:
            agreed = self._moved_blocks_agree()
        except Exception:
            # locate itself raised: the rescan raises it again, for the
            # lowest address it fails at
            agreed = False
        if not agreed:
            self._raise_first_disagreement()
        self.full_scans += 1
        if self.telemetry is not None:
            self.telemetry.instant("oracle-full-check", cat="oracle",
                                   scan=self.full_scans,
                                   accesses_checked=self.accesses_checked)

    def _scanned_blocks(self) -> Tuple[List[int], Set[int]]:
        """The blocks either side reports moved, ascending, and the set
        the scheme reports (``at_home`` asked once per block).  Every
        other block is at its own addresses on both sides."""
        moved = set(filterfalse(self.scheme.at_home,
                                range(self.space.total_blocks)))
        return sorted(moved.union(self.shadow.displaced_blocks())), moved

    def _moved_blocks_agree(self) -> bool:
        """Each subblock of each scanned block, in address order: the
        scheme's answer against the shadow's, one C-level comparison per
        block and nothing built per subblock."""
        scheme, placement = self.scheme, self.shadow.placement
        blocks, moved = self._scanned_blocks()
        for block in blocks:
            addresses = _subblock_addresses(block)
            # locate_moved is what locate answers in a block the scheme
            # reports moved; elsewhere locate answers the block's home
            answer = scheme.locate_moved if block in moved else scheme.locate
            if not all(map(eq, map(answer, addresses),
                           map(placement, addresses))):
                return False
        return True

    def _raise_first_disagreement(self) -> NoReturn:
        """The scan saw a disagreement: rescan the same blocks in address
        order so the violation is the one :meth:`_check_locate` raises
        for the lowest failing address.  Only a scheme that answers
        differently the second time gets through the rescan, and that is
        a violation too."""
        for block in self._scanned_blocks()[0]:
            for paddr in _subblock_addresses(block):
                self._check_locate(paddr)
        raise OracleViolation(
            f"{self.scheme.name}: the whole-space scan disagreed with the "
            "shadow but an address-order rescan did not (locate is not "
            "deterministic)")

    # ------------------------------------------------------------------
    # SILC-FM Table I row prediction
    # ------------------------------------------------------------------
    def _predict_note(self, paddr: int) -> Optional[str]:
        """Derive the Table I row this access must take from the current
        (pre-access) metadata.  Returns None — skip the check — on aging
        boundaries, where ``access()`` itself releases stale locks
        *before* building the plan, invalidating any snapshot taken out
        here."""
        scheme = self.scheme
        monitor = scheme.monitor
        if (monitor.accesses + 1) % monitor.aging_period == 0:
            return None
        bypassing = scheme.bypassing
        index = self.space.subblock_index(paddr)
        if self.space.is_fm(paddr):
            block = self.space.block_of(paddr)
            way = scheme.way_of_block(block)
            if way is not None:
                frame = scheme.frame(way)
                if frame.locked or frame.bit(index):
                    return "row1"
                return "row2-bypass" if bypassing else "row2"
            if bypassing:
                return "row5-bypass"
            if scheme._choose_victim(block % scheme.num_sets, block) is None:
                return "all-locked"
            return "row5"
        frame = scheme.frame(self.space.nm_block_of(paddr))
        if frame.locked and frame.lock_owner == "fm":
            return "nm-displaced-by-lock"
        if frame.remap is not None and not frame.locked and frame.bit(index):
            return "row3-bypass" if bypassing else "row3"
        return "row4"
