"""Scheme protocol: how a flat-memory organisation talks to the system.

A scheme is the hardware remapping logic between the LLC miss stream and
the two memory devices.  For each miss it returns an :class:`AccessPlan`:

* ``stages`` — the *critical path*: a list of stages, each a list of
  device operations issued in parallel; stage *i+1* starts when stage
  *i* completes; the miss returns to the core when the last stage
  completes.  (E.g. CAMEO's "NM tag+data read, then FM read on
  mismatch" is two stages.)
* ``background`` — traffic that does not block the core (swap installs,
  displaced-data writebacks, migrations, prefetches) but competes for
  device bandwidth.
* ``serviced_from`` — which level supplied the demand data; the access
  rate (Eq. 1 of the paper) is the fraction of misses serviced from NM.

Metadata state changes are applied *synchronously* inside
:meth:`MemoryScheme.access` (standard trace-driven practice); only the
timing is deferred to the plan.  :meth:`MemoryScheme.locate` exposes the
current storage location of any flat address so the test-suite can check
the fundamental part-of-memory invariant: **the mapping from flat
addresses to storage slots is a bijection** (no duplication, no loss —
unlike a cache, NM data is the only copy).  ``locate`` is one method for
every scheme: a scheme says which 2 KB blocks are wholly at home
(:meth:`MemoryScheme.at_home`) and where the data of the others lives
(:meth:`MemoryScheme.locate_moved`), so the oracle's bijection scan can
settle an unmoved block with one call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

from repro.sim.config import BLOCK_BYTES
from repro.xmem.address import AddressSpace


class InvariantViolation(AssertionError):
    """A scheme's remapping metadata is internally inconsistent.

    Raised by :meth:`MemoryScheme.check_invariants` and by the
    differential oracle (:mod:`repro.validate`); subclasses
    ``AssertionError`` so plain ``pytest.raises(AssertionError)`` also
    catches it."""


class Level(Enum):
    """One of the two memory levels."""

    NM = "nm"
    FM = "fm"


#: the levels as module globals, for per-op and per-subblock code: on
#: CPython 3.11 reading ``Level.NM`` costs ~160 ns (the enum metaclass
#: defines ``__getattr__``, which slows every class attribute read), a
#: global ~20 ns.
NM = Level.NM
FM = Level.FM


class Op:
    """One device operation: ``size`` bytes at device-local ``addr``.

    Allocation-lean: a hand-rolled slotted class rather than a frozen
    dataclass — a simulation constructs millions of these and the
    frozen-dataclass ``__init__`` (one ``object.__setattr__`` per
    field) was a measurable slice of both engines' plan machinery.
    Nothing compares or hashes ops, so the generated ``__eq__``/
    ``__hash__`` are not missed.  Nothing mutates one either, so a
    scheme may build an op once and hand it out on many plans (SILC-FM
    does with its metadata reads).  The per-op sanity check is hoisted
    into :meth:`validate`, which the differential oracle (and any test
    that wants it) calls explicitly.  The devices still bounds-check
    every access against their capacity, so a malformed op cannot
    silently corrupt a run even without the oracle."""

    __slots__ = ("level", "addr", "size", "is_write")

    def __init__(self, level: Level, addr: int, size: int,
                 is_write: bool) -> None:
        self.level = level
        self.addr = addr
        self.size = size
        self.is_write = is_write

    def __repr__(self) -> str:
        return (f"Op(level={self.level}, addr={self.addr}, "
                f"size={self.size}, is_write={self.is_write})")

    def validate(self) -> "Op":
        """Debug-only sanity check (raises ``ValueError``); returns the
        op so call sites can chain it."""
        if self.addr < 0 or self.size <= 0:
            raise ValueError("op must have non-negative addr, positive size")
        return self


@dataclass(slots=True)
class AccessPlan:
    """What one LLC miss costs and where it was serviced from."""

    serviced_from: Level
    stages: List[List[Op]] = field(default_factory=list)
    background: List[Op] = field(default_factory=list)
    #: True when bandwidth balancing deliberately routed this to FM.
    bypassed: bool = False
    #: free-form tag used by tests ("row" of Table I, etc.)
    note: str = ""
    #: True when a hot-block lock determined the service location
    #: (Table I lock rows); span tracing tags such rows distinctly.
    locked: bool = False

    # cheap constructors for the hot common shapes -----------------------
    @classmethod
    def single(cls, serviced_from: Level, op: Op, note: str = "",
               bypassed: bool = False, locked: bool = False) -> "AccessPlan":
        """One critical-path op, no background — the hot-hit shape."""
        return cls(serviced_from, [[op]], [], bypassed, note, locked)

    def critical_ops(self) -> List[Op]:
        """All critical-path operations, flattened across stages."""
        return [op for stage in self.stages for op in stage]

    def total_bytes(self) -> int:
        """Total bytes this plan moves (critical + background)."""
        return sum(op.size for op in self.critical_ops()) + sum(
            op.size for op in self.background
        )

    def validate(self) -> "AccessPlan":
        """Debug-only: validate every op (see :meth:`Op.validate`)."""
        for stage in self.stages:
            for op in stage:
                op.validate()
        for op in self.background:
            op.validate()
        return self


@dataclass
class SchemeStats:
    """Counters every scheme maintains, via ``record_plan`` or inline."""

    misses: int = 0
    nm_serviced: int = 0
    fm_serviced: int = 0
    bypassed: int = 0
    subblock_swaps: int = 0
    block_migrations: int = 0

    @property
    def access_rate(self) -> float:
        """Fraction of LLC misses serviced from NM (paper Eq. 1)."""
        return self.nm_serviced / self.misses if self.misses else 0.0

    def reset(self) -> None:
        """Zero every counter in place (warmup discarding: telemetry
        probes hold this object across the reset)."""
        self.__init__()


class ExchangeLedger:
    """Where moved data lives, for schemes that move it by exchange.

    CAMEO (64 B lines), PoM and HMA (2 KB blocks) keep NM+FM a bijection
    the same way: an incoming FM unit takes an NM slot and the slot's
    occupant takes the incoming unit's FM home.  Units are numbered over
    the flat space (NM units first), so NM slot ``s`` natively holds
    unit ``s``.  Each scheme keeps only its policy (when to exchange,
    and which slot); this is the one copy of the bookkeeping.

    * ``present[slot]`` — the unit NM slot ``slot`` holds now.
    * ``home_of[unit]`` — the FM home (a unit number) that stores a
      displaced unit; a unit at its own home has no entry.
    """

    __slots__ = ("present", "home_of", "_unit_bytes", "_nm_bytes",
                 "_nm_units", "_total_units")

    def __init__(self, space: AddressSpace, unit_bytes: int) -> None:
        self._unit_bytes = unit_bytes
        self._nm_bytes = space.nm_bytes
        self._nm_units = space.nm_bytes // unit_bytes
        self._total_units = space.total_bytes // unit_bytes
        self.present: List[int] = list(range(self._nm_units))
        self.home_of: Dict[int, int] = {}

    def fm_offset(self, unit: int) -> int:
        """Device-local FM offset of a unit that is not in NM: its home's
        offset if displaced, else its own."""
        home = self.home_of.get(unit, unit)
        offset = home * self._unit_bytes - self._nm_bytes
        if offset < 0:
            raise ValueError(f"unit {home} is an NM home, not FM")
        return offset

    def exchange(self, slot: int, unit: int) -> int:
        """Move ``unit`` (not in NM) into ``slot`` and its occupant into
        the home ``unit`` leaves; a unit back at its own home leaves the
        map.  Returns that home's FM offset, which both the incoming
        unit's read and the occupant's write-back target."""
        offset = self.fm_offset(unit)
        home = self.home_of.pop(unit, unit)
        occupant = self.present[slot]
        self.present[slot] = unit
        if occupant != home:
            self.home_of[occupant] = home
        return offset

    def check(self, fail: Callable[[str], NoReturn],
              classes: Optional[int] = None) -> None:
        """Every slot holds an in-space unit.  Every displaced unit has
        an FM home of its own, is not also in NM, and its home's own unit
        has left that home (it is resident or displaced itself).
        ``classes`` makes the mapping direct: slot ``s`` and home ``h``
        may only hold units congruent to them modulo ``classes``."""
        present, total = self.present, self._total_units
        if len(present) != self._nm_units:
            fail("slot table size drifted")
        for slot, unit in enumerate(present):
            if not 0 <= unit < total:
                fail(f"slot {slot} holds out-of-space unit {unit}")
            if classes and unit % classes != slot:
                fail(f"slot {slot} holds unit {unit} from a different "
                     "congruence class")
        resident = set(present)
        stored_at: Dict[int, int] = {}
        for unit, home in self.home_of.items():
            if not self._nm_units <= home < total:
                fail(f"unit {unit} claims non-FM home {home}")
            if classes and unit % classes != home % classes:
                fail(f"unit {unit} stored at home {home} outside its "
                     "congruence class")
            if unit in resident:
                fail(f"unit {unit} recorded as displaced while an NM slot "
                     "also holds it (duplication)")
            if home in stored_at:
                fail(f"FM home {home} stores both unit {stored_at[home]} "
                     f"and unit {unit}")
            stored_at[home] = unit
            if home not in resident and home not in self.home_of:
                fail(f"unit {unit} stored at FM home {home}, which its own "
                     "unit never left")


class MemoryScheme(abc.ABC):
    """Base class for all flat-memory organisations."""

    name: str = "abstract"
    #: telemetry hub (:mod:`repro.telemetry`), set by
    #: :meth:`attach_telemetry`; None in normal runs, so event probes in
    #: subclasses reduce to one ``is None`` check on the hot path.
    telemetry = None
    #: the row labels this scheme's plans can carry (``plan.note`` plus
    #: the ``+lock`` variants from :meth:`span_row`).  Span tracing
    #: records these in the artifact so ``repro analyze`` can report
    #: declared-but-unobserved rows instead of silently omitting them.
    SPAN_ROWS: Tuple[str, ...] = ()

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self.stats = SchemeStats()
        #: the flat-space bounds :meth:`locate` reads on every call
        self._nm_bytes = space.nm_bytes
        self._total_bytes = space.total_bytes

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        """Handle one LLC miss at flat physical address ``paddr``."""

    def locate(self, paddr: int) -> Tuple[Level, int]:
        """Current storage slot (level, device-local byte offset) holding
        the data of flat address ``paddr`` — at subblock granularity.

        Schemes do not override this: the data of a block
        :meth:`at_home` vouches for is at its own address (NM holds the
        low flat addresses, FM the high ones), and the oracle's
        bijection scan relies on exactly that.  Every other answer is
        :meth:`locate_moved`'s."""
        if not 0 <= paddr < self._total_bytes:
            raise ValueError(f"address {paddr:#x} outside flat space")
        if not self.at_home(paddr // BLOCK_BYTES):
            return self.locate_moved(paddr)
        if paddr < self._nm_bytes:
            return NM, paddr
        return FM, paddr - self._nm_bytes

    @abc.abstractmethod
    def at_home(self, block: int) -> bool:
        """True when every subblock of 2 KB flat block ``block`` is at
        its own address.  False is always safe (the block is then asked
        of :meth:`locate_moved`, subblock by subblock); True is a
        promise the oracle checks against its shadow."""

    def locate_moved(self, paddr: int) -> Tuple[Level, int]:
        """Where the data of in-space ``paddr`` lives, for a block
        :meth:`at_home` does not vouch for.  A scheme whose ``at_home``
        can answer False overrides this; its answer must be right for
        any in-space address, moved or not."""
        raise NotImplementedError(
            f"{self.name}: block {paddr // BLOCK_BYTES} is not at home "
            "but the scheme has no locate_moved")

    # ------------------------------------------------------------------
    def writeback(self, paddr: int) -> AccessPlan:
        """An LLC dirty eviction: write 64 B to wherever the data lives.

        Pure background traffic; does not move data or update metadata.
        """
        level, offset = self.locate(paddr)
        return AccessPlan(level, [], [Op(level, offset - offset % 64, 64, True)])

    def epoch_period_cycles(self) -> Optional[float]:
        """Epoch-driven schemes (HMA) return their interval; others None."""
        return None

    def epoch(self) -> Tuple[List[Op], float]:
        """Run one epoch: returns (migration traffic, OS stall cycles)."""
        return [], 0.0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def check_invariants(self) -> None:
        """Verify the scheme's remapping metadata is self-consistent.

        Every scheme must implement this: it is the per-scheme half of
        the differential oracle (:mod:`repro.validate`) — the shadow
        memory checks *where data is*, this hook checks that the
        scheme's own bookkeeping structures agree with each other
        (forward and reverse maps mutual, residency bits legal, lock
        owners coherent, ...).  Raises :class:`InvariantViolation` on
        the first inconsistency; returns None when clean.  Must be
        side-effect free: it is called mid-run between accesses.
        """

    def _fail(self, message: str) -> NoReturn:
        """Raise :class:`InvariantViolation`.  Checks call it behind
        their own test, so a message is formatted only for a condition
        that fails (per-slot loops would otherwise format one per
        check)."""
        raise InvariantViolation(f"{self.name}: {message}")

    # ------------------------------------------------------------------
    def attach_telemetry(self, hub) -> None:
        """Register this scheme's signals with a telemetry hub.

        The base registers the counters every scheme maintains through
        ``record_plan`` (miss/service split, swap and migration rates);
        subclasses extend with their mechanism-specific probes and event
        hooks.  All probes are *pull*-based — registration stores a
        closure over counters the scheme already updates, so enabling
        telemetry adds no per-access work here.
        """
        self.telemetry = hub
        stats = self.stats  # warmup reset keeps the object identity
        hub.meter("scheme.misses", lambda: stats.misses)
        hub.meter("scheme.nm_serviced", lambda: stats.nm_serviced)
        hub.meter("scheme.fm_serviced", lambda: stats.fm_serviced)
        hub.meter("scheme.bypassed", lambda: stats.bypassed)
        hub.meter("scheme.subblock_swaps", lambda: stats.subblock_swaps)
        hub.meter("scheme.block_migrations", lambda: stats.block_migrations)
        hub.gauge("scheme.access_rate", lambda: stats.access_rate, trace=True)

    # ------------------------------------------------------------------
    def span_row(self, plan: AccessPlan) -> str:
        """Table-I-style row label for per-request latency attribution.

        Defaults to the plan's ``note`` (the Table I row for SILC-FM,
        hit/miss/swap tags for the comparison schemes), suffixed with
        ``+lock`` when a hot-block lock pinned the decision and the note
        does not already say so.  Only called for *sampled* requests —
        never on the plain hot path."""
        row = plan.note or plan.serviced_from.value
        if plan.locked and "lock" not in row:
            row += "+lock"
        return row

    # ------------------------------------------------------------------
    def record_plan(self, plan: AccessPlan) -> None:
        """Fold one access plan into the scheme's counters."""
        self.stats.misses += 1
        if plan.bypassed:
            self.stats.bypassed += 1
        if plan.serviced_from is NM:
            self.stats.nm_serviced += 1
        else:
            self.stats.fm_serviced += 1
