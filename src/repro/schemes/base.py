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
unlike a cache, NM data is the only copy).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NoReturn, Optional, Tuple

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
        """Zero every counter (used for warmup discarding)."""
        self.misses = 0
        self.nm_serviced = 0
        self.fm_serviced = 0
        self.bypassed = 0
        self.subblock_swaps = 0
        self.block_migrations = 0


class MemoryScheme(abc.ABC):
    """Base class for all flat-memory organisations."""

    name: str = "abstract"
    #: True when the scheme maintains the part-of-memory bijection (data
    #: *moves*, position-for-position, and every flat subblock lives in
    #: exactly one slot).  Cache-style schemes (Alloy) set this False:
    #: FM is always the home and NM holds copies.
    bijective: bool = True
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
        #: the flat-space bounds ``locate`` reads on every call
        self._nm_bytes = space.nm_bytes
        self._total_bytes = space.total_bytes

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        """Handle one LLC miss at flat physical address ``paddr``."""

    @abc.abstractmethod
    def locate(self, paddr: int) -> Tuple[Level, int]:
        """Current storage slot (level, device-local byte offset) holding
        the data of flat address ``paddr`` — at subblock granularity."""

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
