"""Miss-status holding registers: the one front door from the cores to
the flat-memory controller.

Every LLC miss is one :class:`MemoryRequest` transaction from arrival to
retire.  It flows core -> MSHR file -> controller -> scheme -> devices
in four steps.  Which step a transaction is at follows from what holds
it (the file's FIFO, the controller, a device), so it carries no state
field::

    queued ----------> dispatched ----------> staging ----------> retired
    (waiting for an    (holds an entry;       (critical-path      (waiters
     MSHR entry; only   scheme consulted;      stages in flight    woken,
     when the file is   may wait out an        on the devices)     entry
     full)              OS epoch stall)                            freed)

The MSHR file itself (:class:`MSHRFile`) models the two behaviours real
hybrid-memory controllers get from their request queues:

* **read coalescing** — a second *read* miss to a 64 B subblock whose
  fill is already in flight (or queued) for a *read* does not consult
  the scheme or touch the devices again; it joins that transaction's
  waiter list and wakes when the one fill completes.  Coalescing is
  read-only by design: a store carries a state change the scheme must
  observe (dirty bits, migration triggers), and chaining an independent
  miss onto an in-flight *write* serializes it behind traffic the
  scheme might have served faster had it been consulted — the
  silc-mshr32 postmortem (docs/architecture.md) measured write
  coalescing costing SILC-FM its entire speedup, because waiters were
  welded to slow far-memory fetches that a fresh consult would have
  resolved as near-memory hits after the first miss's swap-in.
* **structural stalls** — the file has a configurable number of entries
  (``SystemConfig.mshr_entries``); a miss that arrives while all are
  occupied is allocated at arrival and waits in a FIFO until an entry
  frees.  These stalls are counted separately
  (:class:`MSHRStats`) from the cores' full-ROB stalls
  (``CoreStats.stall_events``) so the two bottlenecks are
  distinguishable in the results.  One line-to-read map holds queued
  and in-flight reads alike, so a read that arrives while a read to the
  same subblock is queued joins it — it burns neither a structural
  stall nor a fresh entry — and a queued transaction keeps its arrival
  time as its ``issue_time`` (a sampled one, its span) so latency
  attribution sees the queue wait.

The default ``SystemConfig.mshr_entries`` is sized to the machine's
aggregate memory-level parallelism (cores × per-core outstanding
misses): any smaller file is a structural concurrency cap that no
dispatch policy can tune away, which is exactly what the silc-mshr32
bench anomaly turned out to be.

``mshr_entries = 0`` is the *compatibility* value: a file that never
fills and never coalesces, so every miss dispatches at arrival with its
own scheme consult — simulated results are bit-identical to the
pre-MSHR design.  It publishes no ``mshr_*`` result extras and registers
no ``mshr.*`` telemetry probes, so compat output stays byte-identical,
telemetry included.

Dirty-eviction writebacks never enter the MSHR: they are fire-and-forget
background traffic with no completion to coalesce onto, and routing them
around the file preserves their issue order even when the demand stream
stalls structurally.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.sim.config import SUBBLOCK_BYTES
from repro.sim.engine import Engine


class MemoryRequest:
    """One LLC miss as an explicit transaction.

    Carries what the controller's stage walk needs — the plan's stages,
    the current stage index, the count of outstanding ops in that stage,
    and the issue and dispatch timestamps — as plain fields, so the walk
    allocates nothing per stage.
    """

    __slots__ = ("paddr", "is_write", "pc",
                 "issue_time", "dispatch_time",
                 "stages", "stage_index", "remaining_ops",
                 "waiters", "line", "mshr", "controller",
                 "span")

    def __init__(self, paddr: int, is_write: bool, pc: int,
                 issue_time: float) -> None:
        self.paddr = paddr
        self.is_write = is_write
        self.pc = pc
        self.issue_time = issue_time
        self.dispatch_time = 0.0
        self.stages = None
        self.stage_index = -1
        self.remaining_ops = 0
        #: per-request trace span (:mod:`repro.telemetry.spans`) when
        #: this transaction was sampled; None otherwise.
        self.span = None
        #: ``on_done(when)`` callbacks woken at completion; the first is
        #: the issuing core's, the rest are coalesced same-subblock
        #: misses.
        self.waiters: List[Callable[[float], None]] = []
        self.line = -1
        self.mshr: Optional["MSHRFile"] = None
        self.controller = None

    # ------------------------------------------------------------------
    def op_done(self, when: float) -> None:
        """Device completion callback for every op of the current stage;
        the stage is done when the last op reports in."""
        self.remaining_ops -= 1
        if self.remaining_ops == 0:
            self.controller._advance(self, when)

    def fast_done(self, when: float) -> None:
        """Device completion callback for a plan whose whole critical
        path is one device access: that access landing completes the
        transaction (``op_done`` + the stage walk's final step, fused)."""
        self.controller._complete(self, when)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryRequest(paddr={self.paddr:#x}, "
                f"stage={self.stage_index}, waiters={len(self.waiters)})")


@dataclass
class MSHRStats:
    """MSHR-file accounting.  ``reset()`` supports warmup discarding."""

    #: transactions admitted into an entry (queued ones count when they
    #: are admitted, not when they arrive).
    allocations: int = 0
    #: misses absorbed by an in-flight or queued same-subblock read.
    coalesced: int = 0
    #: arrivals that found the file full and had to queue (the MSHR's
    #: structural stall — distinct from the cores' full-ROB
    #: ``CoreStats.stall_events``).
    structural_stalls: int = 0
    peak_occupancy: int = 0

    def reset(self) -> None:
        """Restore every declared default in place."""
        self.__init__()


class MSHRFile:
    """A shared LLC-level MSHR file in front of the controller: the only
    way a miss reaches it.  ``entries = 0`` is the compat file, which
    never fills and never coalesces."""

    def __init__(self, engine: Engine, entries: int, controller,
                 subblock_bytes: int = SUBBLOCK_BYTES) -> None:
        if entries < 0:
            raise ValueError("an MSHR file needs entries >= 0 (0 = compat)")
        self._engine = engine
        self.entries = entries
        #: entries that may be occupied at once; a compat file never fills.
        self._capacity = entries if entries else math.inf
        self._controller = controller
        self._shift = subblock_bytes.bit_length() - 1
        #: occupied entries.  A plain counter: reads register in
        #: ``_reads`` for coalescing, writes hold an entry anonymously
        #: (nothing may coalesce onto them), so a dict of all in-flight
        #: transactions would be dead weight.
        self._occupied = 0
        #: coalescable *read* transaction per subblock line, in flight or
        #: queued.  At most one exists per line: a second read joins the
        #: first.  A compat file registers none, so nothing coalesces.
        self._reads: Dict[int, MemoryRequest] = {}
        #: FIFO of transactions that arrived while the file was full.
        self._pending: Deque[MemoryRequest] = deque()
        self._draining = False
        #: recycled transactions.  One is built only when the pool is
        #: empty, so the pool never outgrows the peak count of live ones.
        self._pool: List[MemoryRequest] = []
        self.stats = MSHRStats()
        #: span recorder (:class:`repro.telemetry.spans.SpanRecorder`)
        #: when span tracing is enabled; None keeps the hot path to one
        #: ``is None`` check.
        self.spans = None

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupied

    @property
    def pending(self) -> int:
        return len(self._pending)

    def attach_telemetry(self, hub) -> None:
        """Coalescing/stall meters plus occupancy gauges (none for a
        compat file, whose telemetry predates the MSHR file)."""
        if not self.entries:
            return
        stats = self.stats  # warmup reset keeps the object identity
        hub.meter("mshr.allocations", lambda: stats.allocations)
        hub.meter("mshr.coalesced", lambda: stats.coalesced)
        hub.meter("mshr.structural_stalls",
                  lambda: stats.structural_stalls)
        hub.gauge("mshr.occupancy", lambda: float(self._occupied))
        hub.gauge("mshr.pending", lambda: float(len(self._pending)))

    def extras(self) -> Dict[str, float]:
        """The ``mshr_*`` result extras (none for a compat file, whose
        results predate the MSHR file)."""
        if not self.entries:
            return {}
        stats = self.stats
        return {
            "mshr_allocations": float(stats.allocations),
            "mshr_coalesced": float(stats.coalesced),
            "mshr_structural_stalls": float(stats.structural_stalls),
            "mshr_peak_occupancy": float(stats.peak_occupancy),
        }

    # ------------------------------------------------------------------
    def issue(self, paddr: int, is_write: bool, pc: int,
              on_done: Callable[[float], None]) -> None:
        """Core-facing entry point: coalesce a read onto the line's read,
        else allocate a transaction and admit it, or queue it while the
        file is full."""
        line = paddr >> self._shift
        spans = self.spans
        coalescable = not is_write and self.entries
        if coalescable:
            txn = self._reads.get(line)
            if txn is not None:
                # read-onto-read coalesce: join the line's fill, in
                # flight or still queued
                txn.waiters.append(on_done)
                self.stats.coalesced += 1
                if spans is not None:
                    spans.coalesce(txn)
                return
        now = self._engine.now
        pool = self._pool
        if pool:
            txn = pool.pop()
            txn.paddr = paddr
            txn.is_write = is_write
            txn.pc = pc
            txn.issue_time = now
        else:
            txn = MemoryRequest(paddr, is_write, pc, now)
            txn.mshr = self
        txn.line = line
        txn.waiters.append(on_done)
        if spans is not None and spans.arrival():
            txn.span = spans.start(paddr, is_write)
        if coalescable:
            self._reads[line] = txn
        if self._occupied >= self._capacity:
            self.stats.structural_stalls += 1
            self._pending.append(txn)
            return
        self._admit(txn)

    def _admit(self, txn: MemoryRequest) -> None:
        """Take an entry and dispatch.  A queued transaction keeps its
        arrival time as ``issue_time``, so the queue wait is part of its
        latency."""
        self._occupied += 1
        stats = self.stats
        stats.allocations += 1
        if self._occupied > stats.peak_occupancy:
            stats.peak_occupancy = self._occupied
        if txn.span is not None:
            txn.span.admit(self._engine.now)
        self._controller.handle_request(txn)

    # ------------------------------------------------------------------
    def release(self, txn: MemoryRequest, when: float) -> None:
        """Called by the controller when ``txn`` completes: free the
        entry, wake every waiter (issue order), then admit queued
        misses into the freed capacity."""
        self._occupied -= 1
        if not txn.is_write and self._reads.get(txn.line) is txn:
            del self._reads[txn.line]
        waiters = txn.waiters
        for waiter in waiters:
            waiter(when)
        if self._pending and not self._draining:
            # a nested completion during admission skips this: the outer
            # drain loop re-checks capacity itself.
            self._drain_pending()
        # nothing holds a completed transaction past this point (device
        # completions are scheduled, never synchronous, so no event can
        # still carry a stale reference): recycle it
        waiters.clear()
        self._pool.append(txn)

    def _drain_pending(self) -> None:
        """Admit queued transactions (FIFO) into freed entries."""
        self._draining = True
        try:
            pending = self._pending
            while pending and self._occupied < self._capacity:
                self._admit(pending.popleft())
        finally:
            self._draining = False
