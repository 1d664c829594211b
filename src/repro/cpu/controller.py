"""The flat-memory controller: executes a scheme's access plans on the
two memory devices.

Responsibilities:

* drive each :class:`~repro.cpu.mshr.MemoryRequest` transaction the MSHR
  file admits through its plan's critical-path stages (stage *i+1*
  issues when stage *i*'s last operation completes) at demand priority,
  then hand it back to the file, which wakes its waiters;
* fire background traffic (swaps, migrations, prefetches, writebacks)
  without blocking anyone — it still competes for channel bandwidth;
* drive epoch-based schemes (HMA): run the scheme's epoch at its period,
  issue the bulk-migration traffic and stall *all* demand requests for
  the OS-overhead window (context switch + PTE/TLB work);
* account demand and background bytes per level (the NM share of
  demand bytes, ``nm_demand_fraction``, is what ``repro run`` prints).

The stage walk is an explicit state machine on the transaction itself
(``stage_index`` / ``remaining_ops`` fields, updated by
``MemoryRequest.op_done``) rather than a chain of nested closures: one
transaction object per miss carries everything, and the oracle and
telemetry hooks fire on its lifecycle events (dispatch, completion).
The common plan shape — one critical-path op — skips the walk: the
device completes the transaction directly (``MemoryRequest.fast_done``).
A span-sampled miss takes the same paths: its device ops carry the span
(``None`` when unsampled), and a one-op plan's stage opens at dispatch
and closes when the span retires.

Every placement decision goes through the scheme's ``access`` /
``writeback`` / ``epoch`` and every device operation through
``MemoryDevice.access``, looked up at call time, so wrapping any of them
observes the whole run (the layered benchmark under ``bench/`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cpu.mshr import MemoryRequest
from repro.dram.device import MemoryDevice
from repro.dram.request import BACKGROUND, DEMAND
from repro.schemes.base import NM, MemoryScheme, Op
from repro.sim.engine import Engine
from repro.telemetry.spans import stage_label

if TYPE_CHECKING:
    from repro.validate.oracle import ValidationOracle


@dataclass
class ControllerStats:
    """Demand/background accounting.  ``reset()`` supports warmup
    discarding (the paper measures steady-state Simpoint regions)."""

    demand_nm_bytes: int = 0
    demand_fm_bytes: int = 0
    background_nm_bytes: int = 0
    background_fm_bytes: int = 0
    writebacks: int = 0
    epoch_stall_cycles: float = 0.0
    total_miss_latency: float = 0.0
    misses_completed: int = 0

    @property
    def nm_demand_fraction(self) -> float:
        """Fraction of demand *bytes* served by NM.  Fig. 8 reports the
        share of demand *requests* instead (``RunResult.access_rate``)."""
        total = self.demand_nm_bytes + self.demand_fm_bytes
        return self.demand_nm_bytes / total if total else 0.0

    @property
    def mean_miss_latency(self) -> float:
        if not self.misses_completed:
            return 0.0
        return self.total_miss_latency / self.misses_completed

    def reset(self) -> None:
        """Restore every declared default in place (keeps the object
        identity stable)."""
        self.__init__()


class FlatMemoryController:
    """Glue between the LLC miss stream, a scheme, and the devices."""

    def __init__(self, engine: Engine, scheme: MemoryScheme,
                 nm_device: MemoryDevice, fm_device: MemoryDevice,
                 oracle: Optional["ValidationOracle"] = None) -> None:
        self._engine = engine
        self.scheme = scheme
        self._nm = nm_device
        self._fm = fm_device
        #: differential oracle (repro.validate); None in normal runs.
        #: Hooked on transaction lifecycle events (dispatch), so it sees
        #: the same metadata snapshots the scheme does,
        #: stall-rescheduling included.
        self.oracle = oracle
        self.stats = ControllerStats()
        #: transactions dispatched into the scheme but not yet complete.
        self.inflight = 0
        #: span recorder (:class:`repro.telemetry.spans.SpanRecorder`)
        #: when span tracing is enabled; None keeps the hot path to
        #: ``is None`` checks on transaction lifecycle events.
        self.spans = None
        #: scheme miss count at which the dispatch that reaches it halts
        #: the engine (after the current event) and disarms — how
        #: ``System.run`` stops exactly at the end of warmup.
        self.halt_at_misses = math.inf
        self._stall_until = 0.0
        period = scheme.epoch_period_cycles()
        if period is not None:
            engine.schedule(period, self._run_epoch, period)

    # ------------------------------------------------------------------
    def attach_telemetry(self, hub) -> None:
        """Demand/background byte-split meters plus the latency gauge.

        All closures read counters dispatch already maintains, windowed
        so phase changes are visible.
        """
        stats = self.stats  # warmup reset keeps the object identity
        hub.meter("ctrl.demand_nm_bytes", lambda: stats.demand_nm_bytes)
        hub.meter("ctrl.demand_fm_bytes", lambda: stats.demand_fm_bytes)
        hub.meter("ctrl.background_nm_bytes",
                  lambda: stats.background_nm_bytes)
        hub.meter("ctrl.background_fm_bytes",
                  lambda: stats.background_fm_bytes)
        hub.meter("ctrl.writebacks", lambda: stats.writebacks)
        hub.meter("ctrl.misses_completed", lambda: stats.misses_completed)
        hub.gauge("ctrl.inflight", lambda: float(self.inflight))
        hub.gauge("ctrl.nm_demand_fraction",
                  lambda: stats.nm_demand_fraction, trace=True)
        hub.gauge("ctrl.mean_miss_latency", lambda: stats.mean_miss_latency)

    # ------------------------------------------------------------------
    def handle_request(self, txn: MemoryRequest) -> None:
        """Dispatch one transaction: consult the scheme, fire background
        traffic, and start walking the critical-path stages."""
        now = self._engine.now
        if now < self._stall_until:
            # OS epoch in progress: demand requests wait it out.
            self._engine.schedule_at(
                self._stall_until, self.handle_request, txn)
            return
        txn.dispatch_time = now
        txn.controller = self
        scheme = self.scheme
        oracle = self.oracle
        if oracle is not None:
            oracle.before_access(txn.paddr, txn.is_write)
        plan = scheme.access(txn.paddr, txn.is_write, txn.pc)
        if oracle is not None:
            oracle.after_access(txn.paddr, txn.is_write, plan)
        if scheme.stats.misses >= self.halt_at_misses:
            self.halt_at_misses = math.inf
            self._engine.halt()
        span = txn.span
        if span is not None:
            span.dispatch(now)
            span.decide(scheme.span_row(plan),
                        plan.serviced_from.value, plan.bypassed, now)
        stages = txn.stages = plan.stages
        stats = self.stats
        for stage in stages:
            for op in stage:
                if op.level is NM:
                    stats.demand_nm_bytes += op.size
                else:
                    stats.demand_fm_bytes += op.size
        background = plan.background
        if background:
            self._issue_background(background)
        self.inflight += 1
        if len(stages) == 1 and len(stages[0]) == 1:
            # one critical-path op: its completion completes the miss
            # (a sampled miss's stage closes when its span retires)
            ops = stages[0]
            op = ops[0]
            if span is not None:
                span.begin_stage(stage_label(ops), now)
            (self._nm if op.level is NM else self._fm).access(
                op.addr, op.size, op.is_write, DEMAND, txn.fast_done, span)
            return
        txn.stage_index = -1
        self._advance(txn, now)

    def handle_writeback(self, paddr: int) -> None:
        """LLC dirty eviction: background write to the data's location.

        Writebacks bypass the MSHR file entirely (nothing waits on
        them), so their ordering is independent of demand coalescing."""
        plan = self.scheme.writeback(paddr)
        if self.oracle is not None:
            self.oracle.after_writeback(paddr, plan)
        self.stats.writebacks += 1
        self._issue_background(plan.background)

    # ------------------------------------------------------------------
    def _advance(self, txn: MemoryRequest, when: float) -> None:
        """Issue the next non-empty stage, or complete the transaction.

        Called at dispatch (``stage_index == -1``) and from
        ``MemoryRequest.op_done`` when a stage's last op lands."""
        stages = txn.stages
        n = len(stages)
        i = txn.stage_index + 1
        nm = self._nm
        fm = self._fm
        span = txn.span
        if span is not None:
            span.end_stage(when)
        while i < n:
            ops = stages[i]
            if ops:
                txn.stage_index = i
                txn.remaining_ops = len(ops)
                op_done = txn.op_done
                if span is not None:
                    span.begin_stage(stage_label(ops), when)
                for op in ops:
                    (nm if op.level is NM else fm).access(
                        op.addr, op.size, op.is_write, DEMAND, op_done, span)
                return
            i += 1
        self._complete(txn, self._engine.now)

    def _complete(self, txn: MemoryRequest, when: float) -> None:
        self.inflight -= 1
        stats = self.stats
        stats.misses_completed += 1
        stats.total_miss_latency += when - txn.dispatch_time
        if txn.span is not None:
            self.spans.retire(txn, when)
        txn.mshr.release(txn, when)

    def _issue_background(self, ops: List[Op]) -> None:
        """Fire traffic nobody waits on, tallying its bytes per level."""
        stats = self.stats
        nm = self._nm
        fm = self._fm
        for op in ops:
            if op.level is NM:
                stats.background_nm_bytes += op.size
                nm.access(op.addr, op.size, op.is_write, BACKGROUND)
            else:
                stats.background_fm_bytes += op.size
                fm.access(op.addr, op.size, op.is_write, BACKGROUND)

    # ------------------------------------------------------------------
    def _run_epoch(self, period: float) -> None:
        ops, stall = self.scheme.epoch()
        if self.oracle is not None:
            self.oracle.after_epoch(ops)
        self._issue_background(ops)
        self._stall_until = self._engine.now + stall
        self.stats.epoch_stall_cycles += stall
        self._engine.schedule(period, self._run_epoch, period)
