"""One DRAM channel: request queues, an FR-FCFS-style scheduler and a
shared data bus.

The model is event-driven rather than cycle-stepped: when the scheduler
picks a request it computes, from the bank's row-buffer state and the
bus's next free time, when the transfer completes, and schedules that
completion on the engine.  A small in-flight window (``pipeline_depth``)
lets the next request's bank preparation overlap the current burst, so
back-to-back row hits stream at full bus utilisation while row conflicts
serialise on the bank — the two effects the evaluation depends on.

Scheduling policy (FR-FCFS with priority classes): demand requests beat
background (swap/migration) traffic; within a class, row-buffer hits are
preferred; ties go to the oldest request.

Every DRAM transfer of a run passes through here, so the data plane is
written for the interpreter.  An idle channel's transfer skips the
queue altogether: :meth:`repro.dram.device.MemoryDevice.access` starts
its burst directly (the FR-FCFS pick of a one-entry queue is that
entry).  A busy channel's transfer queues a request from a small free
pool; the request goes back to the pool the moment it issues, because
its completion event carries the payload.  Either way the burst ends
in the one completion method, :meth:`Channel._complete`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque

from repro.dram.bank import Bank
from repro.dram.request import DEMAND, DRAMRequest, Priority
from repro.dram.timing import DRAMTimings
from repro.sim.engine import Engine


@dataclass
class ChannelStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    demand_bytes: int = 0
    background_bytes: int = 0
    bus_busy_cycles: float = 0.0
    total_queue_wait: float = 0.0
    max_queue_depth: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        """Restore every declared default in place (warmup
        discarding)."""
        self.__init__()


class Channel:
    """A single channel of one memory device."""

    #: how many scheduled-but-incomplete requests may overlap; sized to
    #: the paper's 32-entry per-channel queues so all 8 banks of a
    #: channel can be preparing rows while the bus streams data.
    pipeline_depth = 16
    #: FR-FCFS lookahead: only this many of the oldest requests per
    #: priority class are considered for row-hit reordering (a real
    #: scheduler's window is similarly bounded; this also keeps the pick
    #: cost O(window) under deep backlogs).
    scheduler_window = 32
    #: how many demand requests are served for each background request
    #: when both queues are non-empty.  Background (swap/migration/
    #: writeback) traffic is deprioritised but NOT starved: migration
    #: bandwidth competing with demand is the effect the paper's
    #: PoM-vs-subblocking comparison rests on.
    background_share = 4
    #: oldest-request age (CPU cycles) beyond which FR-FCFS stops
    #: reordering past it — the standard starvation cap that keeps an
    #: endlessly row-hitting stream from blocking a row-miss forever.
    #: Loose enough that it only fires on genuine starvation, not on
    #: ordinary backlog (row batching is what keeps conflict-heavy
    #: streams from spiralling).
    starvation_cap = 2500.0
    #: recycled DRAMRequest objects kept per channel.
    _REQ_POOL_CAP = 64

    def __init__(self, engine: Engine, timings: DRAMTimings) -> None:
        self._engine = engine
        self._t = timings
        self._banks = [Bank(timings) for _ in range(timings.banks)]
        self._demand_queue: Deque[DRAMRequest] = deque()
        self._background_queue: Deque[DRAMRequest] = deque()
        self._bus_free: float = 0.0
        self._inflight = 0
        self._picks = 0
        self.stats = ChannelStats()
        #: conversion factor and per-size burst durations, cached off the
        #: timing properties — the formulas are pure in ``size``.
        self._cpm = timings.cpu_cycles_per_mem
        self._burst_cpu_cycles: dict = {}
        #: request free pool: ``_try_issue`` recycles,
        #: ``MemoryDevice.access`` re-acquires.  A request is dead once
        #: it issues — its completion event carries the payload.
        self._req_pool: list = []
        #: completion callback bound once — a ``schedule_at`` call site
        #: builds a fresh bound method per event otherwise.
        self._complete_bound = self._complete

    @property
    def queue_depth(self) -> int:
        return len(self._demand_queue) + len(self._background_queue)

    def bank(self, index: int) -> Bank:
        return self._banks[index]

    # ------------------------------------------------------------------
    def submit(self, request: DRAMRequest) -> None:
        """Enqueue a request, then issue while the pipeline has room; it
        completes via ``request.on_complete``.  The queue may hold older
        requests with room to spare: a completion callback can submit to
        the very channel that is completing, before its drain runs."""
        dq = self._demand_queue
        bq = self._background_queue
        (dq if request.priority == DEMAND else bq).append(request)
        depth = len(dq) + len(bq)
        stats = self.stats
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if self._inflight < self.pipeline_depth:
            self._try_issue()

    def burst_cycles(self, size: int) -> float:
        """CPU cycles the data bus is busy moving ``size`` bytes (cached
        per size in ``_burst_cpu_cycles``)."""
        burst = self._t.burst_mem_cycles(size) * self._cpm
        self._burst_cpu_cycles[size] = burst
        return burst

    # ------------------------------------------------------------------
    def _try_issue(self) -> None:
        """Issue queued requests while the pipeline has room: pick by
        FR-FCFS within the scheduler window (demand over background at
        the ``background_share`` ratio, so migrations are delayed under
        load but still consume real bandwidth), prepare the bank, then
        chain the burst onto the bus.

        A call almost always makes exactly one pick, so channel state is
        read and written on ``self`` per pick rather than cached in
        locals for the loop.  The issued request goes back to the pool
        at once: its completion event carries the payload.
        """
        dq = self._demand_queue
        bq = self._background_queue
        while (dq or bq) and self._inflight < self.pipeline_depth:
            if not dq:
                queue = bq
            elif not bq:
                queue = dq
            else:
                self._picks += 1
                queue = (bq if self._picks % (self.background_share + 1) == 0
                         else dq)
            now = self._engine.now
            best_index = 0
            if now - queue[0].arrival < self.starvation_cap:
                banks = self._banks
                # islice walks the deque O(1) per step; indexing a deque
                # is O(i) per probe, which quadraticizes deep-queue scans
                for i, req in enumerate(islice(queue, self.scheduler_window)):
                    if banks[req.bank].open_row == req.row:
                        best_index = i
                        break
            if best_index:
                best = queue[best_index]
                del queue[best_index]
            else:
                best = queue.popleft()
            size = best.size
            on_complete = best.on_complete
            span = best.span
            data_ready = self._banks[best.bank].prepare(best.row, now)
            bus_free = self._bus_free
            data_start = data_ready if data_ready > bus_free else bus_free
            burst = self._burst_cpu_cycles.get(size)
            if burst is None:
                burst = self.burst_cycles(size)
            completion = data_start + burst
            self._bus_free = completion
            self._inflight += 1
            stats = self.stats
            stats.bus_busy_cycles += burst
            wait = data_start - best.arrival
            stats.total_queue_wait += wait
            if span is not None:
                # attribute the queue/service split to the sampled
                # request: everything before the data starts moving
                # (bank preparation, bus contention, scheduler backlog)
                # is queueing, the burst itself is service
                span.add_dram(wait, burst)
                best.span = None
            self._engine.schedule_at(completion, self._complete_bound, size,
                                     best.is_write, best.priority, on_complete)
            best.on_complete = None
            if len(self._req_pool) < self._REQ_POOL_CAP:
                self._req_pool.append(best)

    def _complete(self, size: int, is_write: bool, priority: Priority,
                  on_complete) -> None:
        """A burst finished, whether the device started it on an idle
        channel or ``_try_issue`` issued it from the queue.  The callback
        may submit again; the trailing drain then issues whatever is
        queued."""
        self._inflight -= 1
        stats = self.stats
        if is_write:
            stats.writes += 1
            stats.bytes_written += size
        else:
            stats.reads += 1
            stats.bytes_read += size
        if priority == DEMAND:
            stats.demand_bytes += size
        else:
            stats.background_bytes += size
        if on_complete is not None:
            on_complete(self._engine.now)
        if self._demand_queue or self._background_queue:
            self._try_issue()
