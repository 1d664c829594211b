"""Trace-driven core model.

Each core replays one benchmark instance: it executes ``gap_instr``
instructions of compute (at its issue width) between memory accesses and
keeps up to ``max_outstanding_misses`` LLC misses in flight — the
memory-level parallelism a 128-entry ROB sustains.  When the window is
full the core stalls until a miss returns; execution time therefore
responds to memory latency *and* to bandwidth saturation, which is what
the paper's bandwidth-bound evaluation needs.

One core serves both trace modes.  With a ``classify`` callback (the
system's cache hierarchy) each trace record goes through the modelled
caches and only LLC misses reach memory (reference mode); without one
every record is already an LLC miss (miss-stream mode, the fast
default).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.sim.engine import Engine
from repro.workloads.trace import MemoryAccess

#: dirty lines a core keeps before the oldest is written back; models the
#: residence time of dirty data in its LLC share.
DIRTY_FIFO_DEPTH = 64


@dataclass
class CoreStats:
    instructions: int = 0
    accesses: int = 0
    misses_issued: int = 0
    misses_retired: int = 0
    stall_events: int = 0
    finish_time: float = 0.0

    def ipc(self) -> float:
        if self.finish_time <= 0:
            return 0.0
        return self.instructions / self.finish_time


class Core:
    """One out-of-order core replaying a trace."""

    def __init__(self, engine: Engine, core_id: int, trace: Iterator[MemoryAccess],
                 issue_width: int, max_outstanding: int,
                 translate: Callable[[int], int],
                 send_miss: Callable[[int, bool, int, Callable[[float], None]], None],
                 send_writeback: Callable[[int], None],
                 classify: Optional[Callable[[int, bool, int], "ClassifyResult"]] = None,
                 on_finished: Optional[Callable[["Core"], None]] = None) -> None:
        if issue_width < 1 or max_outstanding < 1:
            raise ValueError("issue width and outstanding window must be >= 1")
        self._engine = engine
        self.core_id = core_id
        self._trace = trace
        self._issue_width = issue_width
        self._max_outstanding = max_outstanding
        self._translate = translate
        self._send_miss = send_miss
        self._send_writeback = send_writeback
        self._classify = classify
        self._on_finished = on_finished
        self._outstanding = 0
        self._blocked = False
        self._draining = False
        self.finished = False
        #: bounded FIFO; overflow evicts the oldest entry as a writeback
        #: (an explicit popleft rather than ``maxlen`` because a silent
        #: drop would lose the eviction).  deque makes that O(1) where a
        #: list's ``pop(0)`` was O(depth) per dirty miss.
        self._dirty_fifo: deque = deque()
        self.stats = CoreStats()
        #: callbacks bound once — ``self._miss_done`` at a call site
        #: builds a fresh bound method per miss.
        self._retire = self._miss_done
        self._issue_bound = self._issue

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._engine.schedule(0, self._advance)

    def _advance(self) -> None:
        """Fetch the next trace record and schedule its issue after the
        compute gap.  The trace is looked up on the instance at every
        fetch, so a wrapped ``_trace`` sees every record."""
        record = next(self._trace, None)
        if record is None:
            self._draining = True
            self._maybe_finish()
            return
        gap = record.gap_instr
        self.stats.instructions += gap
        self._engine.schedule(gap / self._issue_width, self._issue_bound,
                              record)

    def _issue(self, record: MemoryAccess) -> None:
        self.stats.accesses += 1
        paddr = self._translate(record.vaddr)
        if self._classify is not None:
            outcome = self._classify(paddr, record.is_write, self.core_id)
            if outcome.writeback_addr is not None:
                self._send_writeback(outcome.writeback_addr)
            if not outcome.llc_miss:
                # cache hit: its latency folds into compute time
                self._engine.schedule(outcome.latency_cycles, self._advance)
                return
        self._issue_miss(paddr, record)

    def _issue_miss(self, paddr: int, record: MemoryAccess) -> None:
        self._outstanding += 1
        stats = self.stats
        stats.misses_issued += 1
        if record.is_write and self._classify is None:
            # miss-stream mode: queue a future writeback for the dirtied
            # line (reference mode gets real LLC evictions instead)
            fifo = self._dirty_fifo
            fifo.append(paddr)
            if len(fifo) > DIRTY_FIFO_DEPTH:
                self._send_writeback(fifo.popleft())
        self._send_miss(paddr, record.is_write, record.pc, self._retire)
        if self._outstanding < self._max_outstanding:
            self._advance()
        else:
            self._blocked = True
            stats.stall_events += 1

    def _miss_done(self, when: float) -> None:
        self._outstanding -= 1
        self.stats.misses_retired += 1
        if self._blocked:
            self._blocked = False
            self._advance()
        if self._draining:
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._draining and self._outstanding == 0 and not self.finished:
            self.finished = True
            self.stats.finish_time = self._engine.now
            for paddr in self._dirty_fifo:
                self._send_writeback(paddr)
            self._dirty_fifo.clear()
            if self._on_finished is not None:
                self._on_finished(self)
