"""Discrete-event simulation engine.

Every timing component in the reproduction (DRAM channels, cores, the
memory controller, epoch timers) is driven by a single :class:`Engine`
instance.  Time is measured in **CPU cycles** of the one core clock,
:data:`CPU_GHZ`; memory-cycle components convert internally, and energy
and trace timestamps convert cycles to real time with it.

The engine is a plain binary-heap event loop: components schedule
callbacks at absolute or relative times and the loop dispatches them in
timestamp order.  Ties are broken by insertion order so simulations are
fully deterministic for a given seed.

Hot-path notes: each event allocates one ``(when, seq, fn, args)``
heap tuple, built and pushed inline by ``schedule``/``schedule_at`` and
unpacked once at dispatch; nothing is recycled.  The unique ``seq``
tie-break means heapq never compares the callback itself.  Timestamps
stay whatever numeric type the caller scheduled — pure integer-cycle
delays (trace gaps, epoch periods) never get coerced to float, so
int-only event chains keep exact integer arithmetic.  ``run`` without a
horizon or watchdog takes a specialised loop with no per-event limit
checks.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

#: the core clock (Table II: 3.2 GHz) — the one definition of how long
#: a simulated cycle is.
CPU_GHZ = 3.2


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in
    the past)."""


class Engine:
    """A deterministic discrete-event loop.

    >>> eng = Engine()
    >>> fired = []
    >>> eng.schedule(10, fired.append, "a")
    >>> eng.schedule(5, fired.append, "b")
    >>> eng.run()
    >>> fired
    ['b', 'a']
    >>> eng.now
    10.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: heap of ``(when, seq, fn, args)`` entries.
        self._queue: List[tuple] = []
        self._seq = 0
        self._running = False
        self._halt = False
        self.events_dispatched = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        heappush(self._queue, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, current time is {self.now}"
            )
        heappush(self._queue, (when, self._seq, fn, args))
        self._seq += 1

    def schedule_every(self, period: float, fn: Callable[[], None],
                       while_: Optional[Callable[[], bool]] = None) -> None:
        """Run ``fn()`` every ``period`` cycles (first firing one period
        from now) — the periodic-observer primitive the telemetry
        sampler uses.

        The chain self-limits in two ways so a pure observer can never
        keep a simulation alive or mask a drained queue:

        * when ``while_`` is given and returns False, the tick returns
          without running ``fn`` or rescheduling;
        * when, at tick dispatch, no *other* events are queued, ``fn``
          runs one final time and the chain ends (a lone periodic
          observer means the simulation proper is over).
        """
        if period <= 0:
            raise SimulationError("periodic tasks need a positive period")

        def tick() -> None:
            if while_ is not None and not while_():
                return
            fn()
            if self._queue:
                self.schedule(period, tick)

        self.schedule(period, tick)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Stop the running ``run`` loop after the current event's
        callback returns (remaining events stay queued).  A no-op when
        nothing is running."""
        self._halt = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Dispatch events until the queue drains (or :meth:`halt`).

        ``until`` stops the clock at a horizon (events beyond it stay
        queued); ``max_events`` bounds the number of dispatches — the
        watchdog the test-suite uses against runaway simulations.
        Watchdog semantics (shared with ``System.run``): exactly
        ``max_events`` dispatches are allowed; the engine raises when a
        further event would have to be dispatched, so a queue of exactly
        ``max_events`` events completes cleanly.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._halt = False
        queue = self._queue
        dispatched = 0
        try:
            if until is None and max_events is None:
                # fast path: no horizon, no watchdog — nothing to check
                # per event beyond the halt flag.
                while queue:
                    self.now, _, fn, args = heappop(queue)
                    fn(*args)
                    dispatched += 1
                    if self._halt:
                        self._halt = False
                        break
                return
            while queue:
                when = queue[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
                if max_events is not None and dispatched >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
                _, _, fn, args = heappop(queue)
                self.now = when
                fn(*args)
                dispatched += 1
                if self._halt:
                    self._halt = False
                    return
        finally:
            self.events_dispatched += dispatched
            self._running = False

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
