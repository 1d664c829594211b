"""The telemetry hub: named counters, gauges, meters and windowed
time-series sampling.

The hub is a *pull*-based observability layer: components register
signal callbacks once at attach time, and the hub samples them at a
fixed cycle period driven by the simulation engine.  The hot paths of
the simulator therefore carry **zero** telemetry cost beyond the
existing statistics counters they already maintain — when telemetry is
disabled (the default, ``SystemConfig.telemetry_window == 0``) no hub
exists at all, and component-side event probes reduce to a single
``is None`` check.

Signal kinds
------------

counter
    Hub-owned cumulative value bumped with :meth:`Telemetry.incr`, for
    an event count no component tracks itself (no simulator component
    bumps one today).  Sampled as a per-window delta.
gauge
    A callback returning an instantaneous value (queue depth, bypass
    state, predictor accuracy).  Sampled raw.
meter
    A callback returning a *cumulative* value (bytes moved, swaps
    performed).  Sampled as a per-window delta, so the series directly
    shows rates; a backwards jump (warmup statistics reset) clamps the
    delta to zero instead of reporting a negative rate.

Samples are flat ``{"t": ..., "dt": ..., "<signal>": value}`` dicts
held in a bounded ring; when the ring fills, the oldest half is dropped
and counted (``spilled_samples``), so a truncated series is never
mistaken for a complete one.

Chrome trace events are the caller's: a hub built with an
:class:`~repro.telemetry.tracer.EventTracer` emits instant events and
mirrors ``trace=True`` signals into it as counter events; a hub built
without one records samples, counters and span aggregates only, and
its :meth:`Telemetry.instant` returns at once.  ``repro run`` is the
one caller that passes a tracer, because it is the one writer of a
trace file.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.engine import Engine
from repro.telemetry.tracer import EventTracer

#: bump when the snapshot layout changes (the snapshot rides in cached
#: results and in ``repro run``'s series artifacts).
#: v2: snapshots may carry a ``spans`` latency-attribution sub-object
#: (:mod:`repro.telemetry.spans`) and artifacts a ``run`` metadata
#: header (:func:`repro.telemetry.artifacts.run_metadata`).
#: v3: snapshots carry no ``events``, ``dropped_events`` or
#: ``spill_path``; the trace lives in the caller's ``EventTracer``.
TELEMETRY_SCHEMA_VERSION = 3

#: default sampling period, in CPU cycles (the ``--telemetry`` flag's
#: window when ``--telemetry-window`` is not given).
DEFAULT_TELEMETRY_WINDOW = 10_000

#: default ring capacity, in samples.
DEFAULT_RING_CAPACITY = 4096


class TimeSeriesRing:
    """Bounded sample buffer.

    Appends are O(1); when the buffer reaches ``capacity`` the oldest
    half is dropped, and only its count (``spilled``) is kept.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 2:
            raise ValueError("ring capacity must be at least 2")
        self.capacity = capacity
        self.spilled = 0
        self._samples: List[Dict[str, float]] = []

    def append(self, sample: Dict[str, float]) -> None:
        self._samples.append(sample)
        if len(self._samples) >= self.capacity:
            half = self.capacity // 2
            del self._samples[:half]
            self.spilled += half

    def samples(self) -> List[Dict[str, float]]:
        """The in-memory (most recent) samples, oldest first."""
        return list(self._samples)


class Telemetry:
    """Hub that components publish signals into and the engine samples.

    Parameters
    ----------
    window_cycles:
        Sampling period in CPU cycles.
    tracer:
        Where instant events and the ``trace=True`` counter tracks go;
        None (the default) records no trace events at all.

    The sample ring keeps its default bound (:class:`TimeSeriesRing`).
    """

    def __init__(self, window_cycles: int = DEFAULT_TELEMETRY_WINDOW, *,
                 tracer: Optional[EventTracer] = None) -> None:
        if window_cycles <= 0:
            raise ValueError("telemetry window must be a positive cycle count")
        self.window = window_cycles
        self.series = TimeSeriesRing()
        self.tracer = tracer
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._meters: Dict[str, Callable[[], float]] = {}
        self._meter_prev: Dict[str, float] = {}
        self._counter_prev: Dict[str, float] = {}
        self._traced: List[str] = []  # signals mirrored as trace counters
        self._engine: Optional[Engine] = None
        self._last_sample_t: float = 0.0
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # registration (attach time, before the run)
    # ------------------------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], float],
              trace: bool = False) -> None:
        """Register an instantaneous signal; sampled raw each window."""
        self._check_name(name)
        self._gauges[name] = fn
        if trace:
            self._traced.append(name)

    def meter(self, name: str, fn: Callable[[], float],
              trace: bool = False) -> None:
        """Register a cumulative signal; sampled as per-window deltas."""
        self._check_name(name)
        self._meters[name] = fn
        self._meter_prev[name] = 0.0
        if trace:
            self._traced.append(name)

    def _check_name(self, name: str) -> None:
        if name in ("t", "dt"):
            raise ValueError(f"{name!r} is a reserved sample field")
        if name in self._gauges or name in self._meters:
            raise ValueError(f"telemetry signal {name!r} already registered")

    # ------------------------------------------------------------------
    # runtime publishing (hot-path safe: one dict update)
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: float = 1.0) -> None:
        """Bump a hub-owned cumulative counter."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def instant(self, name: str, cat: str = "event", **args: object) -> None:
        """Emit an instant event into the Chrome trace at sim-now; a
        no-op on a hub without a tracer."""
        if self.tracer is None:
            return
        now = self._engine.now if self._engine is not None else 0.0
        self.tracer.instant(name, cat, now, args or None)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def attach(self, engine: Engine,
               while_: Optional[Callable[[], bool]] = None) -> None:
        """Start periodic sampling on ``engine``.

        ``while_`` bounds the sampler's lifetime (e.g. "while any core
        is unfinished"); the engine additionally stops the chain when
        its queue is otherwise empty, so a telemetry-enabled run can
        never livelock on its own sampler.
        """
        self._engine = engine
        self._last_sample_t = engine.now
        engine.schedule_every(self.window, self.sample_now, while_=while_)

    def drain(self) -> Optional[Dict[str, float]]:
        """Flush the final partial window at end of run.

        Guarantees the last ``< window_cycles`` of activity land in the
        series without ever appending a duplicate: when the run halts
        *exactly* on a window boundary the periodic tick has already
        sampled at this cycle, and a second sample here would be a
        zero-width (``dt == 0``) duplicate whose meter deltas are all
        zero.  Idempotent — a second ``drain()`` at the same time is a
        no-op — so every exit path can call it safely.  Returns the
        sample taken, or None when nothing was pending.
        """
        now = self._engine.now if self._engine is not None else 0.0
        if self.samples_taken and now <= self._last_sample_t:
            return None
        return self.sample_now()

    def sample_now(self) -> Dict[str, float]:
        """Take one sample immediately (also used for the final partial
        window at end of run, so no in-flight window is ever lost)."""
        now = self._engine.now if self._engine is not None else 0.0
        sample: Dict[str, float] = {
            "t": now,
            "dt": now - self._last_sample_t,
        }
        for name, fn in self._gauges.items():
            sample[name] = fn()
        for name, fn in self._meters.items():
            value = fn()
            sample[name] = max(0.0, value - self._meter_prev[name])
            self._meter_prev[name] = value
        for name, value in self._counters.items():
            sample[name] = value - self._counter_prev.get(name, 0.0)
            self._counter_prev[name] = value
        self._last_sample_t = now
        self.samples_taken += 1
        self.series.append(sample)
        if self.tracer is not None and self._traced:
            self.tracer.counter("telemetry", now,
                                {name: sample[name] for name in self._traced})
        return sample

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """The samples and counters, as one JSON-serialisable dict.

        This is what rides inside :class:`repro.cpu.system.RunResult`
        (and therefore the executor's result cache) when telemetry is
        enabled.  Trace events are not part of it: they stay in the
        tracer, whose owner writes them out
        (:func:`repro.telemetry.artifacts.write_artifacts`).
        """
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "window_cycles": self.window,
            "samples": self.series.samples(),
            "spilled_samples": self.series.spilled,
            "counters": dict(self._counters),
        }
