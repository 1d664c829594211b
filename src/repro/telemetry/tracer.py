"""Chrome-trace-format event tracer.

Emits the JSON the Chrome tracing ecosystem understands — load the
written file straight into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` to see swaps, locks, bypass-mode transitions and
oracle checks on a zoomable timeline, with the windowed counter series
rendered as counter tracks.

Format reference: the *Trace Event Format* document (the ``ph`` field
selects the event type; we emit ``"i"`` instant events, ``"C"``
counter events, ``"X"`` complete events for request/stage spans and
``"s"``/``"f"`` flow events linking coalesced MSHR siblings to the
transaction that serviced them).  Timestamps (``ts``) are
microseconds; simulation cycles are converted with ``cycles_per_us``
(by default the core clock, :data:`repro.sim.engine.CPU_GHZ`, times
1000) so the timeline is in real time.

The event list is capped (``max_events``): long runs keep the earliest
events and count the overflow in :attr:`EventTracer.dropped` rather
than growing without bound — a truncated trace is still a valid trace.
Batch emitters (the span recorder) call :meth:`EventTracer.reserve`
first so paired events — a flow start and its finish — are kept or
dropped *together*; a trace never contains a dangling flow arrow.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.sim.engine import CPU_GHZ

#: required keys of every emitted trace event (checked by the validator).
_REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


class TraceFormatError(ValueError):
    """A file failed Chrome-trace JSON validation."""


class EventTracer:
    """Collects Chrome trace events, bounded by ``max_events``."""

    def __init__(self, max_events: int = 100_000,
                 cycles_per_us: float = CPU_GHZ * 1000.0) -> None:
        if max_events < 1:
            raise ValueError("max_events must be positive")
        if cycles_per_us <= 0:
            raise ValueError("cycles_per_us must be positive")
        self.max_events = max_events
        self.cycles_per_us = cycles_per_us
        self.dropped = 0
        self._events: List[Dict] = []

    # ------------------------------------------------------------------
    def _ts(self, cycles: float) -> float:
        return cycles / self.cycles_per_us

    def _emit(self, event: Dict) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    def instant(self, name: str, cat: str, cycles: float,
                args: Optional[Dict] = None) -> None:
        """One instant ("i") event at simulation time ``cycles``."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "g",  # global scope: drawn across the whole timeline
            "ts": self._ts(cycles),
            "pid": 0,
            "tid": 0,
        }
        if args:
            event["args"] = dict(args)
        self._emit(event)

    def counter(self, name: str, cycles: float,
                values: Dict[str, float]) -> None:
        """One counter ("C") event — Perfetto renders each key of
        ``values`` as a counter-track series."""
        self._emit({
            "name": name,
            "ph": "C",
            "ts": self._ts(cycles),
            "pid": 0,
            "tid": 0,
            "args": {k: float(v) for k, v in values.items()},
        })

    def complete(self, name: str, cat: str, start_cycles: float,
                 dur_cycles: float, tid: int = 0,
                 args: Optional[Dict] = None) -> None:
        """One complete ("X") event: a named interval with a duration,
        rendered as a slice on thread track ``tid``."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": self._ts(start_cycles),
            "dur": self._ts(dur_cycles),
            "pid": 0,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self._emit(event)

    def flow(self, name: str, cat: str, cycles: float, flow_id: str,
             phase: str, tid: int = 0) -> None:
        """One flow event — ``phase`` is ``"s"`` (start), ``"t"`` (step)
        or ``"f"`` (finish); events sharing ``flow_id`` are drawn as an
        arrow across the timeline."""
        if phase not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be s/t/f, got {phase!r}")
        event = {
            "name": name,
            "cat": cat,
            "ph": phase,
            "ts": self._ts(cycles),
            "pid": 0,
            "tid": tid,
            "id": flow_id,
        }
        if phase == "f":
            event["bp"] = "e"  # bind the finish to the enclosing slice
        self._emit(event)

    def reserve(self, count: int) -> bool:
        """Check ``count`` more events fit under the cap; counts them
        as dropped and returns False when they don't.  Batch emitters
        use this so paired events (a span's stage slices, a flow start
        and its finish) are kept or dropped atomically."""
        if len(self._events) + count > self.max_events:
            self.dropped += count
            return False
        return True

    # ------------------------------------------------------------------
    def events(self) -> List[Dict]:
        return list(self._events)


def validate_chrome_trace(source: Union[str, Dict, List]) -> int:
    """Check ``source`` is valid Chrome trace JSON; returns the event
    count.  ``source`` may be a file path, a parsed container object, or
    a bare event list (both spellings are legal Chrome trace JSON).

    Raises :class:`TraceFormatError` describing the first problem — this
    is what the CI smoke uses to guarantee emitted traces actually load
    in Perfetto/catapult.
    """
    if isinstance(source, str):
        try:
            with open(source) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise TraceFormatError(f"{source}: not readable JSON: {exc}")
    else:
        data = source
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            raise TraceFormatError("container object lacks a 'traceEvents' list")
    elif isinstance(data, list):
        events = data
    else:
        raise TraceFormatError(f"trace must be an object or array, "
                               f"got {type(data).__name__}")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceFormatError(f"event {i} is not an object")
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                raise TraceFormatError(f"event {i} lacks required key {key!r}")
        if not isinstance(event["ts"], (int, float)):
            raise TraceFormatError(f"event {i} has non-numeric ts")
        if not isinstance(event["name"], str):
            raise TraceFormatError(f"event {i} has non-string name")
    return len(events)
