"""Process-local observability: probe-based simulator telemetry, event
traces and per-request spans (see docs/telemetry.md).

Public surface:

* :class:`Telemetry` — the hub components publish counters/gauges/
  meters into; samples them on a cycle window into a ring-buffered
  time series.
* :class:`EventTracer` / :func:`validate_chrome_trace` — Chrome-trace
  event collection and validation (Perfetto-loadable).  A tracer is
  passed in by the caller that writes it out (``run_one(...,
  tracer=)``); a run without one records no events.
* :func:`write_artifacts` — the one writer of a run's
  ``.series.json`` / ``.trace.json`` pair (``repro run`` calls it),
  optionally labelled with a :func:`run_metadata` header.
* :class:`Span` / :class:`SpanCollector` / :class:`SpanRecorder` —
  per-request span tracing and latency attribution (see
  :mod:`repro.telemetry.spans`), enabled with
  ``SystemConfig.span_sample_rate`` and reported by ``repro analyze``
  from the series file.

Enable per run with ``SystemConfig.telemetry_window > 0`` (CLI:
``repro run --telemetry`` / ``--telemetry-window``); when disabled —
the default — no hub is constructed and the simulator's hot paths pay
nothing.
"""

from repro.telemetry.artifacts import run_metadata, write_artifacts
from repro.telemetry.spans import (
    SPANS_SCHEMA_VERSION,
    Span,
    SpanCollector,
    SpanRecorder,
    stage_label,
)
from repro.telemetry.hub import (
    DEFAULT_RING_CAPACITY,
    DEFAULT_TELEMETRY_WINDOW,
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    TimeSeriesRing,
)
from repro.telemetry.tracer import (
    EventTracer,
    TraceFormatError,
    validate_chrome_trace,
)

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_TELEMETRY_WINDOW",
    "SPANS_SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "Span",
    "SpanCollector",
    "SpanRecorder",
    "Telemetry",
    "TimeSeriesRing",
    "EventTracer",
    "TraceFormatError",
    "run_metadata",
    "stage_label",
    "validate_chrome_trace",
    "write_artifacts",
]
