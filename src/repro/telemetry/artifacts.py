"""Telemetry artifact files: the on-disk form of a run's snapshot.

Two files per telemetry-enabled run, written by :func:`write_artifacts`:

* ``<stem>.series.json`` — the windowed time series (samples, final
  counters, dropped-sample count, span aggregates) and the tracer's
  ``dropped_events``, schema-versioned;
* ``<stem>.trace.json`` — the tracer's events in the Chrome-trace
  container, loadable in Perfetto / ``chrome://tracing``.

``repro run`` is their one writer, and the one owner of an
:class:`~repro.telemetry.tracer.EventTracer`: it names the files by
(scheme, workload) under ``--telemetry-out`` (default
``results/telemetry/``).  A cached cell keeps its snapshot, which holds
no trace events, inside its result-cache entry instead.

Both files can carry a **run-metadata header** (``meta=``, built with
:func:`run_metadata`): scheme, workload, seed, config hash and schema
version, embedded as ``"run"`` in the series payload and under
``otherData.run`` in the trace container.  ``repro analyze`` uses it to
label reports without needing the originating command.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.telemetry.tracer import EventTracer

PathLike = Union[str, Path]


def run_metadata(scheme: str, workload: str, seed: int,
                 config=None, **extra) -> Dict:
    """The artifact header identifying which run produced a file."""
    from repro.telemetry.hub import TELEMETRY_SCHEMA_VERSION

    meta: Dict = {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "scheme": scheme,
        "workload": workload,
        "seed": seed,
    }
    if config is not None:
        from repro.sim.config import config_digest

        meta["config_digest"] = config_digest(config)
        meta["span_sample_rate"] = config.span_sample_rate
        meta["telemetry_window"] = config.telemetry_window
    meta.update(extra)
    return meta


def write_artifacts(directory: PathLike, stem: str, snapshot: Dict,
                    tracer: EventTracer,
                    meta: Optional[Dict] = None) -> Tuple[Path, Path]:
    """Write one run's two files into ``directory``; returns their paths.

    The series file holds the snapshot and the count of events the
    tracer dropped at its cap (``dropped_events``); the trace file wraps
    the tracer's events in the Chrome-trace container object.  ``meta``
    is embedded in both."""
    directory = Path(directory)
    series = dict(snapshot, dropped_events=tracer.dropped)
    trace = {
        "traceEvents": tracer.events(),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry (SILC-FM simulator)"},
    }
    if meta:
        series["run"] = dict(meta)
        trace["otherData"]["run"] = dict(meta)
    paths = (directory / f"{stem}.series.json",
             directory / f"{stem}.trace.json")
    directory.mkdir(parents=True, exist_ok=True)
    for path, payload in zip(paths, (series, trace)):
        # dumps, not dump: dump streams through the pure-Python
        # encoder, dumps runs the C one; the bytes are the same
        atomic_write(path, json.dumps(payload))
    return paths


def atomic_write(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` whole or not at all: write a temp
    file beside it, then ``os.replace``.  The temp name is unique per
    writer (``mkstemp``, mode 0600): a shared ``<file>.tmp`` would let
    two processes writing one path interleave into the same file and
    publish the torn bytes.  The result cache and ``repro run``'s
    artifacts both write through here."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
