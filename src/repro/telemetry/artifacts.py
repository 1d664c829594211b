"""Telemetry artifact files: the on-disk form of a run's snapshot.

Two files per telemetry-enabled run:

* ``<stem>.series.json`` — the windowed time series (samples, final
  counters, spill accounting), schema-versioned;
* ``<stem>.trace.json`` — the Chrome-trace container, loadable in
  Perfetto / ``chrome://tracing``.

The experiment executor writes them under ``<cache-dir>/telemetry/``
keyed by the cell's content hash (so artifacts resume/invalidate with
the result cache); ``repro run`` writes them under
``results/telemetry/`` named by (scheme, workload).

Both files can carry a **run-metadata header** (``meta=``, built with
:func:`run_metadata`): scheme, workload, seed, config hash and schema
version, embedded as ``"run"`` in the series payload and under
``otherData.run`` in the trace container.  ``repro analyze`` uses it to
label reports without needing the originating command.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.telemetry.tracer import chrome_trace_container

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


def write_series(path: PathLike, snapshot: Dict,
                 meta: Optional[Dict] = None) -> Path:
    """Write the time-series half of a telemetry snapshot (everything
    except the trace events), with an optional run-metadata header."""
    path = Path(path)
    payload = {k: v for k, v in snapshot.items() if k != "events"}
    if meta:
        payload["run"] = dict(meta)
    _atomic_dump(path, payload)
    return path


def write_trace(path: PathLike, snapshot: Dict,
                meta: Optional[Dict] = None) -> Path:
    """Write the snapshot's events as a Chrome-trace container file,
    with an optional run-metadata header under ``otherData.run``."""
    path = Path(path)
    container = chrome_trace_container(snapshot.get("events", []))
    if meta:
        container["otherData"]["run"] = dict(meta)
    _atomic_dump(path, container)
    return path


def write_artifacts(directory: PathLike, stem: str, snapshot: Dict,
                    meta: Optional[Dict] = None) -> Tuple[Path, Path]:
    """Write both artifact files for one run; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    series = write_series(directory / f"{stem}.series.json", snapshot, meta)
    trace = write_trace(directory / f"{stem}.trace.json", snapshot, meta)
    return series, trace


def _atomic_dump(path: Path, payload: Dict) -> None:
    """tmp + rename, mirroring the executor's crash-safe cache writes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
