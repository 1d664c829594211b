"""Structured JSON-lines logging.

One record per line, one JSON object per record::

    {"ts": 1754700000.123456, "level": "debug", "logger": "repro.worker",
     "event": "cell_finished", "pid": 4711, "scheme": "silc",
     "workload": "mcf"}

The module is deliberately self-contained (no ``logging`` handlers, no
global mutable handler tree) so that the experiment executor's pool
workers can pick up the parent's configuration from two environment
variables — ``REPRO_LOG_LEVEL`` and ``REPRO_LOG_FILE`` — without any
pickling of logger objects.

Usage::

    from repro.telemetry import log
    _log = log.get_logger("repro.worker")
    _log.debug("cell_started", scheme="silc", workload="mcf")

Levels: ``debug`` < ``info`` < ``warning`` < ``error`` < ``off``.  The
default level is ``warning`` to stderr, so libraries can log error
paths unconditionally without turning quiet CLI runs noisy.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple

ENV_LEVEL = "REPRO_LOG_LEVEL"
ENV_FILE = "REPRO_LOG_FILE"

LEVELS: Dict[str, int] = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
    "off": 100,
}

_lock = threading.Lock()
_level: int = LEVELS["warning"]
_level_name: str = "warning"
_file: Optional[IO[str]] = None
_stream: Optional[IO[str]] = None  # None -> sys.stderr at emit time
_env_loaded = False
_capture_sinks: List[List[Dict[str, Any]]] = []


def _coerce_level(level: str) -> Tuple[str, int]:
    name = str(level).strip().lower()
    if name not in LEVELS:
        raise ValueError(
            "unknown log level %r (expected one of %s)"
            % (level, ", ".join(sorted(LEVELS)))
        )
    return name, LEVELS[name]


def configure(
    level: str = "warning",
    path: Optional[str] = None,
    stream: Optional[IO[str]] = None,
    propagate_env: bool = True,
) -> None:
    """Set the process-wide log level and sink.

    ``path`` wins over ``stream``; with neither, records go to stderr.
    With ``propagate_env`` the configuration is mirrored into
    ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_FILE`` so that worker processes
    (which call :func:`configure_from_env` lazily) inherit it.
    """
    global _level, _level_name, _file, _stream, _env_loaded
    name, value = _coerce_level(level)
    with _lock:
        # close unconditionally: re-opening the same path must not
        # leave the previous handle open and unreferenced
        if _file is not None:
            try:
                _file.close()
            except OSError:
                pass
            _file = None
        _level_name, _level = name, value
        _stream = stream
        if path is not None:
            _file = open(path, "a", encoding="utf-8")
        _env_loaded = True
    if propagate_env:
        os.environ[ENV_LEVEL] = name
        if path is not None:
            os.environ[ENV_FILE] = path
        else:
            os.environ.pop(ENV_FILE, None)


def configure_from_env(force: bool = False) -> None:
    """Adopt ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_FILE`` if present.

    Called lazily on first emit so that pool workers — which re-import
    this module in a fresh interpreter under the ``spawn`` start method
    — log with the parent's settings without explicit plumbing.
    """
    global _env_loaded
    if _env_loaded and not force:
        return
    level = os.environ.get(ENV_LEVEL)
    path = os.environ.get(ENV_FILE)
    if level is None and path is None:
        with _lock:
            _env_loaded = True
        return
    try:
        configure(level=level or "warning", path=path, propagate_env=False)
    except ValueError:
        with _lock:
            _env_loaded = True


def level_name() -> str:
    return _level_name


def _emit(logger: str, level: str, event: str, fields: Dict[str, Any]) -> None:
    if not _env_loaded:
        configure_from_env()
    value = LEVELS[level]
    captured = bool(_capture_sinks)
    if value < _level and not captured:
        return
    record: Dict[str, Any] = {
        "ts": round(time.time(), 6),
        "level": level,
        "logger": logger,
        "event": event,
        "pid": os.getpid(),
    }
    for key, val in fields.items():
        if key not in record:
            record[key] = val
    with _lock:
        for sink in _capture_sinks:
            sink.append(dict(record))
        if value < _level:
            return
        try:
            line = json.dumps(record, sort_keys=False, default=repr)
        except (TypeError, ValueError):
            line = json.dumps({"ts": record["ts"], "level": level, "logger": logger, "event": event, "pid": record["pid"], "malformed_fields": True})
        out = _file if _file is not None else (_stream if _stream is not None else sys.stderr)
        try:
            out.write(line + "\n")
            out.flush()
        except (OSError, ValueError):
            pass


class BoundLogger:
    """A named logger carrying a frozen set of context fields."""

    __slots__ = ("name", "_fields")

    def __init__(self, name: str, fields: Optional[Dict[str, Any]] = None):
        self.name = name
        self._fields: Dict[str, Any] = dict(fields or {})

    def _log(self, level: str, event: str, fields: Dict[str, Any]) -> None:
        if self._fields:
            merged = dict(self._fields)
            merged.update(fields)
            fields = merged
        _emit(self.name, level, event, fields)

    def debug(self, event: str, **fields: Any) -> None:
        self._log("debug", event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._log("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._log("warning", event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._log("error", event, fields)


def get_logger(name: str, **fields: Any) -> BoundLogger:
    return BoundLogger(name, fields or None)


class capture:
    """Context manager collecting records for assertions in tests.

    Records are captured at all levels regardless of the configured
    threshold, without touching the configured sink::

        with log.capture() as records:
            do_work()
        assert any(r["event"] == "cell_failed" for r in records)
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def __enter__(self) -> List[Dict[str, Any]]:
        with _lock:
            _capture_sinks.append(self.records)
        return self.records

    def __exit__(self, *exc: Any) -> None:
        with _lock:
            try:
                _capture_sinks.remove(self.records)
            except ValueError:
                pass

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records)
