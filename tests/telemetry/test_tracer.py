"""Unit tests for the Chrome-trace event tracer, the artifact files
and the validator."""

import json

import pytest

from repro.telemetry import (
    EventTracer,
    TraceFormatError,
    validate_chrome_trace,
    write_artifacts,
)
from repro.telemetry.artifacts import atomic_write


def _tracer(**kwargs):
    kwargs.setdefault("cycles_per_us", 1000.0)
    return EventTracer(**kwargs)


# ----------------------------------------------------------------------
# event emission
# ----------------------------------------------------------------------
def test_instant_event_shape():
    tracer = _tracer()
    tracer.instant("swap-in", "swap", cycles=2000.0, args={"way": 3})
    (event,) = tracer.events()
    assert event["name"] == "swap-in"
    assert event["ph"] == "i"
    assert event["cat"] == "swap"
    assert event["ts"] == pytest.approx(2.0)  # 2000 cycles @ 1 GHz = 2 us
    assert event["args"] == {"way": 3}
    assert "pid" in event and "tid" in event


def test_counter_event_shape():
    tracer = _tracer()
    tracer.counter("telemetry", cycles=5000.0, values={"rate": 0.8})
    (event,) = tracer.events()
    assert event["ph"] == "C"
    assert event["args"] == {"rate": 0.8}
    assert event["ts"] == pytest.approx(5.0)


def test_event_cap_counts_dropped():
    tracer = _tracer(max_events=3)
    for i in range(10):
        tracer.instant(f"e{i}", "cat", cycles=float(i))
    assert len(tracer.events()) == 3
    assert tracer.dropped == 7
    # the oldest events are kept (caps truncate the tail, not the head)
    assert [e["name"] for e in tracer.events()] == ["e0", "e1", "e2"]


def test_complete_event_shape():
    tracer = _tracer()
    tracer.complete("row1", "span.request", start_cycles=1000.0,
                    dur_cycles=500.0, tid=3, args={"paddr": 64})
    (event,) = tracer.events()
    assert event["ph"] == "X"
    assert event["ts"] == pytest.approx(1.0)
    assert event["dur"] == pytest.approx(0.5)
    assert event["tid"] == 3
    assert event["args"] == {"paddr": 64}


def test_flow_events_pair_by_id():
    tracer = _tracer()
    tracer.flow("coalesce", "span.flow", 100.0, "span7.0", "s", tid=1)
    tracer.flow("coalesce", "span.flow", 400.0, "span7.0", "f", tid=1)
    start, finish = tracer.events()
    assert start["ph"] == "s" and finish["ph"] == "f"
    assert start["id"] == finish["id"] == "span7.0"
    assert finish["bp"] == "e"  # finish binds to the enclosing slice
    assert "bp" not in start


def test_flow_rejects_bad_phase():
    with pytest.raises(ValueError, match="s/t/f"):
        _tracer().flow("x", "cat", 0.0, "id0", "X")


def test_reserve_keeps_or_drops_batches_whole():
    tracer = _tracer(max_events=4)
    tracer.instant("pre", "cat", cycles=0.0)
    assert tracer.reserve(3) is True
    for i in range(3):
        tracer.instant(f"b{i}", "cat", cycles=float(i))
    # next batch of 3 cannot fit (4-event cap, 4 used): refused whole
    assert tracer.reserve(3) is False
    assert tracer.dropped == 3
    assert len(tracer.events()) == 4


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validate_accepts_container_dict_and_list():
    tracer = _tracer()
    tracer.instant("x", "cat", cycles=1.0)
    events = tracer.events()
    assert validate_chrome_trace({"traceEvents": events}) == 1
    assert validate_chrome_trace(events) == 1


def test_validate_accepts_file_path(tmp_path):
    tracer = _tracer()
    tracer.instant("x", "cat", cycles=1.0)
    tracer.counter("c", cycles=2.0, values={"v": 1})
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"traceEvents": tracer.events()}))
    assert validate_chrome_trace(str(path)) == 2


def test_validate_rejects_missing_required_key():
    with pytest.raises(TraceFormatError):
        validate_chrome_trace([{"name": "x", "ph": "i", "ts": 0.0}])


def test_validate_rejects_non_numeric_ts():
    with pytest.raises(TraceFormatError):
        validate_chrome_trace([{"name": "x", "ph": "i", "ts": "soon",
                                "pid": 1, "tid": 1}])


def test_validate_rejects_non_trace_payload():
    with pytest.raises(TraceFormatError):
        validate_chrome_trace({"not": "a trace"})


# ----------------------------------------------------------------------
# artifact files
# ----------------------------------------------------------------------
def _snapshot():
    return {
        "schema": 1,
        "window_cycles": 100,
        "samples": [{"t": 100.0, "dt": 100.0, "g": 1.0}],
        "spilled_samples": 0,
        "counters": {},
    }


def _lock_tracer(**kwargs):
    tracer = _tracer(**kwargs)
    tracer.instant("lock", "lock", cycles=10.0)
    return tracer


def test_write_series_strips_events(tmp_path):
    snapshot = _snapshot()
    series, _ = write_artifacts(tmp_path, "stem", snapshot, _lock_tracer())
    data = json.loads(series.read_text())
    assert data == dict(snapshot, dropped_events=0)
    assert data["samples"][0]["g"] == 1.0
    assert data["schema"] == 1


def test_series_carries_the_tracers_dropped_count(tmp_path):
    tracer = _lock_tracer(max_events=1)
    tracer.instant("unlock", "lock", cycles=20.0)
    tracer.instant("lock", "lock", cycles=30.0)
    series, trace = write_artifacts(tmp_path, "stem", _snapshot(), tracer)
    assert json.loads(series.read_text())["dropped_events"] == 2
    assert validate_chrome_trace(str(trace)) == 1


def test_write_trace_is_valid_chrome_trace(tmp_path):
    _, trace = write_artifacts(tmp_path, "stem", _snapshot(), _lock_tracer())
    assert validate_chrome_trace(str(trace)) == 1


def test_container_wraps_events(tmp_path):
    tracer = _lock_tracer()
    _, trace = write_artifacts(tmp_path, "stem", _snapshot(), tracer)
    container = json.loads(trace.read_text())
    assert container["traceEvents"] == tracer.events()
    assert container["displayTimeUnit"] == "ms"
    assert "producer" in container["otherData"]


def test_write_artifacts_names_both_files(tmp_path):
    series, trace = write_artifacts(tmp_path / "sub", "stem", _snapshot(),
                                    _lock_tracer())
    assert series.name == "stem.series.json"
    assert trace.name == "stem.trace.json"
    assert series.exists() and trace.exists()


def test_run_metadata_header_embedded_in_both_files(tmp_path):
    from repro.sim.config import config_digest, default_config
    from repro.telemetry import TELEMETRY_SCHEMA_VERSION, run_metadata

    config = default_config()
    meta = run_metadata("silc", "mcf", 7, config, misses_per_core=4000)
    assert meta["schema"] == TELEMETRY_SCHEMA_VERSION
    assert meta["config_digest"] == config_digest(config)
    series, trace = write_artifacts(tmp_path, "stem", _snapshot(),
                                    _lock_tracer(), meta=meta)
    series_run = json.loads(series.read_text())["run"]
    trace_run = json.loads(trace.read_text())["otherData"]["run"]
    for run in (series_run, trace_run):
        assert run["scheme"] == "silc"
        assert run["workload"] == "mcf"
        assert run["seed"] == 7
        assert run["misses_per_core"] == 4000
    assert validate_chrome_trace(str(trace)) == 1


def test_artifacts_without_meta_carry_no_run_header(tmp_path):
    series, trace = write_artifacts(tmp_path, "stem", _snapshot(),
                                    _lock_tracer())
    assert "run" not in json.loads(series.read_text())
    assert "run" not in json.loads(trace.read_text())["otherData"]


def test_atomic_write_leaves_nothing_behind_on_failure(tmp_path):
    """A write that fails publishes nothing and removes its temp file."""
    with pytest.raises(TypeError):
        atomic_write(tmp_path / "x.json", None)
    assert list(tmp_path.iterdir()) == []
