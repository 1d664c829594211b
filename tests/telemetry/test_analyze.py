"""The ``repro analyze`` latency-attribution report: series loading,
rendering, and the failure modes."""

import dataclasses
import json

import pytest

import repro.__main__ as cli
from repro.experiments.runner import run_one
from repro.sim.config import default_config
from repro.telemetry import EventTracer, run_metadata, write_artifacts
from repro.telemetry.analyze import (AnalyzeError, analyze, load_artifact,
                                     render_report)

MISSES = 600
SEED = 7


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """The series file of one span-sampled silc/mcf run."""
    config = dataclasses.replace(default_config(scale=0.25),
                                 telemetry_window=5000, span_sample_rate=1)
    tracer = EventTracer()
    result = run_one("silc", "mcf", config, misses_per_core=MISSES,
                     seed=SEED, tracer=tracer)
    directory = tmp_path_factory.mktemp("artifacts")
    meta = run_metadata("silc", "mcf", SEED, config, misses_per_core=MISSES)
    series, _trace = write_artifacts(directory, "silc-mcf",
                                     result.telemetry, tracer, meta=meta)
    return series


def test_load_series_artifact(series):
    data = load_artifact(series)
    assert data["run"]["scheme"] == "silc"
    assert data["spans"]["spans"] > 0


def test_series_report_contents(series):
    report = analyze(series)
    assert "silc/mcf" in report
    assert "Per-stage service time (cycles)" in report
    assert "Table I row breakdown" in report
    assert "reconciliation: stage sums cover 100.00%" in report
    assert "p95" in report and "p99" in report


def test_spanless_series_rejected(tmp_path):
    path = tmp_path / "plain.series.json"
    path.write_text(json.dumps({"schema": 2, "samples": []}))
    with pytest.raises(AnalyzeError, match="span-sample-rate"):
        load_artifact(path)


def test_spanless_trace_rejected(tmp_path, capsys):
    """A Chrome trace is Perfetto's input; analyze reads the series."""
    path = tmp_path / "plain.trace.json"
    path.write_text(json.dumps({"traceEvents": [
        {"name": "lock", "ph": "i", "ts": 1.0, "pid": 0, "tid": 0}]}))
    assert cli.main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analyze:") and ".series.json" in err


def test_unreadable_artifact_rejected(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(AnalyzeError, match="not readable"):
        load_artifact(path)


def test_empty_spans_report_degrades_gracefully():
    report = render_report({"source": "x", "run": None,
                            "spans": {"spans": 0}})
    assert "nothing to attribute" in report
