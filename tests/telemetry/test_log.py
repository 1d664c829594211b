"""Structured JSON-lines logging: levels, sinks, context fields, and
the environment handoff that carries configuration into pool workers."""

import json
import os

import pytest

from repro.telemetry import log


pytestmark = pytest.mark.usefixtures("restore_logging")


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_records_are_json_lines_with_context(tmp_path):
    target = tmp_path / "log.jsonl"
    log.configure(level="info", path=str(target), propagate_env=False)
    logger = log.get_logger("repro.test", tenant="alice")
    logger.info("job_created", job="job-1", cells=3)
    records = read_lines(target)
    assert len(records) == 1
    record = records[0]
    assert record["level"] == "info"
    assert record["logger"] == "repro.test"
    assert record["event"] == "job_created"
    assert record["tenant"] == "alice"
    assert record["job"] == "job-1"
    assert record["cells"] == 3
    assert record["pid"] == os.getpid()
    assert isinstance(record["ts"], float)


def test_level_threshold_filters_lower_levels(tmp_path):
    target = tmp_path / "log.jsonl"
    log.configure(level="warning", path=str(target), propagate_env=False)
    logger = log.get_logger("repro.test")
    logger.debug("too_low")
    logger.info("also_too_low")
    logger.warning("kept")
    logger.error("kept_too")
    assert [r["event"] for r in read_lines(target)] == ["kept", "kept_too"]


def test_capture_sees_records_below_the_threshold():
    log.configure(level="off", propagate_env=False)
    with log.capture() as records:
        log.get_logger("repro.test").debug("invisible_but_captured", x=1)
    assert [r["event"] for r in records] == ["invisible_but_captured"]
    assert records[0]["x"] == 1


def test_configure_propagates_to_env_and_back(tmp_path):
    target = tmp_path / "worker.jsonl"
    log.configure(level="debug", path=str(target), propagate_env=True)
    assert os.environ[log.ENV_LEVEL] == "debug"
    assert os.environ[log.ENV_FILE] == str(target)
    # a worker process adopts the env lazily; force simulates the fresh
    # interpreter the spawn start method gives pool workers
    log.configure(level="warning", path=None, stream=None,
                  propagate_env=False)
    log.configure_from_env(force=True)
    assert log.level_name() == "debug"
    log.get_logger("repro.worker").debug("from_worker")
    assert [r["event"] for r in read_lines(target)] == ["from_worker"]


def test_unserialisable_fields_do_not_crash_the_caller(tmp_path):
    target = tmp_path / "log.jsonl"
    log.configure(level="info", path=str(target), propagate_env=False)
    log.get_logger("repro.test").info("evt", obj=object())
    (record,) = read_lines(target)
    # repr fallback keeps the record a valid JSON line
    assert record["event"] == "evt"
    assert "object object" in record["obj"]


def test_reconfiguring_the_same_path_closes_the_previous_handle(tmp_path):
    target = tmp_path / "log.jsonl"
    log.configure(level="info", path=str(target), propagate_env=False)
    first = log._file
    log.configure(level="info", path=str(target), propagate_env=False)
    assert first.closed
    assert log._file is not first and not log._file.closed
    log.get_logger("repro.test").info("after_reconfigure")
    assert [r["event"] for r in read_lines(target)] == ["after_reconfigure"]


def test_unknown_level_is_rejected():
    with pytest.raises(ValueError):
        log.configure(level="verbose", propagate_env=False)
