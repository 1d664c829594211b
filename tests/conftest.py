"""Fixtures shared across the test suite."""

import pytest


@pytest.fixture
def restore_logging(monkeypatch):
    """Undo a test's log configuration and the environment hand-off
    (``REPRO_LOG_LEVEL`` / ``REPRO_LOG_FILE``) that carries it into
    pool workers."""
    from repro.telemetry import log

    monkeypatch.delenv(log.ENV_LEVEL, raising=False)
    monkeypatch.delenv(log.ENV_FILE, raising=False)
    yield
    log.configure(level="warning", path=None, stream=None,
                  propagate_env=False)
