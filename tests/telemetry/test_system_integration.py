"""End-to-end telemetry: a real SILC-FM run with the hub attached.

Uses mcf, whose pointer-chasing access pattern flips the bandwidth
balancer's bypass mode several times and triggers locking at the scale
simulated here — the same workload the CI telemetry smoke pins.
"""

import dataclasses

import pytest

from repro.cpu.system import RunResult, System
from repro.experiments.runner import SCHEMES, run_one
from repro.sim.config import default_config
from repro.telemetry import (TELEMETRY_SCHEMA_VERSION, EventTracer,
                             validate_chrome_trace)
from repro.workloads.spec import workload_specs

MISSES = 4000


@pytest.fixture(scope="module")
def traced_run():
    """(result, tracer) of one telemetry run that records trace events."""
    config = dataclasses.replace(default_config(), telemetry_window=5000)
    tracer = EventTracer()
    result = run_one("silc", "mcf", config, misses_per_core=MISSES, seed=7,
                     tracer=tracer)
    return result, tracer


@pytest.fixture(scope="module")
def telemetry_result(traced_run):
    return traced_run[0]


@pytest.fixture(scope="module")
def events(traced_run):
    return traced_run[1].events()


@pytest.fixture(scope="module")
def plain_result():
    return run_one("silc", "mcf", default_config(),
                   misses_per_core=MISSES, seed=7)


def test_series_is_non_empty(telemetry_result):
    snap = telemetry_result.telemetry
    assert snap is not None
    assert snap["schema"] == TELEMETRY_SCHEMA_VERSION
    assert len(snap["samples"]) > 1
    sample = snap["samples"][-1]
    assert "silcfm.window_access_rate" in sample
    assert "cpu.instructions" in sample
    assert "scheme.misses" in sample


def test_bypass_and_lock_events_present(events):
    names = {e["name"] for e in events}
    # >= 1 bypass-mode transition and >= 1 lock event
    assert names & {"bypass-on", "bypass-off"}
    assert "lock" in names


def test_events_form_valid_chrome_trace(events):
    count = validate_chrome_trace(events)
    assert count == len(events)


def test_tracer_needs_telemetry():
    """A tracer on a run with no hub would silently stay empty."""
    config = default_config(scale=0.25)
    with pytest.raises(ValueError, match="telemetry_window"):
        System(config, SCHEMES["silc"].factory,
               workload_specs("mcf", config), 10, tracer=EventTracer())


def test_figures_of_merit_unchanged_by_telemetry(telemetry_result,
                                                 plain_result):
    """Sampling is read-only: enabling telemetry must not perturb the
    simulation."""
    assert telemetry_result.elapsed_cycles == plain_result.elapsed_cycles
    assert telemetry_result.scheme_stats == plain_result.scheme_stats
    assert telemetry_result.access_rate == plain_result.access_rate


def test_disabled_run_serialises_without_telemetry_key(plain_result):
    data = plain_result.to_dict()
    assert "telemetry" not in data  # keeps cached JSON bit-identical


def test_result_roundtrip_preserves_telemetry(telemetry_result):
    data = telemetry_result.to_dict()
    assert "telemetry" in data
    back = RunResult.from_dict(data)
    assert back.telemetry == telemetry_result.telemetry
