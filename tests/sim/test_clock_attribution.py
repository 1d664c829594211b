"""Attribution of a run's clock and observations: the warmup and
steady-state regions of ``System.run`` split the miss stream exactly,
observation (telemetry, spans) never reaches the wire form, and a
span-traced run keeps every request on the span-attributed path."""

import dataclasses
import json

import pytest

from repro.experiments.runner import run_one
from repro.sim.config import default_config

CORES = 2


def _config(**overrides):
    base = dataclasses.replace(default_config(scale=0.25), cores=CORES)
    return dataclasses.replace(base, **overrides)


def _wire(result):
    data = result.to_dict()
    data.pop("telemetry", None)
    return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# the two regions of the run's clock
# ---------------------------------------------------------------------------
def test_clock_counters_reconcile_exactly():
    """The warmup region halts right after the dispatch that reaches
    the warmup miss count and the counters reset before any other
    dispatch, so in compat mode (one scheme consult per miss) every
    miss is counted in exactly one region."""
    misses = 300
    total = misses * CORES
    for fraction in (0.0, 0.2, 0.37):
        result = run_one("silc", "mcf", _config(mshr_entries=0),
                         misses_per_core=misses, seed=11,
                         warmup_fraction=fraction)
        warmup = int(fraction * total)
        assert result.scheme_stats.misses == total - warmup, fraction
        assert all(c.misses_retired == misses for c in result.core_stats)


# ---------------------------------------------------------------------------
# observation stays out of the wire form
# ---------------------------------------------------------------------------
def test_observation_extras_never_reach_the_wire_form():
    """Nothing observation-only — sampler state, span counters, host
    time — lands in ``extras`` or any stats block: a run with telemetry
    and every request span-traced serialises, its ``telemetry`` section
    aside, byte-identically to a plain run, so cache entries and digests
    do not depend on whether a run was traced."""
    for mshr_entries in (0, 128):
        plain = run_one("silc", "mcf", _config(mshr_entries=mshr_entries),
                        misses_per_core=200, seed=3, warmup_fraction=0.0)
        traced = run_one("silc", "mcf", _config(
            mshr_entries=mshr_entries, telemetry_window=2000,
            span_sample_rate=1), misses_per_core=200, seed=3,
            warmup_fraction=0.0)
        assert "telemetry" not in plain.to_dict()
        assert traced.telemetry is not None
        assert _wire(traced) == _wire(plain)


# ---------------------------------------------------------------------------
# span runs keep every request on the attributed path
# ---------------------------------------------------------------------------
def test_system_run_gates_span_runs_off_the_evaluator():
    """The controller completes a single-op plan through its fused
    one-callback path only when no span rides the request, so at sample
    rate 1 every dispatched miss is traced, walks its stages and
    retires: the per-stage cycles partition the demand stall exactly."""
    result = run_one("silc", "mcf", _config(
        telemetry_window=2000, span_sample_rate=1), misses_per_core=200,
        seed=5, warmup_fraction=0.0)
    spans = result.telemetry["spans"]
    assert spans["sample_rate"] == 1
    assert spans["unretired"] == 0
    assert spans["spans"] == result.extras["mshr_allocations"] > 0
    assert spans["spans"] + result.extras["mshr_coalesced"] == 200 * CORES
    assert spans["demand_stall_cycles"] > 0
    assert spans["stage_cycles_total"] == pytest.approx(
        spans["demand_stall_cycles"], rel=1e-9)
