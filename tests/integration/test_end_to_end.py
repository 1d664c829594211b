"""End-to-end integration tests: full systems, small traces."""

import dataclasses

import pytest

from repro.experiments.runner import SCHEMES, run_one
from repro.sim.config import default_config

MISSES = 1500


@pytest.fixture(scope="module")
def config():
    # a small config keeps the integration suite quick while preserving
    # every structural property (ratios, channels, associativity)
    return dataclasses.replace(
        default_config(scale=0.5), cores=4,
    )


@pytest.fixture(scope="module")
def baseline(config):
    return run_one("nonm", "mcf", config, misses_per_core=MISSES)


def test_baseline_runs_to_completion(baseline):
    assert baseline.elapsed_cycles > 0
    assert all(c.misses_retired == MISSES for c in baseline.core_stats)
    assert baseline.access_rate == 0.0  # no NM in the baseline
    assert baseline.nm_stats.accesses == 0


@pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
def test_every_scheme_completes(config, scheme_key):
    result = run_one(scheme_key, "mcf", config, misses_per_core=500)
    assert result.elapsed_cycles > 0
    # the default 20% warmup is discarded from the statistics; the
    # default MSHR additionally coalesces a few same-subblock reads,
    # which consult no scheme (the warmup boundary is measured in
    # consults, so reads coalesced *before* the reset widen the gap by
    # at most that handful)
    expected = int(500 * 0.8) * config.cores
    coalesced = int(result.extras.get("mshr_coalesced", 0.0))
    assert result.scheme_stats.misses <= expected
    assert result.scheme_stats.misses + coalesced >= round(expected * 0.995)


def test_warmup_discards_cold_start(config):
    cold = run_one("silc", "mcf", config, misses_per_core=1000,
                   warmup_fraction=0.0)
    warm = run_one("silc", "mcf", config, misses_per_core=1000,
                   warmup_fraction=0.4)
    # warm measurement sees fewer misses and a better access rate
    assert warm.scheme_stats.misses < cold.scheme_stats.misses
    assert warm.access_rate >= cold.access_rate


def test_hardware_schemes_beat_baseline(config, baseline):
    """On a bandwidth-bound workload every migrating scheme should
    comfortably beat the no-NM baseline."""
    for key in ("cam", "pom", "silc"):
        result = run_one(key, "mcf", config, misses_per_core=MISSES)
        assert result.speedup_over(baseline) > 1.0, key


def test_silcfm_access_rate_positive(config):
    result = run_one("silc", "mcf", config, misses_per_core=MISSES)
    assert 0.2 < result.access_rate < 1.0


def test_energy_accounting_consistent(config):
    result = run_one("silc", "mcf", config, misses_per_core=MISSES)
    assert result.energy.total_joules > 0
    assert result.edp > 0
    # traffic reached both devices
    assert result.nm_stats.bytes_total > 0
    assert result.fm_stats.bytes_total > 0


def test_determinism_across_runs(config):
    a = run_one("silc", "lbm", config, misses_per_core=800, seed=5)
    b = run_one("silc", "lbm", config, misses_per_core=800, seed=5)
    assert a.elapsed_cycles == b.elapsed_cycles
    assert a.scheme_stats.nm_serviced == b.scheme_stats.nm_serviced


def test_different_seeds_differ(config):
    a = run_one("silc", "lbm", config, misses_per_core=800, seed=5)
    b = run_one("silc", "lbm", config, misses_per_core=800, seed=6)
    assert a.elapsed_cycles != b.elapsed_cycles


def test_reference_mode_runs_through_hierarchy(config):
    result = run_one("silc", "omnetpp", config, misses_per_core=300,
                     mode="reference")
    assert result.elapsed_cycles > 0
    # the hierarchy absorbed re-references: accesses > misses
    total_accesses = sum(c.accesses for c in result.core_stats)
    total_misses = sum(c.misses_issued for c in result.core_stats)
    assert total_accesses > total_misses


def test_unknown_scheme_rejected(config):
    with pytest.raises(KeyError):
        run_one("nosuch", "mcf", config)


def test_unknown_workload_rejected(config):
    with pytest.raises(KeyError):
        run_one("silc", "quake", config)
