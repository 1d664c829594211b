"""Cross-cutting invariants checked on full system runs."""

import dataclasses

import pytest

from repro.experiments.runner import SCHEMES, run_one
from repro.sim.config import default_config


@pytest.fixture(scope="module")
def config():
    return dataclasses.replace(default_config(scale=0.5), cores=4)


@pytest.mark.parametrize("scheme_key", ["cam", "camp", "pom", "hma", "silc"])
def test_post_run_bijection(config, scheme_key):
    """After a full multi-core run, the flat space is still a bijection
    onto the storage slots (for part-of-memory schemes)."""
    from repro.cpu.system import System
    from repro.workloads.spec import workload_specs

    setup = SCHEMES[scheme_key]
    system = System(config, setup.factory, workload_specs("milc", config),
                    misses_per_core=600, alloc_policy=setup.alloc_policy)
    system.run()
    scheme = system.scheme
    seen = set()
    for sb in range(0, system.space.total_bytes, 64):
        slot = scheme.locate(sb)
        assert slot not in seen
        seen.add(slot)


@pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
def test_oracle_checked_run_is_clean(config, scheme_key):
    """Every registered scheme survives a full run with the shadow-memory
    differential oracle attached (serviced-from, Table I tags, locate
    round-trips and periodic whole-space bijection scans)."""
    checked = dataclasses.replace(config, check_interval=500)
    result = run_one(scheme_key, "milc", checked, misses_per_core=400,
                     warmup_fraction=0.0)
    # the default MSHR coalesces same-subblock reads, which never reach
    # the scheme (and so are invisible to the oracle) by design
    coalesced = int(result.extras.get("mshr_coalesced", 0.0))
    assert (result.extras["oracle_accesses_checked"] + coalesced
            == 400 * config.cores)
    assert result.extras["oracle_full_scans"] >= 1


@pytest.mark.parametrize("scheme_key", ["nonm", "cam", "pom", "silc"])
def test_conservation_of_misses(config, scheme_key):
    """Every issued miss is retired exactly once and counted once."""
    result = run_one(scheme_key, "soplex", config, misses_per_core=500,
                     warmup_fraction=0.0)
    issued = sum(c.misses_issued for c in result.core_stats)
    retired = sum(c.misses_retired for c in result.core_stats)
    assert issued == retired == 500 * config.cores
    # under the default MSHR a coalesced read retires through the
    # surviving transaction's waiter list: it consults no scheme and
    # completes no controller transaction of its own, so the exact
    # conservation law carries the coalesced count on one side
    coalesced = int(result.extras.get("mshr_coalesced", 0.0))
    assert result.scheme_stats.misses + coalesced == issued
    assert result.controller_stats.misses_completed + coalesced == issued


def test_nm_plus_fm_service_counts_add_up(config):
    result = run_one("silc", "soplex", config, misses_per_core=500,
                     warmup_fraction=0.0)
    stats = result.scheme_stats
    assert stats.nm_serviced + stats.fm_serviced == stats.misses


def test_demand_bytes_at_least_one_line_per_miss(config):
    result = run_one("silc", "soplex", config, misses_per_core=500,
                     warmup_fraction=0.0)
    total_demand = (result.controller_stats.demand_nm_bytes
                    + result.controller_stats.demand_fm_bytes)
    assert total_demand >= result.scheme_stats.misses * 64


def test_elapsed_time_monotone_in_trace_length(config):
    short = run_one("silc", "lbm", config, misses_per_core=300,
                    warmup_fraction=0.0)
    long = run_one("silc", "lbm", config, misses_per_core=900,
                   warmup_fraction=0.0)
    assert long.elapsed_cycles > short.elapsed_cycles


def test_more_nm_capacity_never_catastrophic(config):
    """Growing NM from 1/16 to 1/4 of FM must not hurt SILC-FM badly."""
    small = run_one("silc", "gcc", config.with_ratio(16), misses_per_core=600)
    big = run_one("silc", "gcc", config.with_ratio(4), misses_per_core=600)
    base_small = run_one("nonm", "gcc", config.with_ratio(16),
                         misses_per_core=600)
    base_big = run_one("nonm", "gcc", config.with_ratio(4),
                       misses_per_core=600)
    speedup_small = small.speedup_over(base_small)
    speedup_big = big.speedup_over(base_big)
    assert speedup_big > speedup_small * 0.8
