"""Tests for heterogeneous workload mixes: a mix is a workload name that
``run_one``, every executor ``Cell``, the result cache and the worker
pool accept like any Table III benchmark."""

import dataclasses
import json

import pytest

from repro.experiments.executor import Cell, ExperimentExecutor
from repro.experiments.runner import run_one
from repro.sim.config import default_config
from repro.workloads.spec import BENCHMARKS, MIXES, workload_specs


@pytest.fixture(scope="module")
def config():
    return dataclasses.replace(default_config(scale=0.5), cores=4)


def test_mix_workload_specs_cycle_over_members(config):
    specs = workload_specs("mix-blend", config)
    assert len(specs) == config.cores
    names = [s.name for s in specs]
    assert names == [MIXES["mix-blend"][core] for core in range(config.cores)]
    assert len(set(names)) > 1  # genuinely heterogeneous


def test_benchmark_workload_specs_repeat_one_spec(config):
    specs = workload_specs("mcf", config)
    assert len(specs) == config.cores
    assert {s.name for s in specs} == {"mcf"}


def test_mix_high_is_all_high_mpki(config):
    specs = workload_specs("mix-high", config)
    assert all(s.category == "high" for s in specs)


def test_unknown_mix_rejected(config):
    with pytest.raises(KeyError):
        workload_specs("mix-bogus", config)
    with pytest.raises(KeyError):
        run_one("silc", "mix-bogus", config)


def test_unknown_workload_error_names_benchmarks_and_mixes(config):
    with pytest.raises(KeyError) as info:
        workload_specs("quake", config)
    message = str(info.value)
    assert "'quake'" in message
    assert all(name in message for name in BENCHMARKS)
    assert all(name in message for name in MIXES)


def test_unknown_scheme_rejected(config):
    with pytest.raises(KeyError):
        run_one("bogus", "mix-high", config)


def test_mix_blend_runs_through_run_one(config):
    result = run_one("silc", "mix-blend", config, misses_per_core=600)
    assert result.elapsed_cycles > 0
    assert result.workload_name == "mix-blend"
    assert 0.0 < result.access_rate < 1.0


def test_silc_beats_baseline_on_mix_high(config):
    baseline = run_one("nonm", "mix-high", config, misses_per_core=800)
    silc = run_one("silc", "mix-high", config, misses_per_core=800)
    assert silc.speedup_over(baseline) > 1.0


def test_all_predefined_mixes_runnable(config):
    for name in MIXES:
        result = run_one("cam", name, config, misses_per_core=300)
        assert result.elapsed_cycles > 0


def test_mix_cell_through_pool_and_cache_matches_run_one(tmp_path):
    """A mix cell simulated in a pool worker, stored in the result cache
    and loaded back has the bytes of an in-process ``run_one``."""
    config = dataclasses.replace(default_config(scale=0.25), cores=2)
    cell = Cell("cam", "mix-blend", config, misses_per_core=200)
    other = Cell("nonm", "mix-blend", config, misses_per_core=200)

    def canonical(result):
        return json.dumps(result.to_dict(), sort_keys=True)

    pooled = ExperimentExecutor(jobs=2, cache_dir=tmp_path).run_cells(
        [cell, other], strict=True)[cell]
    direct = run_one("cam", "mix-blend", config, misses_per_core=200)
    assert direct.workload_name == "mix-blend"
    assert canonical(pooled) == canonical(direct)
    resumed = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
    assert canonical(resumed.run_cell(cell)) == canonical(direct)
    assert resumed.last_progress.cache_hits == 1
