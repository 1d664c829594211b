"""Tests for the parallel, resumable experiment executor."""

import dataclasses
import json

import pytest

from repro.cpu.system import RunResult
from repro.experiments.executor import (
    CACHE_SCHEMA_VERSION,
    Cell,
    ExecutorError,
    ExperimentExecutor,
    Progress,
    ResultCache,
)
from repro.experiments.runner import run_one
from repro.sim.config import default_config

MISSES = 200


@pytest.fixture(scope="module")
def config():
    return dataclasses.replace(default_config(scale=0.25), cores=2)


def make_cell(config, scheme="silc", workload="mcf", **overrides):
    kwargs = dict(misses_per_core=MISSES)
    kwargs.update(overrides)
    return Cell(scheme, workload, config, **kwargs)


# ---------------------------------------------------------------------------
# telemetry in the result cache
# ---------------------------------------------------------------------------
def test_telemetry_window_changes_cell_key(config):
    base = make_cell(config)
    enabled = make_cell(
        dataclasses.replace(config, telemetry_window=5000))
    assert enabled.key() != base.key()


def test_telemetry_result_is_one_cache_file(tmp_path, config):
    enabled = dataclasses.replace(config, telemetry_window=2000)
    result = run_one("silc", "mcf", enabled, misses_per_core=MISSES)
    assert result.telemetry is not None
    cache = ResultCache(tmp_path)
    cell = make_cell(enabled)
    key = cell.key()
    assert cache.store(key, result, cell) == tmp_path / f"{key}.json"
    # the snapshot rides inside the entry: no side files, no subdirectory
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    assert cache.load(key).telemetry == result.telemetry


# ---------------------------------------------------------------------------
# cell keys
# ---------------------------------------------------------------------------
def test_cell_key_is_stable_and_content_addressed(config):
    a = make_cell(config)
    b = make_cell(config)
    assert a.key() == b.key()
    # a key is a hex SHA-256 digest
    assert len(a.key()) == 64
    int(a.key(), 16)


def test_cell_key_changes_with_any_input(config):
    base = make_cell(config)
    assert make_cell(config, scheme="cam").key() != base.key()
    assert make_cell(config, workload="milc").key() != base.key()
    assert make_cell(config, misses_per_core=MISSES + 1).key() != base.key()
    assert make_cell(config, seed=7).key() != base.key()
    assert make_cell(config, mode="reference").key() != base.key()
    assert make_cell(config, warmup_fraction=0.0).key() != base.key()
    varied = config.with_silcfm(hot_threshold=3)
    assert make_cell(varied).key() != base.key()
    # the MSHR default flip must not collide with cached compat cells:
    # mshr_entries is part of the config digest like every other knob
    compat = dataclasses.replace(config, mshr_entries=0)
    assert make_cell(compat).key() != base.key()


# ---------------------------------------------------------------------------
# RunResult JSON round-trip
# ---------------------------------------------------------------------------
def test_run_result_round_trips_through_json(config):
    result = run_one("silc", "mcf", config, misses_per_core=MISSES)
    clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert clone == result
    assert clone.speedup_over(result) == 1.0
    assert clone.nm_demand_fraction == result.nm_demand_fraction


# ---------------------------------------------------------------------------
# on-disk cache: hit / miss / force
# ---------------------------------------------------------------------------
def test_cache_miss_then_hit(tmp_path, config):
    cell = make_cell(config)
    executor = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
    first = executor.run_cell(cell)
    assert executor.last_progress.simulated == 1

    resumed = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
    second = resumed.run_cell(cell)
    assert resumed.last_progress.cache_hits == 1
    assert resumed.last_progress.simulated == 0
    assert second == first


def test_rerunning_a_sweep_hits_cache_with_zero_resimulated(tmp_path, config):
    """The acceptance scenario: a Fig. 7-style sweep run twice in a row
    must re-simulate nothing on the second run."""
    schemes = ["nonm", "rand", "silc"]
    workloads = ["mcf", "milc"]
    cells = [make_cell(config, scheme=s, workload=w)
             for s in schemes for w in workloads]

    first = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
    before = first.run_cells(cells)
    assert first.last_progress.simulated == len(cells)

    second = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
    after = second.run_cells(cells)
    assert second.last_progress.simulated == 0
    assert second.last_progress.cache_hits == len(cells)
    assert after == before


def test_force_invalidates_and_overwrites(tmp_path, config):
    cell = make_cell(config)
    cache = ResultCache(tmp_path)
    ExperimentExecutor(jobs=1, cache_dir=tmp_path).run_cell(cell)
    # poison the stored entry, then force: the poison must be replaced
    poisoned = json.loads(cache.path(cell.key()).read_text())
    poisoned["result"]["elapsed_cycles"] = -1.0
    cache.path(cell.key()).write_text(json.dumps(poisoned))

    forced = ExperimentExecutor(jobs=1, cache_dir=tmp_path, force=True)
    result = forced.run_cell(cell)
    assert forced.last_progress.simulated == 1
    assert result.elapsed_cycles > 0
    stored = json.loads(cache.path(cell.key()).read_text())
    assert stored["result"]["elapsed_cycles"] == result.elapsed_cycles


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path, config):
    cell = make_cell(config)
    cache = ResultCache(tmp_path)
    cache.root.mkdir(parents=True, exist_ok=True)
    cache.path(cell.key()).write_text("{not json")
    executor = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
    result = executor.run_cell(cell)
    assert executor.last_progress.simulated == 1
    assert result.elapsed_cycles > 0


def test_stale_schema_version_is_a_miss(tmp_path, config):
    cell = make_cell(config)
    executor = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
    executor.run_cell(cell)
    cache = ResultCache(tmp_path)
    data = json.loads(cache.path(cell.key()).read_text())
    data["schema"] = CACHE_SCHEMA_VERSION + 1
    cache.path(cell.key()).write_text(json.dumps(data))
    assert cache.load(cell.key()) is None


def test_executor_stores_one_file_per_cell(tmp_path, config):
    cells = [make_cell(config, scheme=s) for s in ("nonm", "rand")]
    ExperimentExecutor(jobs=1, cache_dir=tmp_path).run_cells(cells)
    assert (sorted(p.name for p in tmp_path.iterdir())
            == sorted(f"{cell.key()}.json" for cell in cells))


# ---------------------------------------------------------------------------
# worker-failure isolation
# ---------------------------------------------------------------------------
def test_poisoned_cell_does_not_kill_the_sweep(config):
    good = make_cell(config, scheme="nonm")
    bad = Cell("no-such-scheme", "mcf", config, misses_per_core=MISSES)
    executor = ExperimentExecutor(jobs=1)
    results = executor.run_cells([bad, good])
    assert good in results
    assert bad not in results
    assert len(executor.failures) == 1
    failure = executor.failures[0]
    assert failure.cell == bad
    assert "no-such-scheme" in failure.error
    assert "KeyError" in failure.error


def test_poisoned_cell_isolated_under_parallel_workers(config):
    cells = [Cell("no-such-scheme", "mcf", config, misses_per_core=MISSES),
             make_cell(config, scheme="nonm"),
             make_cell(config, scheme="rand")]
    executor = ExperimentExecutor(jobs=2)
    results = executor.run_cells(cells)
    assert len(results) == 2
    assert len(executor.failures) == 1
    assert executor.last_progress.failed == 1


def test_run_cell_raises_with_traceback_on_failure(config):
    executor = ExperimentExecutor(jobs=1)
    with pytest.raises(ExecutorError, match="no-such-scheme"):
        executor.run_cell(
            Cell("no-such-scheme", "mcf", config, misses_per_core=MISSES))


# ---------------------------------------------------------------------------
# determinism: jobs=1 and jobs=4 must be bit-identical
# ---------------------------------------------------------------------------
def test_jobs_1_and_jobs_4_produce_identical_results(config):
    cells = [make_cell(config, scheme=s, workload=w)
             for s in ("nonm", "silc", "cam")
             for w in ("mcf", "milc")]
    serial = ExperimentExecutor(jobs=1).run_cells(cells)
    parallel = ExperimentExecutor(jobs=4).run_cells(cells)
    assert set(serial) == set(parallel)
    for cell in cells:
        assert serial[cell] == parallel[cell], (
            f"({cell.scheme_key}, {cell.workload_name}) diverged")


def test_executor_results_match_direct_run_one(config):
    cell = make_cell(config, scheme="pom", workload="gcc")
    via_executor = ExperimentExecutor(jobs=2).run_cell(cell)
    direct = run_one("pom", "gcc", config, misses_per_core=MISSES)
    assert via_executor == direct


# ---------------------------------------------------------------------------
# batching / dedup / progress
# ---------------------------------------------------------------------------
def test_duplicate_cells_simulate_once(config):
    cell = make_cell(config, scheme="nonm")
    executor = ExperimentExecutor(jobs=1)
    results = executor.run_cells([cell, make_cell(config, scheme="nonm")])
    assert len(results) == 1
    assert executor.last_progress.total == 1


def test_progress_callback_sees_every_cell(config):
    ticks = []
    executor = ExperimentExecutor(jobs=1, on_progress=ticks.append)
    executor.run_cells([make_cell(config, scheme=s)
                        for s in ("nonm", "rand")])
    assert len(ticks) == 2
    assert ticks[-1].completed == 2
    assert ticks[-1].cells_per_second > 0
    assert "2/2 cells" in ticks[-1].render()


def test_progress_render_flags_failures():
    progress = Progress(total=3, completed=3, failed=2, cache_hits=1)
    text = progress.render()
    assert "FAILED" in text and "cached" in text


def test_progress_rate_is_zero_at_elapsed_zero(monkeypatch):
    """A completion landing within the clock's resolution of started_at
    must not explode into a billions-of-cells/s rate (the old 1e-9
    elapsed floor turned 3 cells into 3e9 cells/s)."""
    import time as time_mod

    frozen = time_mod.monotonic()
    monkeypatch.setattr(time_mod, "monotonic", lambda: frozen)
    progress = Progress(total=4, completed=3, started_at=frozen)
    assert progress.elapsed_seconds == 0.0
    assert progress.cells_per_second == 0.0
    assert "3/4 cells" in progress.render()


def test_progress_rate_zero_before_first_completion():
    progress = Progress(total=5)
    assert progress.cells_per_second == 0.0


def test_progress_render_empty_cell_set():
    """An empty sweep (every requested cell deduplicated away, or a
    figure invoked with zero workloads) renders without a bogus rate."""
    progress = Progress(total=0)
    assert progress.render() == "0/0 cells"
    assert progress.cells_per_second == 0.0
