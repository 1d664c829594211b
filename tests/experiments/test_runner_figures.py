"""Tests for the experiment runner and figure functions (small scale)."""

import dataclasses

import pytest

from repro.experiments import executor as executor_mod
from repro.experiments.executor import ExecutorError
from repro.experiments.figures import (
    FIG6_STAGES,
    FIG7_SCHEMES,
    FIG9_RATIOS,
    FIG9_SCHEMES,
    fig7_comparison,
    fig8_bandwidth_split,
    fig9_capacity_sweep,
    table1_operations,
    table2_parameters,
    table3_measured,
)
from repro.experiments.runner import SCHEMES, run_one
from repro.sim.config import default_config


@pytest.fixture(scope="module")
def config():
    return dataclasses.replace(default_config(scale=0.5), cores=4)


def test_scheme_registry_covers_paper():
    for key in ("nonm", "rand", "hma", "cam", "camp", "pom", "silc"):
        assert key in SCHEMES
    for stage in FIG6_STAGES:
        assert stage in SCHEMES
    assert set(FIG7_SCHEMES) <= set(SCHEMES)


def test_fig6_stage_configs_are_cumulative():
    """Each Fig. 6 stage must enable a superset of the previous one."""
    import repro.core.silcfm as silcfm
    from repro.xmem.address import AddressSpace

    cfg = default_config()
    space = AddressSpace(cfg.nm_bytes, cfg.fm_bytes)
    swap = SCHEMES["silc-swap"].factory(space, cfg)
    lock = SCHEMES["silc-lock"].factory(space, cfg)
    assoc = SCHEMES["silc-assoc"].factory(space, cfg)
    full = SCHEMES["silc"].factory(space, cfg)
    assert not swap.config.enable_locking and swap.assoc == 1
    assert lock.config.enable_locking and lock.assoc == 1
    assert assoc.config.enable_locking and assoc.assoc == 4
    assert full.config.enable_locking and full.assoc == 4
    assert not swap.config.enable_bypass
    assert not assoc.config.enable_bypass
    assert full.config.enable_bypass


def test_static_scheme_alloc_policies():
    assert SCHEMES["nonm"].alloc_policy == "fm_only"
    assert SCHEMES["rand"].alloc_policy == "random"
    assert SCHEMES["alloy"].alloc_policy == "fm_only"


def test_run_one_respects_seed(config):
    a = run_one("cam", "lbm", config, misses_per_core=400, seed=9)
    b = run_one("cam", "lbm", config, misses_per_core=400, seed=9)
    assert a.elapsed_cycles == b.elapsed_cycles


def test_fig7_function(config):
    grid = fig7_comparison(config, misses_per_core=300,
                           workloads=["lbm", "mcf"])
    assert list(grid) == FIG7_SCHEMES
    assert all(list(row) == ["lbm", "mcf", "geomean"]
               for row in grid.values())
    assert all(v > 0 for row in grid.values() for v in row.values())


def test_failed_figure_cell_raises_naming_it(config, monkeypatch):
    def poisoned(cell):
        if cell.scheme_key == "pom":
            raise RuntimeError("planted failure")
        return run_one(cell.scheme_key, cell.workload_name, cell.config,
                       misses_per_core=cell.misses_per_core)

    monkeypatch.setattr(executor_mod, "_execute_cell", poisoned)
    with pytest.raises(ExecutorError, match=r"cell \(pom, lbm\) failed"
                                            r"(.|\n)*planted failure"):
        fig8_bandwidth_split(config, misses_per_core=100, workloads=["lbm"])


def test_fig8_function(config):
    shares = fig8_bandwidth_split(config, misses_per_core=300,
                                  workloads=["lbm"])
    assert set(shares) == set(FIG7_SCHEMES)
    assert all(0.0 <= v <= 1.0 for v in shares.values())


def test_fig9_function(config):
    sweep = fig9_capacity_sweep(config, misses_per_core=150,
                                workloads=["mcf"])
    assert set(sweep) == set(FIG9_SCHEMES)
    for per_ratio in sweep.values():
        assert list(per_ratio) == FIG9_RATIOS
        assert all(v > 0 for v in per_ratio.values())


def test_table3_function(config):
    rows = table3_measured(config, misses_per_core=200)
    assert len(rows) == 14
    for name, row in rows.items():
        assert row["measured_mpki"] > 0
        assert row["target_mpki"] > 0
        assert row["category"] in ("low", "medium", "high")
        assert isinstance(row["llc_absorbs"], bool)


def test_table1_folds_bypass_rows(config):
    counts = table1_operations(config, misses_per_core=200,
                               workloads=["mcf"])
    assert not [row for row in counts if "bypass" in row]
    assert {f"row{i}" for i in range(1, 6)} <= set(counts)
    assert sum(counts.values()) > 0


def test_table2_reads_the_simulated_caches():
    params = table2_parameters(default_config())
    assert params["L1I / L1D / L2"] == ("64 KiB / 16 KiB / 8 MiB",
                                        "64 KiB / 16 KiB / 64 KiB")
    assert params["cores"] == ("16", "16")
    assert params["NM / FM capacity"] == ("4 GiB / 16 GiB", "8 MiB / 32 MiB")
