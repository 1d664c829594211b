"""Tests for the Table II configuration."""

import dataclasses

import pytest

from repro.sim.config import (
    BLOCK_BYTES,
    SUBBLOCK_BYTES,
    SUBBLOCKS_PER_BLOCK,
    SystemConfig,
    default_config,
    paper_config,
)
from repro.sim.engine import CPU_GHZ


def test_block_geometry_matches_paper():
    assert SUBBLOCK_BYTES == 64
    assert BLOCK_BYTES == 2048
    assert SUBBLOCKS_PER_BLOCK == 32


def test_default_ratio_is_4_to_1():
    cfg = default_config()
    assert cfg.fm_to_nm_ratio == 4
    assert cfg.total_bytes == cfg.nm_bytes + cfg.fm_bytes


def test_paper_config_capacities():
    cfg = paper_config()
    assert cfg.nm_bytes == 4 * 1024**3
    assert cfg.fm_bytes == 16 * 1024**3


def test_bandwidth_ratio_is_4_to_1():
    cfg = default_config()
    assert cfg.nm_timings.peak_bandwidth_gbs() == pytest.approx(
        4 * cfg.fm_timings.peak_bandwidth_gbs())


def test_with_ratio_sweeps_nm_capacity():
    cfg = default_config()
    for ratio in (16, 8, 4):
        swept = cfg.with_ratio(ratio)
        assert swept.fm_bytes == cfg.fm_bytes
        assert swept.fm_bytes // swept.nm_bytes == ratio


def test_with_silcfm_overrides_only_silcfm():
    cfg = default_config()
    changed = cfg.with_silcfm(associativity=2, enable_bypass=False)
    assert changed.silcfm.associativity == 2
    assert not changed.silcfm.enable_bypass
    assert cfg.silcfm.associativity == 4  # original untouched
    assert changed.nm_bytes == cfg.nm_bytes


def test_invalid_capacities_rejected():
    with pytest.raises(ValueError):
        SystemConfig(nm_bytes=2048 + 7, fm_bytes=4 * 2048)
    with pytest.raises(ValueError):
        SystemConfig(nm_bytes=8 * 2048, fm_bytes=4 * 2048)
    for empty in (0, -2048):  # default_config(1e-4) rounds NM down to 0
        with pytest.raises(ValueError, match="nm_bytes must be positive"):
            SystemConfig(nm_bytes=empty, fm_bytes=4 * 2048)


def test_explicit_scale_beats_repro_scale(monkeypatch):
    """``REPRO_SCALE`` only supplies the default: an explicit scale (the
    CLI's ``--scale``) wins over it."""
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    quarter = default_config(0.25).nm_bytes
    half = default_config(0.5).nm_bytes
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert default_config(0.25).nm_bytes == quarter == 1024 * 1024
    assert default_config().nm_bytes == half == 2 * 1024 * 1024


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "big"])
def test_bad_repro_scale_names_its_source(value, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", value)
    with pytest.raises(ValueError, match="REPRO_SCALE"):
        default_config()


@pytest.mark.parametrize("scale", [float("inf"), float("nan"), 0.0, -1.0])
def test_bad_explicit_scale_names_its_source(scale, monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    with pytest.raises(ValueError, match="^scale must be"):
        default_config(scale)


def test_table2_core_parameters():
    cfg = default_config()
    assert cfg.core.issue_width == 4
    assert cfg.core.rob_entries == 128
    assert CPU_GHZ == 3.2
    assert cfg.cores == 16


def test_table2_dram_parameters():
    cfg = default_config()
    assert cfg.nm_timings.channels == 8
    assert cfg.nm_timings.bus_bits == 128
    assert cfg.fm_timings.channels == 4
    assert cfg.fm_timings.bus_bits == 64
    # rows are scaled alongside capacity (paper: 8 KB rows over GBs;
    # simulation: 1 KB rows over MBs — same rows-per-bank regime)
    assert cfg.nm_timings.row_bytes == 1024
    assert cfg.fm_timings.row_bytes == 1024
    assert cfg.nm_timings.banks == 16  # HBM2 has 16 banks per channel
    assert cfg.fm_timings.banks == 8
    assert cfg.nm_timings.bus_mhz == 800.0


def test_silcfm_defaults_match_paper():
    silc = default_config().silcfm
    assert silc.associativity == 4
    assert silc.hot_threshold == 50
    # the paper's aging period is one million accesses; the simulated
    # period is scaled down with trace length but must stay positive
    # and large relative to the access-rate window
    assert 0 < silc.aging_period_accesses <= 1_000_000
    assert silc.aging_period_accesses > silc.access_rate_window
    assert silc.predictor_entries == 4096
    assert silc.bypass_target_access_rate == pytest.approx(0.8)


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.nm_bytes = 123
