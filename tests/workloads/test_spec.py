"""Tests for the Table III benchmark presets."""

import pytest

from repro.sim.config import default_config
from repro.workloads.spec import (
    BENCHMARKS,
    HIGH_MPKI,
    LOW_MPKI,
    MEDIUM_MPKI,
    benchmark_spec,
    per_core_spec,
)


def test_fourteen_benchmarks():
    assert len(BENCHMARKS) == 14
    assert set(BENCHMARKS) == set(LOW_MPKI) | set(MEDIUM_MPKI) | set(HIGH_MPKI)


def test_mpki_categories_match_table3_boundaries():
    cfg = default_config()
    for name in LOW_MPKI:
        assert benchmark_spec(name, cfg).mpki < 11
    for name in MEDIUM_MPKI:
        assert 11 <= benchmark_spec(name, cfg).mpki <= 32
    for name in HIGH_MPKI:
        assert benchmark_spec(name, cfg).mpki > 32


def test_mcf_has_largest_footprint():
    cfg = default_config()
    footprints = {n: benchmark_spec(n, cfg).footprint_pages for n in BENCHMARKS}
    assert max(footprints, key=footprints.get) == "mcf"


def test_footprints_scale_with_capacity():
    small = default_config()
    big = small.with_ratio(4)  # same; use explicit larger config instead
    import dataclasses

    big = dataclasses.replace(small, nm_bytes=small.nm_bytes * 2,
                              fm_bytes=small.fm_bytes * 2)
    for name in BENCHMARKS:
        assert benchmark_spec(name, big).footprint_pages == pytest.approx(
            2 * benchmark_spec(name, small).footprint_pages, rel=0.01)


def test_per_core_spec_divides_by_cores():
    cfg = default_config()
    total = benchmark_spec("mcf", cfg).footprint_pages
    per_core = per_core_spec("mcf", cfg).footprint_pages
    assert per_core == total // cfg.cores


def test_total_footprint_fits_flat_capacity():
    """Rate-mode totals must fit in NM+FM or allocation would fail."""
    cfg = default_config()
    for name in BENCHMARKS:
        per_core = per_core_spec(name, cfg)
        assert per_core.footprint_pages * cfg.cores <= cfg.total_bytes // 2048


def test_unknown_benchmark_rejected():
    with pytest.raises(KeyError):
        benchmark_spec("quake", default_config())


def test_personalities_follow_the_papers_characterisation():
    cfg = default_config()
    specs = {n: benchmark_spec(n, cfg) for n in BENCHMARKS}
    # gemsFDTD is the phase-churn workload (short-lived hot pages)
    assert specs["gemsFDTD"].phase_misses is not None
    # streaming workloads have high spatial locality
    assert specs["lbm"].spatial_run >= 12
    assert specs["libquantum"].spatial_run >= 12
    # pointer chasers have low spatial locality
    assert specs["mcf"].spatial_run <= 4
    assert specs["omnetpp"].spatial_run <= 4
    # xalancbmk's skew is the strongest (locking's showcase)
    assert specs["xalancbmk"].hot_weight == max(
        s.hot_weight for s in specs.values())
    # gcc has many lukewarm pages (associativity's showcase): a wide
    # hot set accessed with low weight
    assert specs["gcc"].hot_fraction >= 0.25
    assert specs["gcc"].hot_weight <= 0.65
