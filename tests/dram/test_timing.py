"""Tests for DRAM timing parameters."""

import pytest

from repro.dram.timing import DDR3_TIMINGS, HBM2_TIMINGS, DRAMTimings


def test_nm_fm_bandwidth_ratio_is_4_to_1():
    assert HBM2_TIMINGS.peak_bandwidth_gbs() == pytest.approx(
        4 * DDR3_TIMINGS.peak_bandwidth_gbs())


def test_hbm_peak_bandwidth():
    # 8 channels x 128 bit x 1.6 GT/s = 204.8 GB/s
    assert HBM2_TIMINGS.peak_bandwidth_gbs() == pytest.approx(204.8)


def test_ddr3_peak_bandwidth():
    # 4 channels x 64 bit x 1.6 GT/s = 51.2 GB/s
    assert DDR3_TIMINGS.peak_bandwidth_gbs() == pytest.approx(51.2)


def test_cpu_cycles_per_mem_cycle():
    # 3.2 GHz CPU over 800 MHz bus = 4 CPU cycles per memory cycle
    assert HBM2_TIMINGS.cpu_cycles_per_mem == pytest.approx(4.0)
    assert DDR3_TIMINGS.cpu_cycles_per_mem == pytest.approx(4.0)


def _row_hit_closed_conflict_cycles(t):
    """CPU cycles to the data of a row hit, a closed row and a conflict."""
    cpm = t.cpu_cycles_per_mem
    return (t.t_cas * cpm, (t.t_rcd + t.t_cas) * cpm,
            (t.t_rp + t.t_rcd + t.t_cas) * cpm)


def test_hbm_latency_slightly_lower_than_ddr3():
    hbm_hit, _, hbm_conflict = _row_hit_closed_conflict_cycles(HBM2_TIMINGS)
    ddr_hit, _, ddr_conflict = _row_hit_closed_conflict_cycles(DDR3_TIMINGS)
    assert hbm_hit < ddr_hit
    assert hbm_conflict < ddr_conflict


def test_latency_ordering_hit_closed_conflict():
    for t in (HBM2_TIMINGS, DDR3_TIMINGS):
        hit, closed, conflict = _row_hit_closed_conflict_cycles(t)
        assert hit < closed < conflict


def test_burst_cycles_scale_with_size():
    # 128-bit DDR bus moves 32 B per memory cycle
    assert HBM2_TIMINGS.burst_mem_cycles(64) == pytest.approx(2.0)
    assert HBM2_TIMINGS.burst_mem_cycles(2048) == pytest.approx(64.0)
    # 64-bit DDR bus moves 16 B per memory cycle
    assert DDR3_TIMINGS.burst_mem_cycles(64) == pytest.approx(4.0)


def test_tiny_transfer_occupies_at_least_one_beat():
    assert HBM2_TIMINGS.burst_mem_cycles(8) == 1.0


def test_banks_counts_ranks():
    t = DRAMTimings(name="x", ranks_per_channel=2, banks_per_rank=8)
    assert t.banks == 16


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        DRAMTimings(name="bad", bus_bits=31)
    with pytest.raises(ValueError):
        DRAMTimings(name="bad", channels=0)
