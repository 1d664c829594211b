"""Tests for the energy/EDP model."""

import pytest

from repro.energy.model import DDR3_ENERGY, HBM_ENERGY, EnergyModel


def test_nm_access_energy_cheaper_per_byte():
    assert HBM_ENERGY.access_pj_per_bit < DDR3_ENERGY.access_pj_per_bit


def test_cycles_to_seconds():
    model = EnergyModel()
    assert model.cycles_to_seconds(3.2e9) == pytest.approx(1.0)


def test_breakdown_components():
    model = EnergyModel()
    b = model.breakdown(nm_bytes=10 ** 6, fm_bytes=10 ** 6,
                        elapsed_cycles=3.2e9)
    # same bytes: FM access energy must exceed NM access energy
    assert b.fm_access_joules > b.nm_access_joules
    assert b.nm_background_joules == pytest.approx(HBM_ENERGY.background_watts)
    assert b.fm_background_joules == pytest.approx(DDR3_ENERGY.background_watts)
    assert b.total_joules == pytest.approx(
        b.nm_access_joules + b.fm_access_joules
        + b.nm_background_joules + b.fm_background_joules)


def test_access_energy_scales_linearly():
    model = EnergyModel()
    b1 = model.breakdown(1000, 0, 1e6)
    b2 = model.breakdown(2000, 0, 1e6)
    assert b2.nm_access_joules == pytest.approx(2 * b1.nm_access_joules)


def test_edp_penalises_slow_runs_quadratically():
    model = EnergyModel()
    # same traffic, double the time: background energy doubles and delay
    # doubles, so EDP grows more than 2x
    fast = model.edp(10 ** 6, 10 ** 6, 1e9)
    slow = model.edp(10 ** 6, 10 ** 6, 2e9)
    assert slow > 2 * fast


def test_moving_traffic_to_nm_reduces_energy():
    model = EnergyModel()
    all_fm = model.breakdown(0, 10 ** 7, 1e9).total_joules
    mostly_nm = model.breakdown(8 * 10 ** 6, 2 * 10 ** 6, 1e9).total_joules
    assert mostly_nm < all_fm
