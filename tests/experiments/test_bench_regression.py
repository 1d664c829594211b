"""Tests for scripts/check_bench_regression.py (the CI bench gate)."""

import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from check_bench_regression import main  # noqa: E402


def _payload(rates, total, tails=None, fom=None):
    cells = []
    for (key, wl), rate in rates.items():
        cell = {"key": key, "scheme": key.split("-")[0], "workload": wl,
                "accesses_per_sec": rate}
        if tails and (key, wl) in tails:
            cell["p95_latency"], cell["p99_latency"] = tails[(key, wl)]
        cells.append(cell)
    payload = {
        "cells": cells,
        "throughput": {"accesses_per_sec": total},
    }
    if fom is not None:
        payload["figures_of_merit"] = {"speedup_over_nonm": fom}
    return payload


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {("nonm", "mcf"): 20000.0, ("silc", "mcf"): 10000.0}


def test_passes_within_threshold(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 16000.0, ("silc", "mcf"): 9000.0}, 12000.0))
    assert main([base, cur]) == 0
    assert "OK" in capsys.readouterr().out


def test_fails_on_per_cell_regression(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 20000.0, ("silc", "mcf"): 5000.0}, 14000.0))
    assert main([base, cur]) == 1
    assert "silc/mcf" in capsys.readouterr().err


def test_fails_on_total_regression(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    # both cells just inside the per-cell threshold, total just outside
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 15200.0, ("silc", "mcf"): 7600.0}, 11000.0))
    assert main([base, cur]) == 1
    assert "total" in capsys.readouterr().err


def test_new_and_missing_cells_are_notes_not_failures(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 20000.0, ("silc-mshr32", "mcf"): 9000.0}, 15000.0))
    assert main([base, cur]) == 0
    out = capsys.readouterr().out
    assert "missing from current run" in out
    assert "new cell silc-mshr32/mcf" in out


def test_threshold_validation(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    with pytest.raises(SystemExit):
        main([base, base, "--threshold", "1.5"])


def test_tighter_threshold_trips(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 17000.0, ("silc", "mcf"): 8500.0}, 12750.0))
    assert main([base, cur]) == 0          # 15% drop, default 25% gate
    assert main([base, cur, "--threshold", "0.1"]) == 1


# ----------------------------------------------------------------------
# tail-latency gate (schema v3)
# ----------------------------------------------------------------------
TAILS = {("nonm", "mcf"): (2000.0, 2600.0), ("silc", "mcf"): (2200.0, 3500.0)}


def test_tails_within_gate_pass(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("nonm", "mcf"): (2100.0, 2650.0),   # +5%, +2%
        ("silc", "mcf"): (2200.0, 3500.0),
    }))
    assert main([base, cur]) == 0
    assert "tails within 10%" in capsys.readouterr().out


def test_tail_growth_past_gate_fails(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("nonm", "mcf"): (2000.0, 2600.0),
        ("silc", "mcf"): (2200.0, 4200.0),   # p99 +20%
    }))
    assert main([base, cur]) == 1
    captured = capsys.readouterr()
    assert "TAIL REGRESSION" in captured.out
    assert "silc/mcf:p99_latency" in captured.err


def test_tail_improvement_always_passes(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        key: (p95 / 2, p99 / 2) for key, (p95, p99) in TAILS.items()
    }))
    assert main([base, cur]) == 0


def test_pre_v3_baseline_skips_tail_gate(tmp_path, capsys):
    """A baseline without tail fields (or with nulls) gates nothing —
    upgrading the baseline turns the check on."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("silc", "mcf"): (9999.0, 99999.0)}))
    assert main([base, cur]) == 0
    null_base = _write(tmp_path, "nulls.json", _payload(BASE, 15000.0, {
        ("silc", "mcf"): (None, None)}))
    assert main([null_base, cur]) == 0


def test_tailless_current_run_skips_tail_gate(tmp_path, capsys):
    """A v4 quick run measures no tails at all (span sampling off); the
    gate must not read the missing columns as overflow against a
    tail-carrying baseline."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0))
    assert main([base, cur]) == 0
    assert "tail gate skipped" in capsys.readouterr().out


def test_current_overflow_against_finite_baseline_fails(tmp_path, capsys):
    """Baseline measured a finite p99 but the current run overflowed the
    histogram: that is a tail blow-up, not missing data."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("silc", "mcf"): (2200.0, None)}))
    assert main([base, cur]) == 1
    assert "overflow" in capsys.readouterr().out


def test_pre_v4_baseline_skips_batched_gate(tmp_path, capsys):
    """Schema v8 retired the batched-twin columns: a baseline of any
    older schema — pre-v4 without them, v4 to v7 with them — is gated on
    the columns both schemas share and on nothing batched, even when
    its batched figures are far above the v8 run's throughput."""
    v7_payload = _payload(BASE, 15000.0)
    for cell in v7_payload["cells"]:
        cell["batched_accesses_per_sec"] = 10 * cell["accesses_per_sec"]
    v7_payload["throughput"]["batched_accesses_per_sec"] = 150000.0
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0))
    for name, payload in (("pre-v4.json", _payload(BASE, 15000.0)),
                          ("v7.json", v7_payload)):
        assert main([_write(tmp_path, name, payload), cur]) == 0
        assert "batched" not in capsys.readouterr().out


def test_pre_v7_baselines_skip_curve_gate(tmp_path, capsys):
    """Likewise the v7 closed-form speedup curve: a baseline carrying
    one gates nothing against a v8 run, which has none."""
    v7_payload = _payload(BASE, 15000.0)
    v7_payload["batch_curve"] = {
        "workloads": ["mcf"],
        "points": [{"window": window, "wall_seconds": 1.0,
                    "speedup": speedup}
                   for window, speedup in ((0, 1.0), (256, 1.6))],
    }
    base = _write(tmp_path, "v7.json", v7_payload)
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0))
    assert main([base, cur]) == 0
    assert "curve" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# MSHR dominance figure-of-merit gate (schema v5)
# ----------------------------------------------------------------------
def test_mshr_dominance_gate_passes_when_default_wins(tmp_path, capsys):
    """The gate reads the *current* run's figures of merit: silc with the
    default MSHR must hold a speedup geomean >= compat-mode silc's."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.70, "geomean": 1.70},
        "silc-compat": {"mcf": 1.69, "geomean": 1.69},
    }))
    assert main([base, cur]) == 0
    assert "default-MSHR 1.7000 vs compat 1.6900" in capsys.readouterr().out


def test_mshr_dominance_gate_fails_when_compat_wins(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.60, "geomean": 1.60},
        "silc-compat": {"mcf": 1.69, "geomean": 1.69},
    }))
    assert main([base, cur]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    assert "fom:mshr-dominance" in captured.err


def test_pre_v5_payload_skips_mshr_dominance_gate(tmp_path, capsys):
    """Payloads without silc/silc-compat figures (older suites, partial
    reruns) skip the gate with a note instead of failing."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.60, "geomean": 1.60}}))
    assert main([base, cur]) == 0
    assert "MSHR dominance gate skipped" in capsys.readouterr().out


def test_mshr_dominance_ignores_baseline_figures(tmp_path):
    """Dominance is a property of the current run alone — a baseline
    where compat won must not mask (or cause) a failure."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.50, "geomean": 1.50},
        "silc-compat": {"mcf": 1.80, "geomean": 1.80},
    }))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.70, "geomean": 1.70},
        "silc-compat": {"mcf": 1.69, "geomean": 1.69},
    }))
    assert main([base, cur]) == 0


def test_tail_threshold_flag(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("nonm", "mcf"): TAILS[("nonm", "mcf")],
        ("silc", "mcf"): (2330.0, 3700.0)}))  # ~6% growth
    assert main([base, cur]) == 0
    assert main([base, cur, "--tail-threshold", "0.05"]) == 1
    with pytest.raises(SystemExit):
        main([base, cur, "--tail-threshold", "0"])
