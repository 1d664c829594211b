"""Oracle-checked runs with MSHR coalescing enabled.

The shadow-memory differential oracle validates every scheme's metadata
and the bijection invariant while misses coalesce in the MSHR file —
the acceptance gate for the transaction-pipeline refactor: coalescing
must not let two same-subblock misses observe inconsistent remap state.
"""

import dataclasses

import pytest

from repro.experiments.runner import run_one
from repro.sim.config import default_config

SCHEMES = ["nonm", "silc", "cam", "pom", "hma"]


def _checked_config(mshr_entries):
    return dataclasses.replace(
        default_config(scale=0.25),
        mshr_entries=mshr_entries,
        check_interval=100,
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_oracle_passes_with_coalescing(scheme):
    result = run_one(scheme, "mcf", _checked_config(8),
                     misses_per_core=200, seed=5)
    assert result.extras["oracle_accesses_checked"] > 0
    assert result.extras["mshr_allocations"] > 0


@pytest.mark.parametrize("entries", [1, 8, 32])
def test_oracle_passes_across_mshr_sweep(entries):
    """The bijection invariant holds at every MSHR size: heavy
    structural stalling (1 entry) through effectively-unbounded
    coalescing (32 entries)."""
    result = run_one("silc", "mcf", _checked_config(entries),
                     misses_per_core=200, seed=5)
    assert result.extras["oracle_accesses_checked"] > 0
    assert result.extras["mshr_peak_occupancy"] <= entries


# ----------------------------------------------------------------------
# the silc-mshr32 anomaly knee (postmortem in docs/architecture.md)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["silc", "nonm"])
def test_mshr_sweep_speedup_is_monotone(scheme):
    """Postmortem regression: elapsed time falls monotonically as the
    MSHR file grows through the knee.  The silc-mshr32 anomaly was a
    structural concurrency cap — any file smaller than the aggregate
    MLP (cores × per-core outstanding misses) serializes independent
    misses behind ``structural_stalls``, and no dispatch or coalescing
    policy can tune that away.  A non-monotonic point here means a
    timing bug crept back into the admission/drain path."""
    elapsed = []
    for entries in (1, 2, 4, 8, 16, 32):
        result = run_one(scheme, "mcf", _checked_config(entries),
                         misses_per_core=200, seed=5)
        assert result.extras["oracle_accesses_checked"] > 0
        elapsed.append((entries, result.elapsed_cycles))
    for (e_small, t_small), (e_big, t_big) in zip(elapsed, elapsed[1:]):
        assert t_big < t_small, (
            f"{scheme}: elapsed rose from {t_small} at {e_small} "
            f"entries to {t_big} at {e_big} — the MSHR sweep must be "
            "monotone (see the silc-mshr32 postmortem)")


@pytest.mark.parametrize("scheme, scale, misses, seed, check_interval", [
    pytest.param("silc", 0.25, 200, 5, 100, id="silc"),
    pytest.param("nonm", 0.25, 200, 5, 100, id="nonm"),
    # default scale, no oracle: 99,658.25 vs 100,521.25 cycles
    pytest.param("silc", None, 1500, 1234, 0, id="silc-default-scale"),
])
def test_default_mshr_dominates_compat(scheme, scale, misses, seed,
                                       check_interval):
    """The flip gate: the default (nonzero) MSHR file must be at least
    as fast as the compat file it replaced — sized to the
    aggregate MLP and coalescing reads only, the pipeline is a pure
    win, not a modeling tax.  Checked oracle-on at scale 0.25 and
    oracle-off on silc/mcf at the default scale."""
    config = dataclasses.replace(
        default_config() if scale is None else default_config(scale=scale),
        check_interval=check_interval)
    default = run_one(scheme, "mcf", config,
                      misses_per_core=misses, seed=seed)
    compat = run_one(scheme, "mcf",
                     dataclasses.replace(config, mshr_entries=0),
                     misses_per_core=misses, seed=seed)
    if check_interval:
        assert default.extras["oracle_accesses_checked"] > 0
    assert "mshr_allocations" not in compat.extras  # truly MSHR-free
    assert default.elapsed_cycles <= compat.elapsed_cycles, (
        f"{scheme}: default MSHR mode ({default.elapsed_cycles}) lost "
        f"to compat mode ({compat.elapsed_cycles})")
