"""The paper's Table III workload suite as synthetic presets.

The paper runs 14 SPEC CPU2006 benchmarks in 16-copy rate mode, grouped
by LLC MPKI: low (< 11), medium (11-32), high (> 32).  We reproduce each
benchmark's *memory-level personality* — MPKI class, footprint, hot-set
skew, spatial locality, and phase behaviour — from Table III plus the
evaluation text's qualitative observations:

* ``xalancbmk``: hot pages unevenly spread over NM sets; locking adds
  ~14% (Section V-A).
* ``gcc``: many lukewarm blocks; associativity adds ~36%, locking little.
* ``gemsfdtd``: short-lived hot pages; epoch-based HMA degrades.
* ``libquantum``: conflicts hurt CAMEO; fully-associative HMA does well.
* ``milc``: thrashing conflicts; exceeds the 0.8 access-rate point, so
  bypassing/bandwidth-balancing helps.
* ``bwaves``: never reaches the 0.8 access rate (bypass is a no-op).
* ``lbm``/``leslie3d``: streaming with high spatial locality.
* ``mcf``/``omnetpp``: pointer-chasing, poor spatial locality, with mcf
  having the largest footprint in the suite.

Footprints are **total across the 16 copies**, expressed as a fraction
of the flat capacity and scaled with the configured memory size, so the
footprint:NM pressure matches the paper at any simulation scale.

Beyond the paper's rate mode, a *mix* (:data:`MIXES`) gives each core a
different benchmark, the consolidated-server case.
:func:`workload_specs` resolves either kind of name to one spec per core.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.sim.config import BLOCK_BYTES, SystemConfig
from repro.workloads.model import WorkloadSpec

#: Table III at paper scale: NM = 4 GB, FM = 16 GB, total = 20 GB.
_PAPER_TOTAL_GB = 20.0

#: name -> (mpki, total footprint in "paper GB", category)
_TABLE3: Dict[str, tuple] = {
    "bwaves": (8.0, 6.0, "low"),
    "cactusADM": (6.0, 3.0, "low"),
    "dealII": (5.0, 2.0, "low"),
    "xalancbmk": (10.0, 1.5, "low"),
    "gcc": (15.0, 3.0, "medium"),
    "gemsFDTD": (25.0, 6.0, "medium"),
    "leslie3d": (20.0, 4.0, "medium"),
    "omnetpp": (18.0, 2.0, "medium"),
    "zeusmp": (14.0, 4.0, "medium"),
    "lbm": (40.0, 6.0, "high"),
    "libquantum": (35.0, 1.0, "high"),
    "mcf": (55.0, 14.0, "high"),
    "milc": (45.0, 8.0, "high"),
    "soplex": (33.0, 5.0, "high"),
}

#: per-benchmark personality beyond MPKI/footprint
_PERSONALITY: Dict[str, dict] = {
    "bwaves": dict(spatial_run=16.0, hot_fraction=0.20, hot_weight=0.85,
                   page_density=0.9),
    "cactusADM": dict(spatial_run=6.0, hot_fraction=0.15, hot_weight=0.80,
                      page_density=0.5),
    "dealII": dict(spatial_run=6.0, hot_fraction=0.12, hot_weight=0.80,
                   page_density=0.5),
    "xalancbmk": dict(spatial_run=6.0, hot_fraction=0.05, hot_weight=0.92,
                      page_density=0.4),
    "gcc": dict(spatial_run=5.0, hot_fraction=0.30, hot_weight=0.60,
                page_density=0.45),
    "gemsFDTD": dict(spatial_run=8.0, hot_fraction=0.10, hot_weight=0.85,
                     phase_misses=20_000, phase_shift=0.6, page_density=0.6),
    "leslie3d": dict(spatial_run=12.0, hot_fraction=0.15, hot_weight=0.80,
                     page_density=0.8),
    "omnetpp": dict(spatial_run=2.5, hot_fraction=0.10, hot_weight=0.80,
                    page_density=0.25),
    "zeusmp": dict(spatial_run=8.0, hot_fraction=0.15, hot_weight=0.75,
                   page_density=0.6),
    "lbm": dict(spatial_run=16.0, hot_fraction=0.25, hot_weight=0.70,
                write_fraction=0.40, page_density=1.0),
    "libquantum": dict(spatial_run=24.0, hot_fraction=0.40, hot_weight=0.80,
                       page_density=1.0),
    "mcf": dict(spatial_run=2.0, hot_fraction=0.10, hot_weight=0.75,
                page_density=0.2),
    "milc": dict(spatial_run=4.0, hot_fraction=0.50, hot_weight=0.65,
                 page_density=0.5),
    "soplex": dict(spatial_run=5.0, hot_fraction=0.15, hot_weight=0.75,
                   page_density=0.4),
}

BENCHMARKS: List[str] = list(_TABLE3)

LOW_MPKI = [n for n, v in _TABLE3.items() if v[2] == "low"]
MEDIUM_MPKI = [n for n, v in _TABLE3.items() if v[2] == "medium"]
HIGH_MPKI = [n for n, v in _TABLE3.items() if v[2] == "high"]


def benchmark_spec(name: str, config: SystemConfig) -> WorkloadSpec:
    """The :class:`WorkloadSpec` for one benchmark, with its footprint
    scaled to ``config``'s flat capacity.

    The returned footprint is the **total** page count across all
    cores; :func:`per_core_spec` divides it for one rate-mode instance.
    """
    if name not in _TABLE3:
        raise KeyError(f"unknown benchmark {name!r}; choose from {BENCHMARKS}")
    mpki, paper_gb, category = _TABLE3[name]
    fraction = paper_gb / _PAPER_TOTAL_GB
    total_pages = max(16, int(config.total_bytes * fraction) // BLOCK_BYTES)
    return WorkloadSpec(
        name=name,
        mpki=mpki,
        footprint_pages=total_pages,
        category=category,
        **_PERSONALITY[name],
    )


def per_core_spec(name: str, config: SystemConfig) -> WorkloadSpec:
    """One rate-mode instance: 1/``cores`` of the total footprint."""
    spec = benchmark_spec(name, config)
    per_core = max(8, spec.footprint_pages // config.cores)
    return replace(spec, footprint_pages=per_core)


#: Multiprogrammed mixes: core ``i`` runs member ``i % len(members)``,
#: each with its rate-mode share of the footprint, so the total memory
#: pressure stays comparable to rate mode.  ``mix-high`` is the
#: high-MPKI class (bandwidth pressure), ``mix-low`` the low-MPKI class
#: (latency-sensitive) and ``mix-blend`` one of each class in turn.
MIXES: Dict[str, List[str]] = {
    "mix-high": HIGH_MPKI,
    "mix-low": LOW_MPKI,
    "mix-blend": [LOW_MPKI[0], MEDIUM_MPKI[0], HIGH_MPKI[0],
                  LOW_MPKI[1], MEDIUM_MPKI[1], HIGH_MPKI[1]],
}


def workload_specs(name: str, config: SystemConfig) -> List[WorkloadSpec]:
    """One per-core spec for each of ``config.cores`` cores: a Table III
    benchmark's :func:`per_core_spec` on every core, or a mix's members
    in turn."""
    if name in MIXES:
        members = MIXES[name]
        return [per_core_spec(members[core % len(members)], config)
                for core in range(config.cores)]
    if name not in _TABLE3:
        raise KeyError(f"unknown workload {name!r}; benchmarks: {BENCHMARKS};"
                       f" mixes: {sorted(MIXES)}")
    return [per_core_spec(name, config)] * config.cores
