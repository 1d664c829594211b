"""Perf-regression bench harness: ``python -m repro bench``.

Runs a pinned (scheme x workload) set through the simulator, timing the
**wall clock** of each cell, and writes a schema-versioned
``BENCH_<date>.json`` so successive checkouts can be compared: a
simulator change that slows the hot path shows up as a drop in
``accesses_per_sec`` long before anyone notices interactive sluggishness,
and a change that shifts the *headline figures of merit* (speedups over
the no-NM baseline) shows up in ``figures_of_merit`` even when all
functional tests still pass.

The workload set is pinned (fixed schemes, workloads, miss counts and
seed) precisely so the numbers are comparable across runs; scale knobs
change the *machine*, not the benchmark definition.  Cells run serially
in-process — parallel workers would share cores and turn wall-clock
timing into noise.

Since schema v3 each cell also carries **request-latency tails**
(``p95_latency``/``p99_latency``, simulation cycles): a second, untimed
run of the same cell with span sampling at rate 1 records every
request's issue-to-retire latency, so a change that quietly lengthens
the tail (a scheduling bug, a lost coalescing opportunity) fails the
regression gate even when throughput and the mean stay flat.  The tails
are deterministic given the pinned seed — the gate threshold is
host-noise-free and tight.  ``--quick`` runs skip the tail pass unless
the config explicitly enables span sampling: the CI-sized suite exists
for throughput, and the untimed pass used to double its runtime.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.sim.config import SystemConfig, default_config
from repro.stats.collectors import geometric_mean

#: bump when the BENCH_*.json layout changes.
#: v2: cells gained ``key``/``mshr_entries`` and the suites an
#: MSHR-coalescing variant of the paper scheme.
#: v3: cells gained ``p95_latency``/``p99_latency`` request-latency
#: tails (simulation cycles, from a separate untimed span-sampled run).
#: v4: cells gained a timed batch-engine twin run
#: (``batched_wall_seconds``/``batched_accesses_per_sec``/
#: ``batch_speedup``, digest-checked against the scalar run) and the
#: throughput summary a ``batched_accesses_per_sec`` total; quick runs
#: stopped carrying tails unless span sampling is enabled in the config.
#: v5: the MSHR transaction pipeline became the simulator default after
#: the silc-mshr32 postmortem (docs/architecture.md) — the headline
#: cells now run with the default MSHR file, the old ``silc-mshr32``
#: cell is gone, and a ``silc-compat`` cell (``mshr_entries=0``) keeps
#: the pre-MSHR front door measured so the figures-of-merit gate can
#: assert the default mode dominates it.
#: v6: the payload gained a ``service`` section (the multi-tenant
#: sweep service under a pinned concurrent load).
#: v7: the payload gained a ``batch_curve`` section (a second,
#: batched data plane swept across trace-window sizes).
#: v8: the simulator has one data plane again: the batched twin columns
#: (``batched_wall_seconds``/``batched_accesses_per_sec``/
#: ``batch_speedup``, per cell and in total), the top-level window size
#: and the ``batch_curve`` section are gone.
#: v9: the sweep service is gone, and with it the ``service`` section.
BENCH_SCHEMA_VERSION = 9

#: pinned seed — throughput comparisons need identical event streams.
BENCH_SEED = 1234

#: MSHR size for the default-mode bench cells — the simulator default
#: (cores × per-core outstanding misses, the aggregate MLP), pinned
#: here so the benchmark definition stays frozen even if the simulator
#: default moves again.
BENCH_MSHR_ENTRIES = 128

#: telemetry window for the untimed tail-latency companion run.
BENCH_TAIL_WINDOW = 50_000

#: suites are (cell key, scheme, mshr_entries) triples; the key names
#: the cell in the JSON and stays stable across schema versions.
#: Full: the paper's main comparison points on three memory-behaviour
#: extremes (latency-bound mcf, low-locality milc, streaming lbm).
FULL_VARIANTS = [
    ("nonm", "nonm", BENCH_MSHR_ENTRIES),
    ("cam", "cam", BENCH_MSHR_ENTRIES),
    ("pom", "pom", BENCH_MSHR_ENTRIES),
    ("silc", "silc", BENCH_MSHR_ENTRIES),
    ("silc-compat", "silc", 0),
]
FULL_WORKLOADS = ["mcf", "milc", "lbm"]
FULL_MISSES = 4000

#: the quick suite (CI-sized): baseline + the paper scheme on one
#: workload, with and without the MSHR front door.
QUICK_VARIANTS = [
    ("nonm", "nonm", BENCH_MSHR_ENTRIES),
    ("silc", "silc", BENCH_MSHR_ENTRIES),
    ("silc-compat", "silc", 0),
]
QUICK_WORKLOADS = ["mcf"]
QUICK_MISSES = 1500


@dataclass
class BenchCell:
    """Timing + headline figures for one (variant, workload) run."""

    key: str
    scheme: str
    mshr_entries: int
    workload: str
    misses_per_core: int
    wall_seconds: float
    accesses: int
    accesses_per_sec: float
    elapsed_cycles: float
    access_rate: float
    #: request-latency tails in simulation cycles, measured by a second
    #: *untimed* run with span sampling at rate 1 (spans off in the timed
    #: run so the throughput numbers stay comparable to older baselines).
    #: Deterministic given the pinned seed, so the regression gate can be
    #: much tighter than the wall-clock one.  ``None`` = histogram
    #: overflow, a pre-v3 baseline, or a quick run with tails disabled.
    p95_latency: Optional[float] = None
    p99_latency: Optional[float] = None

    def to_dict(self) -> Dict:
        return dict(self.__dict__)


def run_bench(quick: bool = False,
              config: Optional[SystemConfig] = None,
              today: Optional[str] = None,
              profile_dir: Optional[Union[str, Path]] = None) -> Dict:
    """Run the pinned set; returns the ``BENCH_*.json`` payload.

    ``profile_dir`` (the ``--profile`` flag) additionally captures a
    cProfile of one *untimed* re-run per cell, written as
    ``<key>-<workload>.pstats`` side artifacts — outside the
    ``perf_counter`` windows, so the reported throughput stays
    comparable to unprofiled baselines.  Inspect with::

        python -m pstats results/profiles/silc-mcf.pstats
    """
    import dataclasses

    from repro.experiments.runner import run_one

    if profile_dir is not None:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)

    variants = QUICK_VARIANTS if quick else FULL_VARIANTS
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    misses = QUICK_MISSES if quick else FULL_MISSES
    config = config or default_config()
    # the tail pass is untimed and doubles a cell's cost; quick runs
    # skip it unless the caller's config explicitly samples spans.
    measure_tails = (not quick) or config.span_sample_rate > 0

    cells: List[BenchCell] = []
    results: Dict[tuple, object] = {}
    for workload in workloads:
        for key, scheme, mshr_entries in variants:
            # always replace: an ``if mshr_entries`` guard would make an
            # explicit 0 (the compat cell) silently inherit the config's
            # nonzero default.
            cell_config = dataclasses.replace(config,
                                              mshr_entries=mshr_entries)
            start = time.perf_counter()
            result = run_one(scheme, workload, cell_config,
                             misses_per_core=misses, seed=BENCH_SEED)
            wall = time.perf_counter() - start
            results[(key, workload)] = result
            accesses = misses * config.cores
            if profile_dir is not None:
                # untimed profiled re-run, so hotspots are measurable
                # instead of guessed (kept outside the perf_counter
                # window).
                import cProfile

                profiler = cProfile.Profile()
                profiler.enable()
                run_one(scheme, workload, cell_config,
                        misses_per_core=misses, seed=BENCH_SEED)
                profiler.disable()
                profiler.dump_stats(
                    str(profile_dir / f"{key}-{workload}.pstats"))
            tails = {"p95": None, "p99": None}
            if measure_tails:
                # tail latencies come from a run with span sampling,
                # deliberately outside the perf_counter windows: the
                # timed runs stay span-free so accesses_per_sec is
                # comparable across baselines that predate span tracing.
                tail_config = dataclasses.replace(
                    cell_config, telemetry_window=BENCH_TAIL_WINDOW,
                    span_sample_rate=1)
                tail_result = run_one(scheme, workload, tail_config,
                                      misses_per_core=misses,
                                      seed=BENCH_SEED)
                tails = tail_result.telemetry["spans"]["latency"]
            cells.append(BenchCell(
                key=key,
                scheme=scheme,
                mshr_entries=mshr_entries,
                workload=workload,
                misses_per_core=misses,
                wall_seconds=round(wall, 4),
                accesses=accesses,
                accesses_per_sec=round(accesses / wall, 1) if wall else 0.0,
                elapsed_cycles=result.elapsed_cycles,
                access_rate=round(result.access_rate, 4),
                p95_latency=tails["p95"],
                p99_latency=tails["p99"],
            ))

    # headline figures of merit: per-workload speedups over the no-NM
    # baseline, plus each variant's geomean — the numbers Figs. 6/7 plot.
    speedups: Dict[str, Dict[str, float]] = {}
    for key, _scheme, _mshr in variants:
        if key == "nonm":
            continue
        per_wl = {
            wl: round(results[(key, wl)].speedup_over(
                results[("nonm", wl)]), 4)
            for wl in workloads
        }
        per_wl["geomean"] = round(geometric_mean(list(per_wl.values())), 4)
        speedups[key] = per_wl

    total_wall = sum(c.wall_seconds for c in cells)
    total_accesses = sum(c.accesses for c in cells)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "date": today or time.strftime("%Y-%m-%d"),
        "quick": quick,
        "seed": BENCH_SEED,
        "platform": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "cells": [c.to_dict() for c in cells],
        "throughput": {
            "total_wall_seconds": round(total_wall, 4),
            "total_accesses": total_accesses,
            "accesses_per_sec": (round(total_accesses / total_wall, 1)
                                 if total_wall else 0.0),
        },
        "figures_of_merit": {"speedup_over_nonm": speedups},
    }


def write_bench(payload: Dict,
                out_dir: Union[str, Path] = "results") -> Path:
    """Write ``BENCH_<date>.json`` (one file per calendar day; a rerun
    the same day overwrites — the latest numbers win)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{payload['date']}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
