"""One function per paper artefact: the only code that computes one.

Each submits its cells to an :class:`ExperimentExecutor` (cached,
resumable, parallel) as one batch and returns plain data that
:mod:`repro.experiments.report_writer` renders and checks the paper's
shape claims against.  Each takes ``config``, ``misses_per_core`` (the
trace length it simulates), ``executor`` and, where it applies,
``workloads``; the defaults are the report's.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar

from repro.core.silcfm import SilcFmScheme
from repro.cpu.system import RunResult
from repro.experiments.executor import Cell, ExperimentExecutor
from repro.sim.config import (
    BLOCK_BYTES,
    SUBBLOCK_BYTES,
    SystemConfig,
    default_config,
    paper_config,
)
from repro.sim.engine import CPU_GHZ
from repro.stats.collectors import geometric_mean
from repro.telemetry import DEFAULT_TELEMETRY_WINDOW
from repro.workloads.spec import BENCHMARKS, per_core_spec

#: LLC misses per core of the main grid (Figs. 6-8 and EDP).
MISSES_PER_CORE = 5_000
#: Table III's reference-mode trace length: every miss costs ~30
#: accesses through the modelled hierarchy, and its checks were written
#: for this count.
TABLE3_MISSES_PER_CORE = 1_200


def half_length(misses_per_core: int) -> int:
    """Trace length of the half-length artefacts (Fig. 9, the ablations
    and Table I), from the main grid's."""
    return misses_per_core // 2


#: Fig. 6 stages in paper order: each adds one feature on top of Random.
FIG6_STAGES = ["silc-swap", "silc-lock", "silc-assoc", "silc"]
FIG6_LABELS = {
    "silc-swap": "SILC-FM swap",
    "silc-lock": "+locking",
    "silc-assoc": "+associativity",
    "silc": "+bypassing",
}

#: Fig. 7 comparison schemes in paper order.
FIG7_SCHEMES = ["rand", "hma", "cam", "camp", "pom", "silc"]

#: Fig. 9: FM:NM capacity ratios, the migrating schemes, and two
#: workloads per MPKI class.
FIG9_RATIOS = [16, 8, 4]
FIG9_SCHEMES = ["hma", "cam", "camp", "pom", "silc"]
FIG9_WORKLOADS = ["xalancbmk", "gcc", "gemsFDTD", "mcf", "milc", "cactusADM"]

#: Table I: the locking showcase plus two high-MPKI workloads.
TABLE1_WORKLOADS = ["xalancbmk", "mcf", "milc"]

#: Section III ablations.  xalancbmk is the paper's locking showcase,
#: gcc ("many lukewarm blocks") its associativity showcase, milc its
#: example of an access rate above the 0.8 bypass target, and mcf has
#: the highest MPKI.
THRESHOLD_WORKLOAD, HOT_THRESHOLDS = "xalancbmk", [5, 20, 50, 1000]
ASSOC_WORKLOADS, ASSOC_WAYS = ["gcc", "milc", "libquantum"], [1, 2, 4]
BYPASS_WORKLOAD, BYPASS_TARGETS = "milc", [0.6, 0.7, 0.8, 0.9]
PREDICTOR_WORKLOAD = "mcf"


_Key = TypeVar("_Key", bound=Hashable)


def _run(cells: Dict[_Key, Cell], executor: Optional[ExperimentExecutor]
         ) -> Dict[_Key, RunResult]:
    """Each key's result, from one batch on the caller's executor (or a
    private serial one).  A failed cell raises :class:`ExecutorError`
    naming it."""
    results = (executor or ExperimentExecutor(jobs=1)).run_cells(
        cells.values(), strict=True)
    return {key: results[cell] for key, cell in cells.items()}


def _grid(config: SystemConfig, misses_per_core: int, schemes: Iterable[str],
          workloads: List[str], executor: Optional[ExperimentExecutor]
          ) -> Dict[Tuple[str, str], RunResult]:
    """{(scheme, workload) -> result} of every pair, as one batch."""
    return _run({(s, wl): Cell(s, wl, config, misses_per_core)
                 for s in schemes for wl in workloads}, executor)


def _speedups(config: SystemConfig, misses_per_core: int, schemes: List[str],
              workloads: List[str], executor: Optional[ExperimentExecutor]
              ) -> Dict[str, Dict[str, float]]:
    """{scheme -> {workload -> speedup over the no-NM baseline}}."""
    runs = _grid(config, misses_per_core, schemes + ["nonm"], workloads,
                 executor)
    return {s: {wl: runs[s, wl].speedup_over(runs["nonm", wl])
                for wl in workloads} for s in schemes}


def _traced(config: SystemConfig, **fields) -> SystemConfig:
    """``config`` with telemetry on: pure observation, same results."""
    return dataclasses.replace(
        config, telemetry_window=config.telemetry_window
        or DEFAULT_TELEMETRY_WINDOW, **fields)


def _with_geomean(grid: Dict[str, Dict[str, float]]
                  ) -> Dict[str, Dict[str, float]]:
    """Adds a 'geomean' entry to each {workload -> speedup} series."""
    return {key: dict(per, geomean=geometric_mean(per.values()))
            for key, per in grid.items()}


def table1_operations(config: Optional[SystemConfig] = None,
                      misses_per_core: int = half_length(MISSES_PER_CORE),
                      workloads: Optional[List[str]] = None,
                      executor: Optional[ExperimentExecutor] = None
                      ) -> Dict[str, int]:
    """Table I: how often SILC-FM resolves a demand miss to each row.

    Every miss is span-traced (sample rate 1), so the counts are the
    post-warmup rows ``repro analyze`` prints, summed over the
    workloads, with each ``-bypass`` variant folded into its base row.
    Returns {row -> count} over the scheme's whole row vocabulary.
    """
    runs = _grid(_traced(config or default_config(), span_sample_rate=1),
                 misses_per_core, ["silc"], workloads or TABLE1_WORKLOADS,
                 executor)
    counts = {row.replace("-bypass", ""): 0 for row in SilcFmScheme.SPAN_ROWS}
    for result in runs.values():
        for row, rec in result.telemetry["spans"]["rows"].items():
            base = row.replace("-bypass", "")
            counts[base] = counts.get(base, 0) + rec["count"]
    return counts


def _size(nbytes: int) -> str:
    for unit, shift in (("GiB", 30), ("MiB", 20), ("KiB", 10)):
        if nbytes >= 1 << shift and nbytes % (1 << shift) == 0:
            return f"{nbytes >> shift} {unit}"
    return f"{nbytes} B"


def _parameters(config: SystemConfig) -> Dict[str, str]:
    caches = config.caches
    nm, fm, silc = config.nm_timings, config.fm_timings, config.silcfm
    values = {
        "cores": config.cores,
        "issue width": config.core.issue_width,
        "ROB entries": config.core.rob_entries,
        "core frequency (GHz)": CPU_GHZ,
        "L1I / L1D / L2": " / ".join(
            _size(c.size_bytes) for c in (caches.l1i, caches.l1d, caches.l2)),
        "NM channels x bus": f"{nm.channels} x {nm.bus_bits}b",
        "FM channels x bus": f"{fm.channels} x {fm.bus_bits}b",
        "bus frequency (MHz, DDR)": f"{nm.bus_mhz:g} / {fm.bus_mhz:g}",
        "NM / FM peak BW (GB/s)": f"{nm.peak_bandwidth_gbs():.1f} / "
                                  f"{fm.peak_bandwidth_gbs():.1f}",
        "NM / FM capacity": f"{_size(config.nm_bytes)} / "
                            f"{_size(config.fm_bytes)}",
        "FM:NM capacity": f"{config.fm_to_nm_ratio}:1",
        "page / large block": _size(BLOCK_BYTES),
        "subblock": _size(SUBBLOCK_BYTES),
        "SILC-FM associativity": silc.associativity,
        "hot threshold": silc.hot_threshold,
        "predictor entries": silc.predictor_entries,
        "bypass target access rate": silc.bypass_target_access_rate,
    }
    return {name: str(value) for name, value in values.items()}


def table2_parameters(config: Optional[SystemConfig] = None
                      ) -> Dict[str, Tuple[str, str]]:
    """Table II: {parameter -> (paper value, simulated value)}, reading
    the paper's unscaled system from :func:`paper_config` and the
    simulated one from ``config``."""
    paper = _parameters(paper_config())
    simulated = _parameters(config or default_config())
    return {name: (paper[name], simulated[name]) for name in paper}


def table3_measured(config: Optional[SystemConfig] = None,
                    misses_per_core: int = TABLE3_MISSES_PER_CORE,
                    workloads: Optional[List[str]] = None,
                    executor: Optional[ExperimentExecutor] = None
                    ) -> Dict[str, Dict]:
    """Table III check: run each benchmark's *reference* stream through
    the real cache hierarchy and report measured LLC MPKI + footprint.

    ``llc_absorbs`` marks benchmarks whose hot set fits the (scaled)
    LLC, which legitimately absorbs part of their miss stream.
    """
    config = config or default_config()
    runs = _run({
        name: Cell("nonm", name, config, misses_per_core=misses_per_core,
                   mode="reference", warmup_fraction=0.0)
        for name in workloads or BENCHMARKS
    }, executor)
    out: Dict[str, Dict] = {}
    for name, result in runs.items():
        spec = per_core_spec(name, config)
        misses = sum(c.misses_issued for c in result.core_stats)
        hot_bytes = int(spec.hot_fraction * spec.footprint_pages
                        * BLOCK_BYTES)
        out[name] = {
            "category": spec.category,
            "target_mpki": spec.mpki,
            "measured_mpki": misses / result.total_instructions * 1000.0,
            "footprint_pages_per_core": spec.footprint_pages,
            "llc_absorbs": hot_bytes < 2 * config.caches.l2.size_bytes,
        }
    return out


def fig6_breakdown(config: Optional[SystemConfig] = None,
                   misses_per_core: int = MISSES_PER_CORE,
                   workloads: Optional[List[str]] = None,
                   executor: Optional[ExperimentExecutor] = None
                   ) -> Dict[str, Dict[str, float]]:
    """Fig. 6: cumulative feature breakdown.

    Returns {stage -> {workload -> speedup over no-NM baseline}}, plus a
    'rand' row as the stack's floor and a 'geomean' entry per stage.
    """
    return _with_geomean(_speedups(
        config or default_config(), misses_per_core, ["rand"] + FIG6_STAGES,
        workloads or BENCHMARKS, executor))


def fig7_comparison(config: Optional[SystemConfig] = None,
                    misses_per_core: int = MISSES_PER_CORE,
                    workloads: Optional[List[str]] = None,
                    executor: Optional[ExperimentExecutor] = None
                    ) -> Dict[str, Dict[str, float]]:
    """Fig. 7: speedups of all schemes over the no-NM baseline.

    Returns {scheme -> {workload -> speedup, 'geomean' -> g}}.
    """
    return _with_geomean(_speedups(
        config or default_config(), misses_per_core, FIG7_SCHEMES,
        workloads or BENCHMARKS, executor))


def fig8_bandwidth_split(config: Optional[SystemConfig] = None,
                         misses_per_core: int = MISSES_PER_CORE,
                         workloads: Optional[List[str]] = None,
                         executor: Optional[ExperimentExecutor] = None
                         ) -> Dict[str, float]:
    """Fig. 8: mean fraction of demand requests serviced from NM — the
    access rate — per scheme (migrations excluded, as in the paper).
    Ideal = 0.8, the NM share of the 4:1 NM:FM bandwidth.
    """
    workloads = workloads or BENCHMARKS
    runs = _grid(config or default_config(), misses_per_core, FIG7_SCHEMES,
                 workloads, executor)
    return {s: sum(runs[s, wl].access_rate for wl in workloads)
            / len(workloads) for s in FIG7_SCHEMES}


def fig9_capacity_sweep(config: Optional[SystemConfig] = None,
                        misses_per_core: int = half_length(MISSES_PER_CORE),
                        workloads: Optional[List[str]] = None,
                        executor: Optional[ExperimentExecutor] = None
                        ) -> Dict[str, Dict[int, float]]:
    """Fig. 9: geomean speedup vs FM:NM capacity ratio (16, 8, 4) over
    :data:`FIG9_WORKLOADS` by default.

    Returns {scheme -> {ratio -> geomean speedup}}.
    """
    config = config or default_config()
    workloads = workloads or FIG9_WORKLOADS
    runs = _run({(ratio, s, wl): Cell(s, wl, config.with_ratio(ratio),
                                      misses_per_core)
                 for ratio in FIG9_RATIOS for s in FIG9_SCHEMES + ["nonm"]
                 for wl in workloads}, executor)
    return {s: {ratio: geometric_mean(
                    [runs[ratio, s, wl].speedup_over(runs[ratio, "nonm", wl])
                     for wl in workloads])
                for ratio in FIG9_RATIOS}
            for s in FIG9_SCHEMES}


def edp_comparison(config: Optional[SystemConfig] = None,
                   misses_per_core: int = MISSES_PER_CORE,
                   workloads: Optional[List[str]] = None,
                   executor: Optional[ExperimentExecutor] = None
                   ) -> Dict[str, float]:
    """Section V energy result: geomean EDP normalised to the no-NM
    baseline, per scheme (lower is better; the paper reports SILC-FM at
    ~13% below the best state-of-the-art scheme)."""
    workloads = workloads or BENCHMARKS
    runs = _grid(config or default_config(), misses_per_core,
                 FIG7_SCHEMES + ["nonm"], workloads, executor)
    return {s: geometric_mean([runs[s, wl].edp / runs["nonm", wl].edp
                               for wl in workloads]) for s in FIG7_SCHEMES}


def ablations(config: Optional[SystemConfig] = None,
              misses_per_core: int = half_length(MISSES_PER_CORE),
              executor: Optional[ExperimentExecutor] = None
              ) -> Dict[str, Dict]:
    """Section III design ablations: curves of SILC-FM speedups over
    the no-NM baseline, each point one ``SilcFmConfig`` field varied.

    Returns {'threshold': {threshold -> speedup}, 'associativity':
    {ways -> {workload -> speedup, 'geomean' -> g}}, 'bypass': {target
    -> speedup, 'off' -> speedup}, 'predictor': {'on'|'off' ->
    {'speedup', 'way_accuracy', 'location_accuracy'}}}, with every key
    a string; the predictor's accuracies come from the final telemetry
    sample of its points, which run with telemetry on.
    """
    config = config or default_config()

    def curve(field, values, workload, base=config, label=str):
        """{label -> (SILC-FM cell, its no-NM baseline cell)}, one point
        per value of ``field``."""
        baseline = Cell("nonm", workload, base, misses_per_core)
        return {label(value): (Cell("silc", workload,
                                    base.with_silcfm(**{field: value}),
                                    misses_per_core), baseline)
                for value in values}

    curves = {
        "threshold": curve("hot_threshold", HOT_THRESHOLDS,
                           THRESHOLD_WORKLOAD),
        "bypass": dict(curve("bypass_target_access_rate", BYPASS_TARGETS,
                             BYPASS_WORKLOAD),
                       off=curve("enable_bypass", [False],
                                 BYPASS_WORKLOAD)["False"]),
        "predictor": curve("enable_predictor", [True, False],
                           PREDICTOR_WORKLOAD, _traced(config),
                           label=lambda on: "on" if on else "off"),
    }
    curves.update({("associativity", wl): curve("associativity", ASSOC_WAYS,
                                                wl)
                   for wl in ASSOC_WORKLOADS})
    runs = _run({cell: cell for points in curves.values()
                 for pair in points.values() for cell in pair}, executor)
    speedups = {name: {label: runs[cell].speedup_over(runs[baseline])
                       for label, (cell, baseline) in points.items()}
                for name, points in curves.items()}

    predictor = {}
    for label, (cell, _baseline) in curves["predictor"].items():
        final = runs[cell].telemetry["samples"][-1]
        predictor[label] = {
            "speedup": speedups["predictor"][label],
            "way_accuracy": final["silcfm.predictor_way_accuracy"],
            "location_accuracy": final["silcfm.predictor_location_accuracy"],
        }
    return {
        "threshold": speedups["threshold"],
        "associativity": _with_geomean({
            str(ways): {wl: speedups["associativity", wl][str(ways)]
                        for wl in ASSOC_WORKLOADS} for ways in ASSOC_WAYS}),
        "bypass": speedups["bypass"],
        "predictor": predictor,
    }
