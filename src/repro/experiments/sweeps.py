"""Parameter-sweep tooling: one-dimensional sensitivity studies over any
SILC-FM parameter or system knob.

``sweep_silcfm`` re-runs one workload while varying a single
``SilcFmConfig`` field; ``sweep_system`` does the same for system-level
knobs expressed as config transformers.  Both normalise against a shared
no-NM baseline, so the output is directly plottable as a sensitivity
curve (the report's Section III ablations are curves of
``sweep_silcfm``).

Each sweep point is an independent executor :class:`Cell` — a varied
``SystemConfig`` under a registered scheme key — so the whole curve is
submitted as one batch and inherits the executor's parallel workers and
on-disk result cache.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.executor import Cell, ExperimentExecutor
from repro.sim.config import SystemConfig


def sweep_silcfm(field: str, values: Sequence, workload: str,
                 config: SystemConfig, misses_per_core: int = 4_000,
                 seed: Optional[int] = None,
                 warmup_fraction: float = 0.2,
                 executor: Optional[ExperimentExecutor] = None
                 ) -> Dict[str, float]:
    """Speedup over the no-NM baseline for each value of one
    ``SilcFmConfig`` field.

    >>> sweep_silcfm("associativity", [1, 2, 4], "gcc", config)  # doctest: +SKIP
    {'1': 1.9, '2': 2.0, '4': 2.1}
    """
    if field not in {f.name for f in dataclasses.fields(config.silcfm)}:
        raise KeyError(f"SilcFmConfig has no field {field!r}")
    executor = executor or ExperimentExecutor(jobs=1)
    baseline_cell = Cell("nonm", workload, config,
                         misses_per_core=misses_per_core, seed=seed,
                         warmup_fraction=warmup_fraction)
    point_cells = {
        str(value): Cell("silc", workload,
                         config.with_silcfm(**{field: value}),
                         misses_per_core=misses_per_core, seed=seed,
                         warmup_fraction=warmup_fraction)
        for value in values
    }
    executor.run_cells([baseline_cell] + list(point_cells.values()))
    baseline = executor.run_cell(baseline_cell)
    return {
        label: executor.run_cell(cell).speedup_over(baseline)
        for label, cell in point_cells.items()
    }


def sweep_system(transform: Callable[[SystemConfig, object], SystemConfig],
                 values: Sequence, scheme_key: str, workload: str,
                 config: SystemConfig, misses_per_core: int = 4_000,
                 seed: Optional[int] = None,
                 executor: Optional[ExperimentExecutor] = None
                 ) -> Dict[str, float]:
    """Speedup curve over system-level variations.

    ``transform(config, value)`` produces the varied configuration; each
    point is normalised to its *own* no-NM baseline (so capacity sweeps
    compare like with like).
    """
    executor = executor or ExperimentExecutor(jobs=1)
    pairs = {}
    for value in values:
        varied = transform(config, value)
        pairs[str(value)] = (
            Cell("nonm", workload, varied,
                 misses_per_core=misses_per_core, seed=seed),
            Cell(scheme_key, workload, varied,
                 misses_per_core=misses_per_core, seed=seed),
        )
    executor.run_cells([c for pair in pairs.values() for c in pair])
    return {
        label: executor.run_cell(run).speedup_over(executor.run_cell(base))
        for label, (base, run) in pairs.items()
    }


def capacity_transform(config: SystemConfig, ratio: int) -> SystemConfig:
    """The Fig. 9 knob: FM:NM capacity ratio."""
    return config.with_ratio(ratio)


def mlp_transform(config: SystemConfig, window: int) -> SystemConfig:
    """Core memory-level-parallelism window (outstanding misses)."""
    return dataclasses.replace(
        config, core=dataclasses.replace(config.core,
                                         max_outstanding_misses=window))


def sweep_table(results_by_label: Dict[str, Dict[str, float]]) -> List[List]:
    """Arrange several sweeps into table rows for reporting."""
    rows: List[List] = []
    for label, curve in results_by_label.items():
        for x, y in curve.items():
            rows.append([label, x, y])
    return rows
