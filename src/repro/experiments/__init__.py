"""Experiment harness: scheme registry, suite runner, and one function
per paper table/figure."""

from repro.experiments.executor import (
    Cell,
    CellFailure,
    ExecutorError,
    ExperimentExecutor,
    Progress,
    ResultCache,
)
from repro.experiments.figures import (
    FIG6_LABELS,
    FIG6_STAGES,
    FIG7_SCHEMES,
    edp_comparison,
    fig6_breakdown,
    fig7_comparison,
    fig8_bandwidth_split,
    fig9_capacity_sweep,
    table3_measured,
)
from repro.experiments.mixes import MIXES, mix_specs, mix_speedups, run_mix
from repro.experiments.runner import SCHEMES, SchemeSetup, SuiteRunner, run_one
from repro.experiments.sweeps import (
    capacity_transform,
    mlp_transform,
    sweep_silcfm,
    sweep_system,
)

__all__ = [
    "Cell",
    "CellFailure",
    "ExecutorError",
    "ExperimentExecutor",
    "Progress",
    "ResultCache",
    "FIG6_LABELS",
    "FIG6_STAGES",
    "FIG7_SCHEMES",
    "MIXES",
    "SCHEMES",
    "SchemeSetup",
    "SuiteRunner",
    "edp_comparison",
    "fig6_breakdown",
    "fig7_comparison",
    "fig8_bandwidth_split",
    "fig9_capacity_sweep",
    "mix_specs",
    "mix_speedups",
    "capacity_transform",
    "mlp_transform",
    "run_mix",
    "run_one",
    "sweep_silcfm",
    "sweep_system",
    "table3_measured",
]
