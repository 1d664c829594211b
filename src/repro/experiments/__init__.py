"""Experiment harness: scheme registry, suite runner, and one function
per paper table/figure (rendered into EXPERIMENTS.md by
:mod:`repro.experiments.report_writer`)."""

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
    ablations,
    edp_comparison,
    fig6_breakdown,
    fig7_comparison,
    fig8_bandwidth_split,
    fig9_capacity_sweep,
    table1_operations,
    table2_parameters,
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
    "ablations",
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
    "table1_operations",
    "table2_parameters",
    "table3_measured",
]
