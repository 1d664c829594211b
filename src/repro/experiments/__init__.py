"""Experiment harness: the scheme registry, :func:`run_one`, the
parallel, cached executor that runs each :class:`Cell` through it, and
one function per paper table/figure (rendered into EXPERIMENTS.md by
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
from repro.experiments.runner import SCHEMES, SchemeSetup, run_one

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
    "SCHEMES",
    "SchemeSetup",
    "ablations",
    "edp_comparison",
    "fig6_breakdown",
    "fig7_comparison",
    "fig8_bandwidth_split",
    "fig9_capacity_sweep",
    "run_one",
    "table1_operations",
    "table2_parameters",
    "table3_measured",
]
