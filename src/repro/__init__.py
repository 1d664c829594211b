"""repro — a reproduction of SILC-FM: Subblocked InterLeaved Cache-Like
Flat Memory Organization (Ryoo, Meswani, Prodromou and John, HPCA 2017).

The package simulates a two-level flat (part-of-memory) heterogeneous
memory system — die-stacked HBM "near memory" plus off-chip DDR3 "far
memory" — under seven data-management schemes, including the paper's
subblock-interleaving SILC-FM and the CAMEO / PoM / HMA baselines it is
evaluated against, on a trace-driven 16-core system with an event-driven
DRAM timing model.

Quickstart::

    from repro import default_config, run_one

    config = default_config()
    baseline = run_one("nonm", "mcf", config, misses_per_core=5000)
    silcfm = run_one("silc", "mcf", config, misses_per_core=5000)
    print("speedup:", silcfm.speedup_over(baseline))
    print("NM access rate:", silcfm.access_rate)
"""

from repro.core.silcfm import SilcFmScheme
from repro.cpu.system import RunResult, System
from repro.experiments.executor import Cell, ExperimentExecutor
from repro.experiments.runner import SCHEMES, run_one
from repro.schemes.base import AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import SilcFmConfig, SystemConfig, default_config, paper_config
from repro.workloads.model import WorkloadModel, WorkloadSpec
from repro.workloads.spec import BENCHMARKS, MIXES
from repro.xmem.address import AddressSpace

__version__ = "1.0.0"

__all__ = [
    "AccessPlan",
    "AddressSpace",
    "BENCHMARKS",
    "Cell",
    "ExperimentExecutor",
    "Level",
    "MIXES",
    "MemoryScheme",
    "Op",
    "RunResult",
    "SCHEMES",
    "SilcFmConfig",
    "SilcFmScheme",
    "System",
    "SystemConfig",
    "WorkloadModel",
    "WorkloadSpec",
    "default_config",
    "paper_config",
    "run_one",
    "__version__",
]
