"""Synthetic workload generation (the Pin/SPEC-trace substitute)."""

from repro.workloads.model import PC_BASE, PC_POOL_SIZE, WorkloadModel, WorkloadSpec
from repro.workloads.spec import (
    BENCHMARKS,
    HIGH_MPKI,
    LOW_MPKI,
    MEDIUM_MPKI,
    MIXES,
    benchmark_spec,
    per_core_spec,
    workload_specs,
)
from repro.workloads.trace import MemoryAccess, trace_stats

__all__ = [
    "BENCHMARKS",
    "HIGH_MPKI",
    "LOW_MPKI",
    "MEDIUM_MPKI",
    "MIXES",
    "MemoryAccess",
    "PC_BASE",
    "PC_POOL_SIZE",
    "WorkloadModel",
    "WorkloadSpec",
    "benchmark_spec",
    "per_core_spec",
    "trace_stats",
    "workload_specs",
]
