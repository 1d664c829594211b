#!/usr/bin/env python3
"""Anatomy of a SILC-FM run: look inside the mechanism.

Run:  python examples/anatomy.py [benchmark] [misses_per_core]

Runs one workload under SILC-FM and dumps the internal state the paper's
Section III describes: how many frames ended up interleaved vs locked vs
fully remapped, the set-occupancy (conflict pressure) histogram that
motivates associativity, predictor accuracy, and the bit-vector history
table's effectiveness.
"""

import sys

from repro import BENCHMARKS, SCHEMES, System, default_config
from repro.stats.inspect import (
    describe_run,
    describe_silcfm,
    set_occupancy_histogram,
)
from repro.stats.report import bar_chart
from repro.workloads.spec import workload_specs


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    misses = int(sys.argv[2]) if len(sys.argv) > 2 else 4000
    if benchmark not in BENCHMARKS:
        raise SystemExit(f"unknown benchmark {benchmark!r}; pick from {BENCHMARKS}")

    config = default_config()
    setup = SCHEMES["silc"]
    system = System(config, setup.factory, workload_specs(benchmark, config),
                    misses_per_core=misses, alloc_policy=setup.alloc_policy,
                    warmup_fraction=0.2)
    result = system.run()
    scheme = system.scheme

    print(describe_run(result))
    print()
    print(describe_silcfm(scheme))
    print()
    histogram = set_occupancy_histogram(scheme)
    print(bar_chart(
        {f"{k} ways remapped": float(v) for k, v in histogram.items()},
        title="Congruence-set occupancy (conflict pressure)"))
    print()
    table = scheme.history
    print(f"Bit-vector history: {table.saves} saves, "
          f"{table.lookups} lookups, hit rate {table.hit_rate:.2f}; "
          f"{scheme.batch_fetched_subblocks} subblocks batch-fetched "
          f"(the spatial hits CAMEO cannot get).")


if __name__ == "__main__":
    main()
