#!/usr/bin/env python3
"""Server-consolidation mix: heterogeneous workloads sharing flat memory.

Run:  python examples/consolidation_mix.py [mix] [misses_per_core]

The paper evaluates rate mode (16 copies of one program); a consolidated
server runs a *mix*.  This example assigns a different Table III
benchmark to each core — a latency-sensitive job next to bandwidth
hogs — and asks whether SILC-FM's per-block hardware management still
wins when the hot sets of unrelated programs compete for NM.
"""

import sys

from repro import MIXES, Cell, ExperimentExecutor, default_config
from repro.stats.report import bar_chart, format_table

COMPARED = ["hma", "cam", "pom", "silc"]


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "mix-blend"
    misses = int(sys.argv[2]) if len(sys.argv) > 2 else 3000
    if mix not in MIXES:
        raise SystemExit(f"unknown mix {mix!r}; pick from {sorted(MIXES)}")

    config = default_config()
    print(f"Mix {mix!r}: cores run {MIXES[mix]} round-robin\n")

    # a mix is a workload name like any benchmark: one cell per scheme,
    # plus the no-NM baseline, run as one parallel executor batch
    cells = {key: Cell(key, mix, config, misses_per_core=misses)
             for key in ["nonm"] + COMPARED}
    results = ExperimentExecutor(jobs=2).run_cells(cells.values(),
                                                   strict=True)
    baseline = results[cells["nonm"]]
    speedups = {key: results[cells[key]].speedup_over(baseline)
                for key in COMPARED}
    print(bar_chart(speedups, title="Speedup over no-NM baseline", unit="x"))

    # per-core fairness under SILC-FM: who finished when?
    result = results[cells["silc"]]
    rows = [
        [core, MIXES[mix][core % len(MIXES[mix])],
         f"{stats.finish_time:,.0f}", f"{stats.ipc():.2f}"]
        for core, stats in enumerate(result.core_stats[:8])
    ]
    print()
    print(format_table(["core", "benchmark", "finish (cycles)", "IPC"],
                       rows, title="SILC-FM per-core progress (first 8 cores)"))


if __name__ == "__main__":
    main()
