#!/usr/bin/env python3
"""Scheme shoot-out: the paper's Fig. 7 in miniature.

Run:  python examples/scheme_shootout.py [misses_per_core]

Runs a representative workload from each MPKI class (Table III) under
all six comparison schemes plus SILC-FM, prints per-workload speedups
over the no-NM baseline, and the geometric mean — the number the paper's
"36% over the best state-of-the-art" claim is about.
"""

import sys

from repro import SCHEMES, ExperimentExecutor, default_config
from repro.experiments import fig7_comparison
from repro.stats.report import bar_chart, grouped_series

#: one workload from each Table III class + the two feature showcases
WORKLOADS = ["xalancbmk", "gcc", "mcf", "milc"]


def main() -> None:
    misses = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    # the whole grid, baselines included, is one parallel executor batch
    table = fig7_comparison(default_config(), misses, WORKLOADS,
                            ExperimentExecutor(jobs=2))

    series = {scheme: {wl: per[wl] for wl in WORKLOADS}
              for scheme, per in table.items()}
    print(grouped_series(series, headers_label="workload",
                         title="Speedup over no-NM baseline (Fig. 7 subset)"))
    print()
    geomeans = {SCHEMES[s].label: per["geomean"] for s, per in table.items()}
    print(bar_chart(geomeans, title="Geometric-mean speedup", unit="x"))

    best_other = max(v for k, v in geomeans.items() if k != "SILC-FM")
    silc = geomeans["SILC-FM"]
    print(f"\nSILC-FM vs best other scheme: "
          f"{(silc / best_other - 1) * 100:+.1f}% "
          f"(paper reports +36% on the full suite)")


if __name__ == "__main__":
    main()
