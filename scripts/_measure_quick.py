"""Dev-only: min-of-N timing of the quick bench cells.

Not part of the harness — `repro bench` is the recorded measurement and
`bench/run.py` the layered benchmark; this exists so perf work on the
data plane has a low-noise readout (min-of-N discards scheduler
preemption).  Usage: python scripts/_measure_quick.py [REPS]
"""
import dataclasses
import gc
import sys
import time

sys.path.insert(0, "src")

from repro.experiments.runner import run_one
from repro.sim.config import default_config

REPS = int(sys.argv[1]) if len(sys.argv) > 1 else 3
base = default_config()
run_one("silc", "mcf", base, misses_per_core=200, seed=99)  # warm imports

total = 0.0
# mirror the quick-bench variants: nonm/silc at the default (MLP-sized)
# MSHR file, plus compat-mode silc (mshr_entries=0)
for name in ["nonm", "silc", "silc-compat"]:
    scheme = "nonm" if name == "nonm" else "silc"
    config = base if "compat" not in name else dataclasses.replace(
        base, mshr_entries=0)
    best = float("inf")
    for _ in range(REPS):
        gc.collect()
        t0 = time.perf_counter()
        run_one(scheme, "mcf", config, misses_per_core=1500, seed=1234)
        best = min(best, time.perf_counter() - t0)
    total += best
    print(f"{name:12s} {best:.3f}s")
print(f"total {total:.3f}s")
