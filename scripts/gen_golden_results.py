#!/usr/bin/env python
"""Regenerate the golden ``RunResult`` pins under ``tests/data/golden/``.

Two kinds of pin, both fixed config+seed grids:

* ``{scheme}-mcf.json`` / ``{scheme}-mcf-compat.json`` — the full
  ``RunResult`` JSON (every stats counter, every float) of six schemes
  on mcf, with the default MSHR file and with the compat front door.
  ``tests/integration/test_golden_results.py`` replays them and asserts
  byte-identical JSON.
* ``grid_digests.json`` — the sha256 of the canonical ``RunResult`` JSON
  of a wider differential grid: every registered scheme x three workload
  shapes (pointer-chasing mcf, stream-like lbm, the heterogeneous
  mix-blend) x four MSHR sizes (compat 0, stall-heavy 8 and 32, the
  MLP-sized 128), plus one oracle-checked mcf cell per scheme.
  ``tests/integration/test_batch_equivalence.py`` replays it.

Any change to the hot path that silently perturbs simulated behaviour —
reordered events, changed float arithmetic, a dropped counter — fails
loudly instead of drifting the paper's figures.  Only regenerate
(``python scripts/gen_golden_results.py``) when a change *intends* to
alter simulated behaviour, and say so in the commit message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.mixes import run_mix  # noqa: E402
from repro.experiments.runner import SCHEMES as ALL_SCHEMES  # noqa: E402
from repro.experiments.runner import run_one  # noqa: E402
from repro.sim.config import default_config  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"
GRID_DIGESTS = GOLDEN_DIR / "grid_digests.json"

#: the pinned grid: one epoch scheme (hma), one non-bijective scheme
#: (alloy), the paper scheme (silc), plus cam and the no-NM baseline.
SCHEMES = ["nonm", "silc", "cam", "pom", "hma", "alloy"]
WORKLOAD = "mcf"
MISSES = 300
SEED = 7
SCALE = 0.25

#: the differential grid's axes (same seed, misses and scale as above).
GRID_WORKLOADS = ("mcf", "lbm", "mix-blend")
GRID_MSHR_ENTRIES = (0, 8, 32, 128)
#: the oracle-checked pass: mcf with an undersized 8-entry MSHR file.
CHECKED_MSHR_ENTRIES = 8
CHECK_INTERVAL = 5_000.0


def golden_json(scheme: str, mshr_entries: int | None = None) -> str:
    """Run one golden cell.  ``mshr_entries`` overrides the config
    default: ``None`` runs the default MSHR pipeline (the
    ``{scheme}-{workload}.json`` goldens), 0 the compat front door (the
    ``{scheme}-{workload}-compat.json`` goldens, whose bytes are the
    pre-MSHR pins carried forward unchanged)."""
    config = default_config(scale=SCALE)
    if mshr_entries is not None:
        config = dataclasses.replace(config, mshr_entries=mshr_entries)
    result = run_one(scheme, WORKLOAD, config,
                     misses_per_core=MISSES, seed=SEED)
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def grid_cells() -> Iterator[Tuple[str, str, str, int, float]]:
    """``(cell id, scheme, workload, mshr_entries, check_interval)`` for
    every cell of the differential grid, in table order."""
    for scheme in sorted(ALL_SCHEMES):
        for workload in GRID_WORKLOADS:
            for entries in GRID_MSHR_ENTRIES:
                yield (f"{scheme}-{workload}-{entries}", scheme, workload,
                       entries, 0.0)
    for scheme in sorted(ALL_SCHEMES):
        yield (f"{scheme}-{WORKLOAD}-{CHECKED_MSHR_ENTRIES}-checked", scheme,
               WORKLOAD, CHECKED_MSHR_ENTRIES, CHECK_INTERVAL)


def grid_digest(scheme: str, workload: str, mshr_entries: int,
                check_interval: float = 0.0) -> str:
    """sha256 of one grid cell's canonical ``RunResult`` JSON."""
    config = dataclasses.replace(
        default_config(SCALE), seed=SEED, mshr_entries=mshr_entries,
        check_interval=check_interval)
    if workload.startswith("mix-"):
        result = run_mix(scheme, workload, config,
                         misses_per_core=MISSES, seed=SEED)
    else:
        result = run_one(scheme, workload, config, misses_per_core=MISSES)
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_grid_digests() -> None:
    table = {cell: grid_digest(*args) for cell, *args in grid_cells()}
    GRID_DIGESTS.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {GRID_DIGESTS} ({len(table)} cells)")


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scheme in SCHEMES:
        path = GOLDEN_DIR / f"{scheme}-{WORKLOAD}.json"
        path.write_text(golden_json(scheme))
        print(f"wrote {path}")
        compat = GOLDEN_DIR / f"{scheme}-{WORKLOAD}-compat.json"
        compat.write_text(golden_json(scheme, mshr_entries=0))
        print(f"wrote {compat}")
    write_grid_digests()


if __name__ == "__main__":
    main()
