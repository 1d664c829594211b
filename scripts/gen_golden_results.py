#!/usr/bin/env python
"""Regenerate the golden ``RunResult`` pins under ``tests/data/golden/``.

Four kinds of pin, each over fixed configs and seeds:

* ``{scheme}-mcf.json`` / ``{scheme}-mcf-compat.json`` — the full
  ``RunResult`` JSON (every stats counter, every float) of five schemes
  on mcf, with the default MSHR file and with the compat file.
  ``tests/integration/test_golden_results.py`` replays them and asserts
  byte-identical JSON.
* ``grid_digests.json`` — the sha256 of the canonical ``RunResult`` JSON
  of a wider differential grid: every registered scheme x three workload
  shapes (pointer-chasing mcf, stream-like lbm, the heterogeneous
  mix-blend) x four MSHR sizes (compat 0, stall-heavy 8 and 32, the
  MLP-sized 128), plus one oracle-checked mcf cell per scheme, four
  *aged* SILC-FM cells whose short aging period, bypass window and hot
  threshold drive the bypass rows and stale-lock release the default
  config never reaches in 300 misses per core, and two HMA cells long
  enough to cross its OS epochs.
  ``tests/integration/test_batch_equivalence.py`` replays it.
* ``trace_digests.json`` — the sha256 of generated trace records
  (``pc``, ``vaddr``, ``is_write``, ``gap_instr`` of each, in order):
  ``WorkloadModel.miss_stream`` of every Table III benchmark's per-core
  spec at two seeds, gemsFDTD run past its hot-set phase boundary, a
  custom spec whose hot set drifts after every spatial run, and
  ``reference_stream`` of two benchmarks.
  ``tests/workloads/test_trace_pins.py`` replays it.
* ``report_digest.txt`` — the sha256 of the body of a tiny
  EXPERIMENTS.md (``repro report`` on 2 cores at scale 0.25, 300 misses
  per core): every section from the first ``## `` heading on, so the
  header's config digest is left out.
  ``tests/experiments/test_report_writer.py`` replays it.

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
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.executor import ExperimentExecutor  # noqa: E402
from repro.experiments.report_writer import write_experiments_report  # noqa: E402
from repro.experiments.runner import SCHEMES as ALL_SCHEMES  # noqa: E402
from repro.experiments.runner import run_one  # noqa: E402
from repro.sim.config import (  # noqa: E402
    SilcFmConfig,
    SystemConfig,
    default_config,
)
from repro.telemetry import EventTracer  # noqa: E402
from repro.workloads import (  # noqa: E402
    BENCHMARKS,
    WorkloadModel,
    WorkloadSpec,
    per_core_spec,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"
GRID_DIGESTS = GOLDEN_DIR / "grid_digests.json"
TRACE_DIGESTS = GOLDEN_DIR / "trace_digests.json"
REPORT_DIGEST = GOLDEN_DIR / "report_digest.txt"

#: the pinned goldens: one epoch scheme (hma), the paper scheme (silc),
#: plus cam, pom and the no-NM baseline.
SCHEMES = ["nonm", "silc", "cam", "pom", "hma"]
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
#: SILC-FM tuned to age and balance within a 16-core x 300-miss run:
#: counters age every 1,500 accesses (the default 50,000 never fires),
#: the bypass window closes every 128 misses and blocks lock at 12.
AGED_SILCFM = SilcFmConfig(aging_period_accesses=1500,
                           access_rate_window=128, hot_threshold=12)
#: ``(scheme, workload, mshr_entries, check_interval)`` of the aged
#: cells: together they reach every ``SilcFmScheme.SPAN_ROWS`` row and
#: each releases stale locks.
AGED_CELLS = (
    ("silc", "mcf", 128, 0.0),
    ("silc", "mix-blend", 128, 0.0),
    ("silc-lock", "mcf", 128, 0.0),
    ("silc", "mcf", CHECKED_MSHR_ENTRIES, CHECK_INTERVAL),
)
#: HMA on mcf for long enough to cross its 200k-cycle OS epoch: the
#: epoch's bulk 2 KB block migrations build the deepest DRAM queues any
#: cell sees (300 misses per core end before the first epoch).
EPOCH_MISSES = 4_000
EPOCH_MSHR_ENTRIES = (0, 128)
#: span-traced mcf cells: every miss sampled inside a 5,000-cycle
#: telemetry window.  cam's two-stage plans walk the controller's stage
#: loop, and an 8-entry file queues sampled misses and joins reads onto
#: them while they wait.
SPAN_SCHEMES = ("silc", "cam")
SPAN_MSHR_ENTRIES = (0, 8, 128)
SPAN_TELEMETRY_WINDOW = 5_000
SPAN_SAMPLE_RATE = 1

#: generator pins: per-core specs at this scale, each benchmark's miss
#: stream at both seeds for this many records.
TRACE_SEEDS = (7, 1234)
TRACE_MISSES = 3_000
#: gemsFDTD, the one benchmark whose hot set drifts, for long enough to
#: cross its phase boundary (every 20,000 misses) twice.
PHASE_BENCHMARK = "gemsFDTD"
PHASE_MISSES = 45_000
#: a hot set that drifts after every spatial run, over half-dense pages.
CHURNY = WorkloadSpec(name="churny", mpki=5.0, footprint_pages=40,
                      phase_misses=1, page_density=0.5)
#: ``reference_stream`` pins: misses expanded with cache-hitting
#: re-references (lbm's 40 MPKI and mcf's 55 give different ratios).
REFERENCE_BENCHMARKS = ("mcf", "lbm")
REFERENCE_MISSES = 1_000

#: the report pin: every artefact of EXPERIMENTS.md on a 2-core system
#: at this scale, with the main grid at this many misses per core.
REPORT_SCALE = 0.25
REPORT_CORES = 2
REPORT_MISSES = 300


def golden_json(scheme: str, mshr_entries: int | None = None) -> str:
    """Run one golden cell.  ``mshr_entries`` overrides the config
    default: ``None`` runs the default MSHR pipeline (the
    ``{scheme}-{workload}.json`` goldens), 0 the compat file (the
    ``{scheme}-{workload}-compat.json`` goldens, whose bytes are the
    pre-MSHR pins carried forward unchanged)."""
    config = default_config(scale=SCALE)
    if mshr_entries is not None:
        config = dataclasses.replace(config, mshr_entries=mshr_entries)
    result = run_one(scheme, WORKLOAD, config,
                     misses_per_core=MISSES, seed=SEED)
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def aged_cell_id(scheme: str, workload: str, mshr_entries: int,
                 check_interval: float) -> str:
    """Digest-table key of one :data:`AGED_CELLS` cell."""
    checked = "-checked" if check_interval else ""
    return f"{scheme}-{workload}-{mshr_entries}-aged{checked}"


def epoch_cell_id(mshr_entries: int) -> str:
    """Digest-table key of one HMA epoch cell."""
    return f"hma-{WORKLOAD}-{mshr_entries}-epoch"


def span_cell_id(scheme: str, mshr_entries: int) -> str:
    """Digest-table key of one span-traced cell."""
    return f"{scheme}-{WORKLOAD}-{mshr_entries}-spans"


def grid_cells() -> Iterator[
        Tuple[str, str, str, int, float, Optional[SilcFmConfig], int, bool]]:
    """``(cell id, scheme, workload, mshr_entries, check_interval,
    silcfm, misses, spans)`` for every cell of the differential grid, in
    table order; ``silcfm`` is None where the cell runs the default
    SILC-FM config."""
    for scheme in sorted(ALL_SCHEMES):
        for workload in GRID_WORKLOADS:
            for entries in GRID_MSHR_ENTRIES:
                yield (f"{scheme}-{workload}-{entries}", scheme, workload,
                       entries, 0.0, None, MISSES, False)
    for scheme in sorted(ALL_SCHEMES):
        yield (f"{scheme}-{WORKLOAD}-{CHECKED_MSHR_ENTRIES}-checked", scheme,
               WORKLOAD, CHECKED_MSHR_ENTRIES, CHECK_INTERVAL, None, MISSES,
               False)
    for cell in AGED_CELLS:
        yield (aged_cell_id(*cell), *cell, AGED_SILCFM, MISSES, False)
    for entries in EPOCH_MSHR_ENTRIES:
        yield (epoch_cell_id(entries), "hma", WORKLOAD, entries, 0.0, None,
               EPOCH_MISSES, False)
    for scheme in SPAN_SCHEMES:
        for entries in SPAN_MSHR_ENTRIES:
            yield (span_cell_id(scheme, entries), scheme, WORKLOAD, entries,
                   0.0, None, MISSES, True)


def grid_digest(scheme: str, workload: str, mshr_entries: int,
                check_interval: float = 0.0,
                silcfm: Optional[SilcFmConfig] = None,
                misses: int = MISSES, spans: bool = False) -> str:
    """sha256 of one grid cell's canonical ``RunResult`` JSON; with
    ``spans`` the run samples every miss into an ``EventTracer``, the
    JSON carries the whole telemetry snapshot, and the tracer's events
    and dropped count are hashed with it."""
    config = dataclasses.replace(
        default_config(SCALE), seed=SEED, mshr_entries=mshr_entries,
        check_interval=check_interval)
    if silcfm is not None:
        config = dataclasses.replace(config, silcfm=silcfm)
    tracer = None
    if spans:
        config = dataclasses.replace(
            config, telemetry_window=SPAN_TELEMETRY_WINDOW,
            span_sample_rate=SPAN_SAMPLE_RATE)
        tracer = EventTracer()
    result = run_one(scheme, workload, config, misses_per_core=misses,
                     tracer=tracer)
    payload = result.to_dict()
    if tracer is not None:
        payload = {"result": payload, "events": tracer.events(),
                   "dropped_events": tracer.dropped}
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def trace_streams() -> Iterator[Tuple[str, WorkloadSpec, int, str, int]]:
    """``(stream id, spec, seed, kind, records)`` of every generator
    pin, in table order; ``kind`` names the ``WorkloadModel`` method
    (``miss_stream`` or ``reference_stream``), and ``records`` is its
    ``n_misses`` argument."""
    config = default_config(SCALE)
    for name in BENCHMARKS:
        spec = per_core_spec(name, config)
        for seed in TRACE_SEEDS:
            yield (f"miss-{name}-{seed}", spec, seed, "miss_stream",
                   TRACE_MISSES)
    yield (f"miss-{PHASE_BENCHMARK}-phases",
           per_core_spec(PHASE_BENCHMARK, config), SEED, "miss_stream",
           PHASE_MISSES)
    yield ("miss-churny", CHURNY, SEED, "miss_stream", TRACE_MISSES)
    for name in REFERENCE_BENCHMARKS:
        yield (f"ref-{name}", per_core_spec(name, config), SEED,
               "reference_stream", REFERENCE_MISSES)


def trace_digest(spec: WorkloadSpec, seed: int, kind: str,
                 records: int) -> str:
    """sha256 over ``pc,vaddr,is_write,gap_instr;`` of each record."""
    sha = hashlib.sha256()
    for r in getattr(WorkloadModel(spec, seed=seed), kind)(records):
        sha.update(b"%d,%d,%d,%d;" % (r.pc, r.vaddr, r.is_write, r.gap_instr))
    return sha.hexdigest()


def write_trace_digests() -> None:
    table = {stream: trace_digest(*args) for stream, *args in trace_streams()}
    TRACE_DIGESTS.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {TRACE_DIGESTS} ({len(table)} streams)")


def report_config() -> SystemConfig:
    """The pinned report's system: 2 cores at :data:`REPORT_SCALE`."""
    return dataclasses.replace(default_config(scale=REPORT_SCALE),
                               cores=REPORT_CORES)


def report_body_digest(text: str) -> str:
    """sha256 of a report's body: everything from its first ``## ``
    heading on (the header, with its config digest, is left out)."""
    return hashlib.sha256(text[text.index("\n## ") + 1:].encode()).hexdigest()


def write_report_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "EXPERIMENTS.md"
        write_experiments_report(path, report_config(), REPORT_MISSES,
                                 ExperimentExecutor(jobs=1))
        digest = report_body_digest(path.read_text())
    REPORT_DIGEST.write_text(digest + "\n")
    print(f"wrote {REPORT_DIGEST}")


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
    write_trace_digests()
    write_report_digest()


if __name__ == "__main__":
    main()
