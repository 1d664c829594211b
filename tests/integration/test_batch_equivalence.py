"""Byte-identity of the fused data plane over a wide differential grid.

The allocation-lean channel/device/controller forms — once a second,
batched twin of the simulator that had to agree with a scalar reference
byte for byte — are now the only data plane.  The agreement they were
held to is pinned instead: before the scalar reference was folded away,
the sha256 of the canonical ``RunResult`` JSON of every cell below was
recorded in ``tests/data/golden/grid_digests.json``, and every run must
still reproduce it.

Six layers, from broad to anchored:

* the **differential grid** — every registered scheme x three workload
  shapes (pointer-chasing mcf, stream-like lbm, the heterogeneous
  mix-blend) x four MSHR sizes (compat 0, stall-heavy 8 and 32, the
  MLP-sized default 128);
* an **oracle-checked pass** per scheme — the validation oracle rides
  an mcf run with an undersized MSHR file, proving ``--check`` changes
  no simulated behaviour;
* four **aged SILC-FM cells** — a short aging period, bypass window and
  hot threshold drive the bypass rows and stale-lock release that the
  default config never reaches at this scale (one of them under the
  oracle);
* two **HMA epoch cells** — 4,000 misses per core cross HMA's OS epoch,
  whose bulk 2 KB block migrations build the deepest DRAM channel
  queues of any cell (compat file and the default MSHR file);
* six **span-traced cells** — silc and cam on mcf with every miss
  sampled, at MSHR 0, 8 and 128, digested with the whole telemetry
  snapshot (span aggregates, samples, trace events): span tracing rides
  the miss path, so its output is pinned like the figures of merit;
* the **golden anchor** — the table's golden cells hash the committed
  full-JSON goldens' bytes, so the digest table and
  ``test_golden_results.py`` pin one history, not two.

``tests/integration/test_batch_mutations.py`` proves the table has
teeth: planted data-plane bugs each make it fail.  Regenerate with
``python scripts/gen_golden_results.py`` only when a change intends to
alter simulated behaviour.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import SCHEMES

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from gen_golden_results import (  # noqa: E402
    AGED_CELLS, AGED_SILCFM, CHECK_INTERVAL, CHECKED_MSHR_ENTRIES,
    EPOCH_MISSES, EPOCH_MSHR_ENTRIES, GOLDEN_DIR, GRID_DIGESTS,
    GRID_MSHR_ENTRIES, GRID_WORKLOADS, SCHEMES as GOLDEN_SCHEMES,
    SPAN_MSHR_ENTRIES, SPAN_SCHEMES, WORKLOAD as GOLDEN_WORKLOAD,
    aged_cell_id, epoch_cell_id, grid_cells, grid_digest, span_cell_id)

PINNED = json.loads(GRID_DIGESTS.read_text())
#: the MSHR size ``default_config`` ships (the ``{scheme}-mcf.json``
#: goldens); the ``-compat`` goldens run with 0.
DEFAULT_MSHR_ENTRIES = 128


def _assert_pinned(cell: str, digest: str) -> None:
    assert digest == PINNED[cell], (
        f"{cell}: RunResult drifted from the pinned digest; if the change "
        "is intentional, regenerate via scripts/gen_golden_results.py and "
        "explain why in the commit")


def test_table_covers_exactly_the_grid():
    assert sorted(PINNED) == sorted(cell for cell, *_ in grid_cells())


@pytest.mark.parametrize("mshr_entries", GRID_MSHR_ENTRIES)
@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_batched_run_is_byte_identical(scheme, workload, mshr_entries):
    _assert_pinned(f"{scheme}-{workload}-{mshr_entries}",
                   grid_digest(scheme, workload, mshr_entries))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_oracle_checked_batched_run(scheme):
    """The differential oracle must pass (no InvariantViolation) and
    leave the result byte-identical to the unchecked-era pin: ``--check``
    is observation-only."""
    _assert_pinned(
        f"{scheme}-{GOLDEN_WORKLOAD}-{CHECKED_MSHR_ENTRIES}-checked",
        grid_digest(scheme, GOLDEN_WORKLOAD, CHECKED_MSHR_ENTRIES,
                    CHECK_INTERVAL))


@pytest.mark.parametrize("cell", AGED_CELLS, ids=lambda c: aged_cell_id(*c))
def test_aged_silcfm_run(cell):
    """SILC-FM's bypass rows (``row2/3/5-bypass``) and stale-lock
    release: paths the default-config cells never take."""
    _assert_pinned(aged_cell_id(*cell), grid_digest(*cell, AGED_SILCFM))


@pytest.mark.parametrize("mshr_entries", EPOCH_MSHR_ENTRIES)
def test_hma_epoch_run(mshr_entries):
    """HMA's OS epochs and their bulk block migrations: the deepest
    channel queues of the grid, which the 300-miss cells never build."""
    _assert_pinned(epoch_cell_id(mshr_entries),
                   grid_digest("hma", GOLDEN_WORKLOAD, mshr_entries,
                               misses=EPOCH_MISSES))


@pytest.mark.parametrize("mshr_entries", SPAN_MSHR_ENTRIES)
@pytest.mark.parametrize("scheme", SPAN_SCHEMES)
def test_span_traced_run(scheme, mshr_entries):
    """Span tracing on every miss: the result, the span aggregates and
    every trace event (request and stage slices, coalescing flows) stay
    byte-identical — compat, a queueing 8-entry file whose sampled
    misses wait and gather joins, and the default file."""
    _assert_pinned(span_cell_id(scheme, mshr_entries),
                   grid_digest(scheme, GOLDEN_WORKLOAD, mshr_entries,
                               spans=True))


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_batched_run_matches_committed_golden(scheme):
    """Anchor: the pinned digest of each golden cell (default MSHR file
    and compat file) is the digest of the committed golden bytes,
    so a table regenerated from a drifted simulator cannot pass while
    the goldens still hold the old history."""
    for suffix, entries in (("", DEFAULT_MSHR_ENTRIES), ("-compat", 0)):
        golden = GOLDEN_DIR / f"{scheme}-{GOLDEN_WORKLOAD}{suffix}.json"
        canonical = json.dumps(json.loads(golden.read_text()),
                               sort_keys=True)
        _assert_pinned(f"{scheme}-{GOLDEN_WORKLOAD}-{entries}",
                       hashlib.sha256(canonical.encode()).hexdigest())
