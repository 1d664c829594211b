"""Mutation self-tests: prove the pinned-digest harness has teeth.

``tests/integration/test_batch_equivalence.py`` asserts that every cell
of a wide grid reproduces a recorded ``RunResult`` digest — which
proves nothing if it would also pass with a broken data plane.  Here
six deliberate, realistic data-plane bugs are planted by monkeypatching
(the simulator itself carries no fault hooks), and each must make the
pinned comparison FAIL:

``window-off-by-one``
    The trace a core pulls repeats the record at a 64-miss refill
    boundary (the classic off-by-one in chunked trace generation).
``drop-row-close``
    ``Bank.prepare`` treats a row-buffer conflict as a row hit, skipping
    the precharge/activate sequence.
``stale-busy``
    ``Bank.prepare`` computes timing but never advances the bank's
    busy-until (``ready``) time, so later requests see stale state.
``cf-stall-skip``
    The controller loses the OS-epoch stall check, so demand requests
    issue straight through an HMA migration stall.
``cf-lost-coalesce``
    MSHR admission skips the in-flight-read lookup, so a read that
    should join an in-flight fill allocates its own entry and consults
    the scheme again.
``cf-gap-drift``
    The core forgets the issue-width division, scheduling each issue a
    full ``gap_instr`` cycles out instead of ``gap_instr / issue_width``.

(The ``cf-`` names are kept from when those three bugs were planted in
a closed-form transcription of the same controller, MSHR and core code;
the bug classes are unchanged.)

Each fault runs against a pinned cell that exercises its site:
``cf-stall-skip`` needs HMA in compat mode (``mshr 0``) on a run long
enough to cross its OS epochs, so it is held to the pinned
``hma-mcf-0-epoch`` digest; the rest fire on every SILC-FM miss stream
and are held to the pinned ``silc-mcf-8`` digest.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cpu.controller import FlatMemoryController
from repro.cpu.core import Core
from repro.cpu.mshr import MSHRFile
from repro.dram.bank import Bank

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from gen_golden_results import (  # noqa: E402
    EPOCH_MISSES, GRID_DIGESTS, MISSES, epoch_cell_id, grid_digest)

PINNED = json.loads(GRID_DIGESTS.read_text())
#: the refill size the ``window-off-by-one`` fault breaks at
REFILL = 64


def _duplicate_refill_boundary(trace):
    for index, record in enumerate(trace):
        yield record
        if index == REFILL - 1:
            yield record  # BUG: the refill resumes one record early


class _ForgetfulReads(dict):
    """An in-flight-read index whose lookups always miss."""

    def get(self, key, default=None):
        return default


def _plant(fault: str, monkeypatch: pytest.MonkeyPatch) -> None:
    if fault == "window-off-by-one":
        init = Core.__init__

        def faulty_init(self, engine, core_id, trace, *args, **kwargs):
            init(self, engine, core_id, _duplicate_refill_boundary(trace),
                 *args, **kwargs)

        monkeypatch.setattr(Core, "__init__", faulty_init)
    elif fault == "drop-row-close":
        prepare = Bank.prepare

        def faulty_prepare(self, row, now):
            if self.open_row is not None and self.open_row != row:
                self.open_row = row  # BUG: pretend the row was open
            return prepare(self, row, now)

        monkeypatch.setattr(Bank, "prepare", faulty_prepare)
    elif fault == "stale-busy":
        prepare = Bank.prepare

        def faulty_prepare(self, row, now):
            ready_before = self.ready
            done = prepare(self, row, now)
            self.ready = ready_before  # BUG: busy-until never advances
            return done

        monkeypatch.setattr(Bank, "prepare", faulty_prepare)
    elif fault == "cf-stall-skip":
        # BUG: the stall horizon reads as "no stall" whatever the epoch
        # set it to
        monkeypatch.setattr(FlatMemoryController, "_stall_until",
                            property(lambda self: 0.0,
                                     lambda self, value: None),
                            raising=False)
    elif fault == "cf-lost-coalesce":
        init = MSHRFile.__init__

        def faulty_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._reads = _ForgetfulReads()

        monkeypatch.setattr(MSHRFile, "__init__", faulty_init)
    elif fault == "cf-gap-drift":
        init = Core.__init__

        def faulty_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._issue_width = 1  # BUG: gap no longer divided by width

        monkeypatch.setattr(Core, "__init__", faulty_init)
    else:  # pragma: no cover - guarded by inject()
        raise AssertionError(fault)


KNOWN = ("window-off-by-one", "drop-row-close", "stale-busy",
         "cf-stall-skip", "cf-lost-coalesce", "cf-gap-drift")
_active = []


@contextmanager
def inject(fault: str):
    """Plant ``fault`` for the duration of the ``with`` block; one at a
    time, so a case can never pass on the strength of another fault."""
    if fault not in KNOWN:
        raise ValueError(f"unknown fault {fault!r}; known: {KNOWN}")
    if _active:
        raise RuntimeError(f"fault {_active[0]!r} already active")
    _active.append(fault)
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            _plant(fault, monkeypatch)
            yield
    finally:
        _active.clear()


#: fault -> (scheme, misses_per_core, mshr_entries, pinned grid cell) of
#: an mcf run that exercises the planted site.
CASES = {fault: ("silc", MISSES, 8, "silc-mcf-8") for fault in KNOWN}
CASES["cf-stall-skip"] = ("hma", EPOCH_MISSES, 0, epoch_cell_id(0))


def _digest(scheme: str, misses: int, mshr: int) -> str:
    return grid_digest(scheme, "mcf", mshr, misses=misses)


@pytest.mark.parametrize("fault", KNOWN)
def test_planted_fault_trips_the_equivalence_check(fault):
    scheme, misses, mshr, cell = CASES[fault]
    with inject(fault):
        mutated = _digest(scheme, misses, mshr)
    assert mutated != PINNED[cell], (
        f"planted fault {fault!r} survived the pinned-digest check — the "
        "harness cannot detect this bug class")


def test_fault_free_rerun_recovers_equivalence():
    """Planting leaves no residue: after a mutated run, a clean run
    reproduces the pinned digest again."""
    with inject(KNOWN[0]):
        _digest("silc", MISSES, 8)
    assert _digest("silc", MISSES, 8) == PINNED["silc-mcf-8"]


def test_inject_rejects_unknown_and_nested_faults():
    with pytest.raises(ValueError):
        with inject("not-a-fault"):
            pass
    with inject(KNOWN[0]):
        with pytest.raises(RuntimeError):
            with inject(KNOWN[1]):
                pass
    assert Core.__init__.__qualname__ == "Core.__init__"
