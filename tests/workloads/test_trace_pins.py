"""Byte-identity pins for the trace generator: every record
``WorkloadModel`` yields (``pc``, ``vaddr``, ``is_write``, ``gap_instr``,
in order) must hash like the committed ``trace_digests.json``.

The golden ``RunResult`` pins run only mcf, lbm and mix-blend for a few
thousand misses per core, so they never reach a hot-set phase change or
call ``reference_stream``.  These pins cover every Table III benchmark's
miss stream at two seeds, gemsFDTD across its phase boundary, a spec
whose hot set drifts after every spatial run, and the reference stream
of two benchmarks.

Regenerate with ``python scripts/gen_golden_results.py`` only when a
change intends to alter the generated traces.
"""

import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from gen_golden_results import (  # noqa: E402
    PHASE_BENCHMARK,
    TRACE_DIGESTS,
    trace_digest,
    trace_streams,
)

from repro.workloads.model import WorkloadModel  # noqa: E402

STREAMS = {stream: args for stream, *args in trace_streams()}
PINS = json.loads(TRACE_DIGESTS.read_text())


def test_every_stream_is_pinned():
    assert sorted(PINS) == sorted(STREAMS)


@pytest.mark.parametrize("stream", list(STREAMS))
def test_trace_matches_pin(stream):
    assert trace_digest(*STREAMS[stream]) == PINS[stream], (
        f"{stream} drifted from its committed digest; if the change is "
        "intentional, regenerate via scripts/gen_golden_results.py and "
        "explain why in the commit")


@pytest.mark.parametrize("stream, shifts", [
    (f"miss-{PHASE_BENCHMARK}-phases", 2),
    ("miss-churny", None),
])
def test_phase_pins_drift_the_hot_set(monkeypatch, stream, shifts):
    """The pins hold the hot-set drift only if their streams reach it."""
    calls = []
    shift = WorkloadModel._shift_hot_set

    def counting(self, *args):
        calls.append(args)
        return shift(self, *args)

    monkeypatch.setattr(WorkloadModel, "_shift_hot_set", counting)
    spec, seed, kind, records = STREAMS[stream]
    for _ in getattr(WorkloadModel(spec, seed=seed), kind)(records):
        pass
    if shifts is None:
        assert len(calls) > 100
    else:
        assert len(calls) == shifts
