"""Span tracing: deterministic sampling, collector aggregation, trace
emission, and the end-to-end latency-attribution guarantees (stage sums
reconcile with the controller's demand-stall accounting; flow events
link every coalesced MSHR sibling; figures of merit are untouched)."""

import dataclasses
import json
import types

import pytest

from repro.experiments.executor import Cell, ExperimentExecutor
from repro.experiments.runner import run_one
from repro.schemes.base import Level, Op
from repro.sim.config import default_config
from repro.telemetry import validate_chrome_trace
from repro.telemetry.spans import (SPANS_SCHEMA_VERSION, Span,
                                   SpanCollector, SpanRecorder, stage_label)
from repro.telemetry.tracer import EventTracer

SCALE = 0.25
MISSES = 800
SEED = 7


class _Clock:
    def __init__(self):
        self.now = 0.0


def _config(**overrides):
    return dataclasses.replace(default_config(scale=SCALE), **overrides)


def _txn(span):
    """Minimal transaction stand-in: retire() only touches ``.span``."""
    return types.SimpleNamespace(span=span)


# ----------------------------------------------------------------------
# stage classification
# ----------------------------------------------------------------------
def test_stage_label_classification():
    meta = Op(Level.NM, 0, 8, False)
    nm = Op(Level.NM, 0, 64, False)
    fm = Op(Level.FM, 0, 64, False)
    assert stage_label([meta]) == "meta"
    assert stage_label([nm]) == "nm_data"
    assert stage_label([fm]) == "fm_data"
    assert stage_label([nm, fm]) == "mixed"
    # one data-sized op makes the stage a data stage
    assert stage_label([meta, nm]) == "nm_data"


# ----------------------------------------------------------------------
# Span bookkeeping
# ----------------------------------------------------------------------
def test_span_lifecycle_stamps():
    span = Span(0, 0x40, False, issue_t=10.0)
    span.admit(12.0)
    span.dispatch(15.0)
    span.decide("row1", "nm", False, 16.0)
    span.begin_stage("meta", 16.0)
    span.end_stage(20.0)
    span.begin_stage("nm_data", 20.0)
    span.join(24.0)
    span.add_dram(5.0, 3.0)
    span.end_stage(30.0)
    span.finish_t = 30.0
    assert span.latency == 20.0
    assert span.service_cycles == 15.0
    assert span.stages == [("meta", 16.0, 20.0), ("nm_data", 20.0, 30.0)]
    assert span.siblings == [24.0]
    assert span.row == "row1" and span.serviced_from == "nm"
    assert (span.dram_queue, span.dram_service) == (5.0, 3.0)


def test_end_stage_without_open_stage_is_noop():
    span = Span(0, 0, False, 0.0)
    span.end_stage(5.0)
    assert span.stages == []


# ----------------------------------------------------------------------
# deterministic sampling
# ----------------------------------------------------------------------
def test_recorder_modulo_sampling():
    recorder = SpanRecorder(3, _Clock())
    decisions = [recorder.arrival() for _ in range(7)]
    assert decisions == [True, False, False, True, False, False, True]
    assert recorder.snapshot()["arrivals"] == 7


def test_recorder_rejects_rate_below_one():
    with pytest.raises(ValueError):
        SpanRecorder(0, _Clock())


def test_warmup_reset_preserves_sampling_sequence():
    """Collector aggregates reset at warmup; the modulo sequence and
    span ids must not, so which requests are sampled stays a pure
    function of the arrival order."""
    recorder = SpanRecorder(2, _Clock())
    assert recorder.arrival() is True
    recorder.reset_stats()
    assert recorder.arrival() is False  # continues the sequence
    assert recorder.collector.spans_recorded == 0


# ----------------------------------------------------------------------
# retire: aggregation + trace emission
# ----------------------------------------------------------------------
def test_retire_aggregates_and_emits_slices():
    clock = _Clock()
    tracer = EventTracer(cycles_per_us=1000.0)
    recorder = SpanRecorder(1, clock, tracer=tracer)
    assert recorder.arrival()
    span = recorder.start(0x80, True)
    span.dispatch(2.0)
    span.decide("row2", "fm", True, 3.0)
    span.begin_stage("fm_data", 3.0)
    span.end_stage(9.0)
    span.join(5.0)
    txn = _txn(span)
    recorder.retire(txn, 9.0)
    assert txn.span is None
    assert recorder.unretired == 0
    assert recorder.collector.spans_recorded == 1
    by_ph = {}
    for event in tracer.events():
        by_ph.setdefault(event["ph"], []).append(event)
    (request,) = [e for e in by_ph["X"] if e["cat"] == "span.request"]
    assert request["name"] == "row2"
    assert request["args"]["bypassed"] is True
    assert request["args"]["coalesced"] == 1
    (stage,) = [e for e in by_ph["X"] if e["cat"] == "span.stage"]
    assert stage["name"] == "fm_data"
    (start,), (finish,) = by_ph["s"], by_ph["f"]
    assert start["id"] == finish["id"]


def test_emission_batch_dropped_whole_under_cap():
    """A span whose slices cannot all fit is dropped entirely — a trace
    never contains a flow start without its finish."""
    clock = _Clock()
    tracer = EventTracer(max_events=2, cycles_per_us=1000.0)
    recorder = SpanRecorder(1, clock, tracer=tracer)
    recorder.arrival()
    span = recorder.start(0, False)
    span.begin_stage("meta", 0.0)
    span.end_stage(1.0)
    span.join(0.5)  # 1 request + 1 stage + 2 flow events = 4 > cap
    recorder.retire(_txn(span), 1.0)
    assert len(tracer.events()) == 0
    assert tracer.dropped == 4
    assert recorder.collector.spans_recorded == 1  # aggregates still kept


# ----------------------------------------------------------------------
# collector
# ----------------------------------------------------------------------
def _retired_span(sid=0, latency=100.0, row="row1", siblings=0):
    span = Span(sid, sid * 64, False, 0.0)
    span.dispatch(0.0)
    span.decide(row, "nm", False, 0.0)
    span.begin_stage("nm_data", 0.0)
    span.end_stage(latency)
    for k in range(siblings):
        span.join(float(k))
    span.finish_t = latency
    return span


def test_collector_percentile_overflow_serialises_none():
    collector = SpanCollector()
    collector.record(_retired_span(latency=1e9))  # beyond the histogram
    snap = collector.snapshot()
    assert snap["latency"]["p50"] is None
    assert snap["rows"]["row1"]["p99"] is None
    json.dumps(snap)  # stays strict JSON


def test_collector_top_chains_longest_first():
    collector = SpanCollector()
    collector.record(_retired_span(sid=1, latency=50.0, siblings=2))
    collector.record(_retired_span(sid=2, latency=90.0, siblings=5))
    collector.record(_retired_span(sid=3, latency=10.0))  # no chain
    snap = collector.snapshot()
    assert [c["span"] for c in snap["top_chains"]] == [2, 1]
    assert snap["coalesced_siblings"] == 7


def test_collector_stage_shares_sum_to_one():
    collector = SpanCollector()
    for sid in range(4):
        collector.record(_retired_span(sid=sid, latency=100.0 + sid))
    snap = collector.snapshot()
    assert sum(s["share"] for s in snap["stages"].values()) == pytest.approx(1.0)
    assert snap["stage_cycles_total"] == pytest.approx(
        sum(s["cycles"] for s in snap["stages"].values()))


# ----------------------------------------------------------------------
# config validation + cache keys
# ----------------------------------------------------------------------
def test_config_rejects_spans_without_telemetry():
    with pytest.raises(ValueError, match="telemetry"):
        dataclasses.replace(default_config(), span_sample_rate=1)
    with pytest.raises(ValueError):
        dataclasses.replace(default_config(), span_sample_rate=-1)


def test_cell_key_changes_when_spans_enabled():
    base = dataclasses.replace(default_config(), telemetry_window=5000)
    spanned = dataclasses.replace(base, span_sample_rate=4)
    assert (Cell("silc", "mcf", base).key()
            != Cell("silc", "mcf", spanned).key())


# ----------------------------------------------------------------------
# end-to-end: silc on mcf with spans at rate 1
# ----------------------------------------------------------------------
def _span_cell():
    # compat file (mshr_entries=0): the Table-I row coverage this
    # fixture pins (bypass + lock rows post-warmup) is a property of
    # the uncoalesced consult stream; MSHR-mode span behaviour has its
    # own fixture below (coalescing_result).
    config = _config(telemetry_window=5000, span_sample_rate=1,
                     mshr_entries=0)
    return Cell("silc", "mcf", config, misses_per_core=MISSES, seed=SEED)


@pytest.fixture(scope="module")
def span_run():
    """(result, tracer) of the span cell run with an event tracer."""
    cell = _span_cell()
    tracer = EventTracer()
    result = run_one(cell.scheme_key, cell.workload_name, cell.config,
                     misses_per_core=cell.misses_per_core, seed=cell.seed,
                     tracer=tracer)
    return result, tracer


@pytest.fixture(scope="module")
def span_result(span_run):
    return span_run[0]


@pytest.fixture(scope="module")
def telemetry_only_result():
    config = _config(telemetry_window=5000, mshr_entries=0)
    return run_one("silc", "mcf", config, misses_per_core=MISSES, seed=SEED)


def test_spans_snapshot_shape(span_result):
    spans = span_result.telemetry["spans"]
    assert spans["schema"] == SPANS_SCHEMA_VERSION
    assert spans["sample_rate"] == 1
    assert spans["spans"] > 0
    assert spans["unretired"] == 0
    assert spans["stages"]  # non-empty per-stage attribution
    assert spans["rows"]


def test_stage_sums_reconcile_with_demand_stall(span_result):
    """ISSUE acceptance: at rate 1 the per-stage cycle sums reconcile
    with the controller's total memory-stall accounting within 1% —
    the design makes them *exactly* equal (stages partition
    dispatch->retire and both totals reset together at warmup)."""
    spans = span_result.telemetry["spans"]
    staged = spans["stage_cycles_total"]
    demand = spans["demand_stall_cycles"]
    assert demand > 0
    assert staged == pytest.approx(demand, rel=1e-9)


def test_observed_rows_are_declared(span_result):
    spans = span_result.telemetry["spans"]
    declared = set(spans["rows_declared"])
    assert declared  # silc declares its Table I rows
    assert set(spans["rows"]) <= declared
    # mcf at this scale exercises both bypass and locking rows
    assert any("bypass" in row for row in spans["rows"])
    assert any("lock" in row for row in spans["rows"])


def test_row_tails_ordered(span_result):
    for rec in span_result.telemetry["spans"]["rows"].values():
        tails = [rec["p50"], rec["p95"], rec["p99"]]
        known = [t for t in tails if t is not None]
        assert known == sorted(known)
        assert rec["count"] > 0


def test_trace_slices_and_validity(span_run):
    events = span_run[1].events()
    assert validate_chrome_trace(events) == len(events)
    cats = {e.get("cat") for e in events}
    assert "span.request" in cats and "span.stage" in cats


def test_executor_cell_keeps_aggregates_without_events(span_result,
                                                       tmp_path):
    """A cell runs without a tracer: its cached snapshot holds no trace
    events, and everything it does hold equals the traced run's."""
    result = ExperimentExecutor(jobs=1, cache_dir=tmp_path).run_cell(
        _span_cell())
    snap = result.telemetry
    assert "events" not in snap and "dropped_events" not in snap
    for key in ("samples", "counters", "spans"):
        assert snap[key] == span_result.telemetry[key], key
    assert result.to_dict() == span_result.to_dict()


def test_figures_of_merit_unchanged_by_spans(span_result,
                                             telemetry_only_result):
    """Spans observe; they must not perturb the simulation."""
    assert (span_result.elapsed_cycles
            == telemetry_only_result.elapsed_cycles)
    assert span_result.scheme_stats == telemetry_only_result.scheme_stats
    assert (span_result.controller_stats
            == telemetry_only_result.controller_stats)


def test_subsampling_counts_arrivals_deterministically():
    config = _config(telemetry_window=5000, span_sample_rate=4)
    result = run_one("silc", "mcf", config, misses_per_core=400, seed=SEED)
    spans = result.telemetry["spans"]
    assert spans["sample_rate"] == 4
    # modulo sampling: ceil(arrivals / 4) spans started, none leaked
    assert spans["sampled"] == (spans["arrivals"] + 3) // 4
    assert spans["unretired"] == 0


# ----------------------------------------------------------------------
# heavy coalescing: 32-entry MSHR, every sibling flow-linked
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def coalescing_run():
    """(result, tracer) of a 32-entry-MSHR run at rate 1, no warmup."""
    config = _config(telemetry_window=5000, span_sample_rate=1,
                     mshr_entries=32)
    tracer = EventTracer()
    result = run_one("silc", "mcf", config, misses_per_core=MISSES,
                     seed=SEED, warmup_fraction=0.0, tracer=tracer)
    return result, tracer


@pytest.fixture(scope="module")
def coalescing_result(coalescing_run):
    return coalescing_run[0]


def test_coalesced_siblings_match_mshr_stat(coalescing_result):
    """With warmup off and rate 1 every transaction carries a span, so
    the collector's sibling count equals the MSHR's coalesced stat."""
    spans = coalescing_result.telemetry["spans"]
    assert coalescing_result.extras["mshr_coalesced"] > 0
    assert (spans["coalesced_siblings"]
            == coalescing_result.extras["mshr_coalesced"])


def test_stage_sums_reconcile_under_mshr(coalescing_result):
    """Satellite of the silc-mshr32 postmortem: with a 32-entry MSHR at
    rate 1 the reconciliation line still closes at <=1%.  Structural-
    stall cycles live in the issue->admit segment (``mshr_wait``), not
    in the dispatch->retire stage partition, so they must be neither
    double-counted into the stage sums nor dropped from the span's
    latency total."""
    spans = coalescing_result.telemetry["spans"]
    staged = spans["stage_cycles_total"]
    demand = spans["demand_stall_cycles"]
    assert demand > 0
    assert abs(staged - demand) <= 0.01 * demand
    # 800 misses/core through 32 entries stalls structurally, and the
    # queue wait is attributed (admit - issue), not erased at admission
    assert coalescing_result.extras["mshr_structural_stalls"] > 0
    waits = spans["wait_cycles"]
    assert waits["mshr_wait"] > 0
    # exact partition: issue->admit->dispatch->retire covers the whole
    # latency, so waits + service reconstruct it with nothing lost
    assert spans["latency_cycles"] == pytest.approx(
        spans["service_cycles"] + waits["mshr_wait"]
        + waits["dispatch_wait"], rel=1e-9)


def test_every_sibling_has_a_paired_flow(coalescing_run):
    result, tracer = coalescing_run
    events = tracer.events()
    assert tracer.dropped == 0  # nothing truncated at this size
    assert validate_chrome_trace(events) == len(events)
    flows = [e for e in events if e.get("cat") == "span.flow"]
    starts = [e["id"] for e in flows if e["ph"] == "s"]
    finishes = [e["id"] for e in flows if e["ph"] == "f"]
    assert len(starts) == result.telemetry["spans"]["coalesced_siblings"]
    assert sorted(starts) == sorted(finishes)
    assert len(set(starts)) == len(starts)  # ids are unique
