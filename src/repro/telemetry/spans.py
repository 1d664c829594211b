"""Per-request span tracing: where did a miss's cycles actually go?

Windowed counters (:mod:`repro.telemetry.hub`) say *how much* traffic
each component moved; they cannot say *where one request's latency came
from* — the decomposition behind the paper's Figure 6 latency breakdown
and Table I operation rows.  This module adds that axis:

* :class:`Span` — rides a sampled :class:`~repro.cpu.mshr.MemoryRequest`
  through the transaction pipeline and records cycle-stamped stage
  transitions: core issue → MSHR admit (or pending-queue wait) →
  controller dispatch (epoch stalls show up here) → scheme decision
  (the Table I row, via :meth:`MemoryScheme.span_row`) → per-stage
  device service (metadata fetch vs NM/FM data, with the DRAM queue vs
  burst split attributed by the channel) → retire.  Coalesced MSHR
  siblings register join timestamps on the parent's span.
* :class:`SpanCollector` — aggregates spans into per-stage cycle totals,
  per-Table-I-row latency histograms with p50/p95/p99 tails, wait-cycle
  accounting and the top coalescing chains.
* :class:`SpanRecorder` — the sampling front door.  Sampling is a
  **deterministic modulo** over the miss-arrival sequence (request
  ``seq % rate == 0``), so a given config samples the same requests on
  every run, and rate 0 (the default) constructs nothing at all:
  golden results are byte-identical to pre-span builds.
  When the recorder is given an :class:`EventTracer`, sampled spans are
  also emitted into it as Perfetto complete ("X") events — one slice
  per request plus one per pipeline stage — with flow ("s"/"f") events
  linking every coalesced sibling's join point to the parent's
  retirement.  Without one, the aggregates are all it keeps.

Spans only *observe*: they schedule no events and read timestamps the
pipeline already produces, so figures of merit are bit-identical with
spans on and off.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.schemes.base import NM, Op
from repro.sim.config import SUBBLOCK_BYTES
from repro.stats.collectors import Histogram
from repro.telemetry.tracer import EventTracer

#: schema of the ``spans`` sub-object inside a telemetry snapshot.
SPANS_SCHEMA_VERSION = 1

#: wait components recorded *outside* the dispatch→retire service path.
WAIT_MSHR = "mshr_wait"
WAIT_DISPATCH = "dispatch_wait"

#: request-latency histogram: 64-cycle buckets out to ~262k cycles.
_LATENCY_BUCKET_WIDTH = 64.0
_LATENCY_MAX_BUCKETS = 4096
#: how many coalescing chains the collector retains for the report.
_TOP_CHAINS = 10


def stage_label(ops: Sequence[Op]) -> str:
    """Classify one plan stage by its device operations.

    Metadata fetches are smaller than a subblock (SILC-FM's segments
    are 8 B); data stages split by which device serviced them.
    """
    meta = True
    nm = fm = False
    for op in ops:
        if op.size >= SUBBLOCK_BYTES:
            meta = False
        if op.level is NM:
            nm = True
        else:
            fm = True
    if meta:
        return "meta"
    if nm and fm:
        return "mixed"
    return "nm_data" if nm else "fm_data"


class Span:
    """Cycle-stamped lifecycle of one sampled memory request."""

    __slots__ = ("sid", "paddr", "is_write", "issue_t", "admit_t",
                 "dispatch_t", "decide_t", "finish_t", "row",
                 "serviced_from", "bypassed", "stages", "siblings",
                 "dram_queue", "dram_service", "_open_label", "_open_t")

    def __init__(self, sid: int, paddr: int, is_write: bool,
                 issue_t: float) -> None:
        self.sid = sid
        self.paddr = paddr
        self.is_write = is_write
        self.issue_t = issue_t
        self.admit_t = issue_t
        self.dispatch_t = issue_t
        self.decide_t = issue_t
        self.finish_t = issue_t
        self.row = ""
        self.serviced_from = ""
        self.bypassed = False
        #: closed stages as ``(label, start, end)`` triples.
        self.stages: List[Tuple[str, float, float]] = []
        #: join timestamps of coalesced MSHR siblings.
        self.siblings: List[float] = []
        #: DRAM cycles split by the channel: bank/bus queueing vs burst.
        self.dram_queue = 0.0
        self.dram_service = 0.0
        self._open_label: Optional[str] = None
        self._open_t = 0.0

    # lifecycle hooks, called by MSHR / controller / channel ------------
    def admit(self, now: float) -> None:
        """MSHR entry allocated (pending-queue wait ends here)."""
        self.admit_t = now

    def dispatch(self, now: float) -> None:
        """Controller accepted the transaction (epoch stalls end here)."""
        self.dispatch_t = now

    def decide(self, row: str, serviced_from: str, bypassed: bool,
               now: float) -> None:
        """Scheme resolved the access to a Table I row."""
        self.row = row
        self.serviced_from = serviced_from
        self.bypassed = bypassed
        self.decide_t = now

    def begin_stage(self, label: str, now: float) -> None:
        self._open_label = label
        self._open_t = now

    def end_stage(self, now: float) -> None:
        """Close the open stage, if any (no-op otherwise)."""
        if self._open_label is not None:
            self.stages.append((self._open_label, self._open_t, now))
            self._open_label = None

    def join(self, now: float) -> None:
        """A coalesced sibling attached to this transaction."""
        self.siblings.append(now)

    def add_dram(self, queue_cycles: float, service_cycles: float) -> None:
        self.dram_queue += queue_cycles
        self.dram_service += service_cycles

    # derived -----------------------------------------------------------
    @property
    def latency(self) -> float:
        """Issue-to-retire cycles (what the core experienced)."""
        return self.finish_t - self.issue_t

    @property
    def service_cycles(self) -> float:
        """Dispatch-to-retire cycles (what the controller accounted)."""
        return self.finish_t - self.dispatch_t


def _percentiles(hist: Histogram) -> Dict[str, Optional[float]]:
    """p50/p95/p99 from a histogram, overflow (``inf``) as ``None`` so
    the snapshot stays strict-JSON."""
    out: Dict[str, Optional[float]] = {}
    for p, key in ((50.0, "p50"), (95.0, "p95"), (99.0, "p99")):
        value = hist.percentile(p)
        out[key] = None if math.isinf(value) else value
    return out


def _latency_histogram() -> Histogram:
    return Histogram(_LATENCY_BUCKET_WIDTH, _LATENCY_MAX_BUCKETS)


class SpanCollector:
    """Aggregates retired spans into the latency-attribution snapshot."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all aggregates (warmup discarding)."""
        self.spans_recorded = 0
        self.coalesced_siblings = 0
        self.latency_total = 0.0
        self.service_total = 0.0
        self.dram_queue_cycles = 0.0
        self.dram_service_cycles = 0.0
        self.wait_cycles: Dict[str, float] = {
            WAIT_MSHR: 0.0, WAIT_DISPATCH: 0.0,
        }
        self.stage_cycles: Dict[str, float] = {}
        self.stage_counts: Dict[str, int] = {}
        self._stage_hists: Dict[str, Histogram] = {}
        self._rows: Dict[str, Dict] = {}
        self._latency_hist = _latency_histogram()
        #: retained chains: (siblings, latency, sid, paddr, row),
        #: kept sorted longest-chain-first.
        self._chains: List[Tuple[int, float, int, int, str]] = []

    # ------------------------------------------------------------------
    def record(self, span: Span) -> None:
        self.spans_recorded += 1
        self.coalesced_siblings += len(span.siblings)
        self.latency_total += span.latency
        self.service_total += span.service_cycles
        self.dram_queue_cycles += span.dram_queue
        self.dram_service_cycles += span.dram_service
        self.wait_cycles[WAIT_MSHR] += span.admit_t - span.issue_t
        self.wait_cycles[WAIT_DISPATCH] += span.dispatch_t - span.admit_t
        self._latency_hist.add(span.latency)
        for label, start, end in span.stages:
            dur = end - start
            self.stage_cycles[label] = self.stage_cycles.get(label, 0.0) + dur
            self.stage_counts[label] = self.stage_counts.get(label, 0) + 1
            hist = self._stage_hists.get(label)
            if hist is None:
                hist = self._stage_hists[label] = _latency_histogram()
            hist.add(dur)
        row = self._rows.get(span.row)
        if row is None:
            row = self._rows[span.row] = {
                "count": 0, "cycles": 0.0, "coalesced": 0,
                "hist": _latency_histogram(),
            }
        row["count"] += 1
        row["cycles"] += span.latency
        row["coalesced"] += len(span.siblings)
        row["hist"].add(span.latency)
        if span.siblings:
            self._note_chain(span)

    def _note_chain(self, span: Span) -> None:
        entry = (len(span.siblings), span.latency, span.sid, span.paddr,
                 span.row)
        chains = self._chains
        chains.append(entry)
        chains.sort(key=lambda c: (-c[0], -c[1], c[2]))
        if len(chains) > _TOP_CHAINS:
            chains.pop()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """JSON-native aggregate view (lists and dicts only)."""
        total_stage = sum(self.stage_cycles.values())
        stages = {}
        for label in sorted(self.stage_cycles):
            cycles = self.stage_cycles[label]
            stages[label] = {
                "cycles": cycles,
                "count": self.stage_counts[label],
                "share": cycles / total_stage if total_stage else 0.0,
                **_percentiles(self._stage_hists[label]),
            }
        rows = {}
        for name in sorted(self._rows):
            rec = self._rows[name]
            rows[name] = {
                "count": rec["count"],
                "cycles": rec["cycles"],
                "coalesced": rec["coalesced"],
                "mean": rec["cycles"] / rec["count"] if rec["count"] else 0.0,
                "max": rec["hist"].max_value,
                **_percentiles(rec["hist"]),
            }
        return {
            "spans": self.spans_recorded,
            "coalesced_siblings": self.coalesced_siblings,
            "latency_cycles": self.latency_total,
            "service_cycles": self.service_total,
            "stage_cycles_total": total_stage,
            "wait_cycles": dict(self.wait_cycles),
            "dram": {
                "queue_cycles": self.dram_queue_cycles,
                "service_cycles": self.dram_service_cycles,
            },
            "latency": {
                "mean": (self.latency_total / self.spans_recorded
                         if self.spans_recorded else 0.0),
                "max": self._latency_hist.max_value,
                **_percentiles(self._latency_hist),
            },
            "stages": stages,
            "rows": rows,
            "top_chains": [
                {"siblings": c[0], "latency": c[1], "span": c[2],
                 "paddr": c[3], "row": c[4]}
                for c in self._chains
            ],
        }


class SpanRecorder:
    """Deterministic sampling front door plus trace emission.

    One recorder per :class:`~repro.cpu.system.System`; the MSHR file
    asks :meth:`arrival` for each new transaction, starts a
    :class:`Span` for the sampled ones when they arrive, and the
    controller/channel hooks do the per-stage stamping.  The sampling
    counter and span ids are **never reset** (unlike the collector's
    aggregates at warmup) so which requests get sampled is a pure
    function of the arrival sequence.
    """

    def __init__(self, sample_rate: int, engine,
                 tracer: Optional[EventTracer] = None,
                 collector: Optional[SpanCollector] = None) -> None:
        if sample_rate < 1:
            raise ValueError("span sample rate must be >= 1")
        self.sample_rate = sample_rate
        self._engine = engine
        self.tracer = tracer
        self.collector = collector if collector is not None else SpanCollector()
        self._seq = 0      # new-transaction arrivals seen
        self._spans = 0    # spans started
        self._retired = 0  # spans retired (never reset; see unretired)

    # ------------------------------------------------------------------
    def arrival(self) -> bool:
        """Deterministic modulo decision for the next new transaction."""
        seq = self._seq
        self._seq = seq + 1
        return seq % self.sample_rate == 0

    def start(self, paddr: int, is_write: bool) -> Span:
        """Begin a span for a sampled request arriving now."""
        sid = self._spans
        self._spans = sid + 1
        return Span(sid, paddr, is_write, self._engine.now)

    def coalesce(self, txn) -> None:
        """A miss coalesced onto ``txn``; note the join on its span."""
        span = txn.span
        if span is not None:
            span.join(self._engine.now)

    def retire(self, txn, when: float) -> None:
        """Transaction completed: close, aggregate, and emit its span."""
        span = txn.span
        txn.span = None
        span.end_stage(when)  # a one-op plan's stage; walks close in _advance
        span.finish_t = when
        self._retired += 1
        self.collector.record(span)
        if self.tracer is not None:
            self._emit(span)

    def reset_stats(self) -> None:
        """Discard warmup aggregates; sampling sequence keeps counting."""
        self.collector.reset()

    # ------------------------------------------------------------------
    @property
    def unretired(self) -> int:
        """Spans still in flight (counted at drain so requests alive at
        halt are reported, not silently dropped)."""
        return self._spans - self._retired

    def snapshot(self) -> Dict:
        snap = self.collector.snapshot()
        snap["schema"] = SPANS_SCHEMA_VERSION
        snap["sample_rate"] = self.sample_rate
        snap["arrivals"] = self._seq
        snap["sampled"] = self._spans
        snap["unretired"] = self.unretired
        return snap

    # ------------------------------------------------------------------
    def _emit(self, span: Span) -> None:
        """Perfetto slices for one span: a request slice, one slice per
        stage, and an s/f flow pair per coalesced sibling.  The whole
        batch is emitted atomically (or dropped whole) so every flow
        start in the trace has its finish."""
        tracer = self.tracer
        count = 1 + len(span.stages) + 2 * len(span.siblings)
        if not tracer.reserve(count):
            return
        tid = 1 + span.sid % 16  # spread spans over a few tracks
        tracer.complete(span.row or "request", "span.request",
                        span.issue_t, span.latency, tid=tid,
                        args={"paddr": span.paddr,
                              "write": span.is_write,
                              "serviced_from": span.serviced_from,
                              "bypassed": span.bypassed,
                              "coalesced": len(span.siblings)})
        for label, start, end in span.stages:
            tracer.complete(label, "span.stage", start, end - start, tid=tid)
        for k, join_t in enumerate(span.siblings):
            flow_id = f"span{span.sid}.{k}"
            tracer.flow("coalesce", "span.flow", join_t, flow_id, "s",
                        tid=tid)
            tracer.flow("coalesce", "span.flow", span.finish_t, flow_id,
                        "f", tid=tid)
