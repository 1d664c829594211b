"""Latency-attribution reports from telemetry artifacts.

``python -m repro analyze <artifact>`` turns a span-enabled series file
(``*.series.json``, written by ``repro run`` through
:func:`repro.telemetry.write_artifacts`) into the Figure-6-style
breakdown the spans were recorded for: where each sampled request's
cycles went (per-stage shares), which Table I rows dominate the tail
(per-row p50/p95/p99), and which coalescing chains amortised the most
misses.  The ``spans`` sub-object carries the
collector's exact cycle aggregates plus the reconciliation denominator
(``demand_stall_cycles``), so the report can state what fraction of the
controller's accounted stall cycles the sampled stage sums cover.

The one writer of a Chrome trace, ``repro run --telemetry``, writes
the series file beside it, so the series file is the one input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.stats.report import format_table

PathLike = Union[str, Path]


class AnalyzeError(ValueError):
    """The artifact cannot be analysed (unreadable, or carries no span
    data — e.g. a run recorded without ``--span-sample-rate``)."""


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------

def load_artifact(path: PathLike) -> Dict:
    """Load a series file into one report-ready dict:
    ``{"source", "run", "spans"}``."""
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise AnalyzeError(f"{path}: not readable JSON: {exc}")
    if not isinstance(data, dict):
        raise AnalyzeError(f"{path}: expected a JSON object artifact")
    if "traceEvents" in data:
        raise AnalyzeError(f"{path}: a Chrome trace (open it in Perfetto);"
                           " analyze reads the .series.json beside it")
    spans = data.get("spans")
    if not isinstance(spans, dict):
        raise AnalyzeError(
            f"{path}: series carries no 'spans' object — was the run "
            "recorded with --span-sample-rate?")
    return {"source": str(path), "run": data.get("run"), "spans": spans}


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _fmt(value, precision: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.{precision}f}"
    return f"{value:,}"


def render_report(data: Dict, top: int = 5) -> str:
    """One-screen latency-attribution report for a loaded artifact."""
    spans = data["spans"]
    blocks: List[str] = [_header(data)]
    if spans.get("spans", 0) == 0:
        blocks.append("no spans retired after warmup — nothing to "
                      "attribute (try a longer run or rate 1)")
        return "\n\n".join(blocks)

    blocks.append(_sampling_line(spans))
    blocks.append(_stage_table(spans))
    waits = _wait_block(spans)
    if waits:
        blocks.append(waits)
    blocks.append(_latency_line(spans))
    blocks.append(_row_table(spans))
    chains = _chain_table(spans, top)
    if chains:
        blocks.append(chains)
    recon = _reconciliation_line(spans)
    if recon:
        blocks.append(recon)
    unobserved = _unobserved_rows(spans)
    if unobserved:
        blocks.append(unobserved)
    return "\n\n".join(blocks)


def _header(data: Dict) -> str:
    run = data.get("run")
    if run:
        bits = [f"{run.get('scheme', '?')}/{run.get('workload', '?')}"]
        if run.get("seed") is not None:
            bits.append(f"seed {run['seed']}")
        if run.get("config_digest"):
            bits.append(f"config {run['config_digest']}")
        label = ", ".join(bits)
    else:
        label = data["source"]
    return f"Latency attribution — {label} [series]"


def _sampling_line(spans: Dict) -> str:
    parts = [f"{spans.get('spans', 0):,} spans"]
    if spans.get("sample_rate"):
        parts.append(f"sample rate 1/{spans['sample_rate']}")
    if spans.get("arrivals") is not None:
        parts.append(f"{spans['arrivals']:,} arrivals")
    if spans.get("coalesced_siblings"):
        parts.append(f"{spans['coalesced_siblings']:,} coalesced siblings")
    if spans.get("unretired"):
        parts.append(f"{spans['unretired']} still in flight at halt")
    return ", ".join(parts)


def _stage_table(spans: Dict) -> str:
    rows = []
    for label, rec in sorted(spans.get("stages", {}).items(),
                             key=lambda kv: -kv[1]["cycles"]):
        rows.append([label, _fmt(rec["cycles"]), _fmt(rec["count"], 0),
                     f"{rec['share'] * 100:.1f}%", _fmt(rec.get("p50")),
                     _fmt(rec.get("p95")), _fmt(rec.get("p99"))])
    return format_table(
        ["stage", "cycles", "count", "share", "p50", "p95", "p99"], rows,
        title="Per-stage service time (cycles)")


def _wait_block(spans: Dict) -> Optional[str]:
    waits = spans.get("wait_cycles")
    dram = spans.get("dram")
    if not waits and not dram:
        return None
    lines = []
    if waits:
        lines.append(
            f"waits (cycles): mshr (pending-queue) "
            f"{_fmt(waits.get('mshr_wait', 0.0))}, dispatch (epoch stalls) "
            f"{_fmt(waits.get('dispatch_wait', 0.0))}")
    if dram:
        lines.append(
            f"dram (cycles): queue+bank-prep {_fmt(dram['queue_cycles'])}, "
            f"data burst {_fmt(dram['service_cycles'])}")
    return "\n".join(lines)


def _latency_line(spans: Dict) -> str:
    lat = spans.get("latency", {})
    return (f"request latency (cycles): mean {_fmt(lat.get('mean'))}, "
            f"p50 {_fmt(lat.get('p50'))}, p95 {_fmt(lat.get('p95'))}, "
            f"p99 {_fmt(lat.get('p99'))}, max {_fmt(lat.get('max'))}")


def _row_table(spans: Dict) -> str:
    total = spans.get("spans", 0) or 1
    rows = []
    for name, rec in sorted(spans.get("rows", {}).items(),
                            key=lambda kv: -kv[1]["cycles"]):
        rows.append([name, _fmt(rec["count"], 0),
                     f"{rec['count'] / total * 100:.1f}%",
                     _fmt(rec["mean"]), _fmt(rec.get("p50")),
                     _fmt(rec.get("p95")), _fmt(rec.get("p99")),
                     _fmt(rec.get("coalesced", 0), 0)])
    return format_table(
        ["row", "count", "share", "mean cycles", "p50", "p95", "p99",
         "coalesced"],
        rows, title="Table I row breakdown")


def _chain_table(spans: Dict, top: int) -> Optional[str]:
    chains = spans.get("top_chains", [])[:top]
    if not chains:
        return None
    rows = [[c["span"], c["siblings"], _fmt(c["latency"]),
             f"0x{c['paddr']:x}", c["row"]] for c in chains]
    return format_table(
        ["span", "siblings", "latency", "paddr", "row"], rows,
        title=f"Top coalescing chains (most misses amortised, top {top})")


def _reconciliation_line(spans: Dict) -> Optional[str]:
    """Sampled per-stage sums vs the controller's total demand stall:
    at rate 1 these must agree (the acceptance check); at higher rates
    the coverage fraction says how representative the sample is."""
    demand = spans.get("demand_stall_cycles")
    if demand is None:
        return None
    staged = spans.get("stage_cycles_total", 0.0)
    if demand <= 0:
        return "reconciliation: no demand stall cycles accounted"
    coverage = staged / demand
    return (f"reconciliation: stage sums cover {coverage * 100:.2f}% of "
            f"{demand:,.0f} controller-accounted demand stall cycles")


def _unobserved_rows(spans: Dict) -> Optional[str]:
    declared = spans.get("rows_declared")
    if not declared:
        return None
    missing = [row for row in declared if row not in spans.get("rows", {})]
    if not missing:
        return None
    return ("declared rows never observed in this run: "
            + ", ".join(sorted(missing)))


def analyze(path: PathLike, top: int = 5) -> str:
    """Load ``path`` and render its report (the CLI entry point)."""
    return render_report(load_artifact(path), top=top)
