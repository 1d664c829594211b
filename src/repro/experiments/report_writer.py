"""EXPERIMENTS.md: every paper artefact as one markdown section, and the
paper's shape claims checked against the tables just computed.

:mod:`repro.experiments.figures` computes each artefact and this module
renders it.  ``repro report`` writes every section and ``repro figure
NAME`` prints one; both compute through :data:`SECTIONS`, which fixes
each section's trace length from the one ``misses_per_core``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments import figures
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.runner import SCHEMES
from repro.sim.config import SystemConfig, config_digest, default_config
from repro.stats.collectors import geometric_mean
from repro.workloads.spec import HIGH_MPKI, LOW_MPKI

#: {section name -> the table its figures function returned}
Tables = Dict[str, Any]

#: Fig. 8's ideal NM share: 4 of every 5 requests (4:1 NM:FM bandwidth)
FIG8_IDEAL = 0.8
FIG8_PAPER = {"hma": 0.71, "pom": 0.58, "silc": 0.76}
_MIGRATING = [s for s in figures.FIG7_SCHEMES if s != "rand"]

#: what each SILC-FM Table I row does
TABLE1_ACTIONS = {
    "row1": "remap match, bit set: service from NM",
    "row2": "remap match, bit clear: swap subblock in from FM",
    "row3": "mismatch, bit set, NM address: swap native back",
    "row4": "mismatch, bit clear, NM address: service from NM",
    "row5": "mismatch, FM address: restore block + swap",
    "all-locked": "set fully locked: service from FM",
    "nm-displaced-by-lock": "NM address under an FM lock: service from FM",
}


# ---------------------------------------------------------------- rendering
def _md_table(headers: Sequence[str], rows: List[List]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(str(c) for c in row) + " |"
                 for row in rows)
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _grid(table: Dict[str, Dict], first: str = "workload",
          labels: Optional[Dict[str, str]] = None) -> str:
    """{column -> {row -> value}} with one markdown row per inner key."""
    keys = list(next(iter(table.values())))
    rows = [[k] + [_fmt(per[k]) for per in table.values()] for k in keys]
    return _md_table([first] + [(labels or {}).get(c, c) for c in table],
                     rows)


def _vs_best(values: Dict[str, float], best: str, paper: str) -> str:
    return (f"SILC-FM vs {SCHEMES[best].label}, the best other scheme: "
            f"**{values['silc'] / values[best]:.3f}x** (paper: {paper}).")


def _render_table1(counts: Dict[str, int]) -> str:
    total = sum(counts.values()) or 1
    rows = [[row, TABLE1_ACTIONS.get(row.partition("+")[0], "")
             + (" (hot block locked)" if "+lock" in row else ""),
             f"{count:,}", f"{count / total:.1%}"]
            for row, count in counts.items()]
    return (_md_table(["row", "action (Table I)", "count", "share"], rows)
            + "\n\nPost-warmup demand transactions, every miss span-traced;"
              " each `-bypass` variant is folded into its base row.")


def _render_table2(params: Dict[str, Tuple[str, str]]) -> str:
    return _md_table(["parameter", "paper (Table II)", "simulated"],
                     [[name, *values] for name, values in params.items()])


def _render_table3(rows: Dict[str, Dict]) -> str:
    return _md_table(
        ["benchmark", "class", "target MPKI", "measured MPKI", "pages/core",
         "hot set fits LLC"],
        [[name, r["category"], f"{r['target_mpki']:.1f}",
          f"{r['measured_mpki']:.1f}", r["footprint_pages_per_core"],
          "yes" if r["llc_absorbs"] else "no"] for name, r in rows.items()])


def _render_fig6(table: Dict[str, Dict]) -> str:
    labels = dict(figures.FIG6_LABELS, rand="Random")
    geo = {stage: per["geomean"] for stage, per in table.items()}
    steps = ", ".join(f"{labels[cur]} {geo[cur] / geo[prev] - 1:+.1%}"
                      for prev, cur in zip(geo, list(geo)[1:]))
    return (_grid(table, labels=labels)
            + f"\n\nGeomean step gains: {steps}.  Paper: swap-only ≈ 1.55x "
              "over static placement, +11%/+8%/+8% from locking/"
              "associativity/bypass, full stack ≈ 1.82x.")


def _render_fig7(table: Dict[str, Dict]) -> str:
    geo = {s: per["geomean"] for s, per in table.items()}
    best = max((s for s in geo if s != "silc"), key=geo.get)
    return (_grid(table, labels={s: SCHEMES[s].label for s in table})
            + "\n\n" + _vs_best(geo, best, "1.36x"))


def _render_fig8(shares: Dict[str, float]) -> str:
    return (_md_table(["scheme", "NM share", "paper"],
                      [[SCHEMES[s].label, _fmt(v), FIG8_PAPER.get(s, "-")]
                       for s, v in shares.items()])
            + "\n\nMean fraction of demand requests serviced from NM (the "
              "access rate), migrations excluded.")


def _render_fig9(table: Dict[str, Dict[int, float]]) -> str:
    columns = {f"NM=1/{r}": {SCHEMES[s].label: per[r]
                             for s, per in table.items()}
               for r in next(iter(table.values()))}
    return (_grid(columns, "scheme") + "\n\nPaper: SILC-FM 1.83 → 2.04; "
            "best other 1.47 → 1.76 over the same sweep.")


def _render_edp(ratios: Dict[str, float]) -> str:
    best = min((s for s in ratios if s != "silc"), key=ratios.get)
    return (_md_table(["scheme", "geomean EDP ratio"],
                      [[SCHEMES[s].label, _fmt(v)] for s, v in ratios.items()])
            + "\n\n" + _vs_best(ratios, best, "~0.87x"))


def _render_ablations(table: Dict[str, Dict]) -> str:
    blocks = [
        (f"Hot threshold ({figures.THRESHOLD_WORKLOAD})",
         _grid({"speedup": table["threshold"]}, "hot threshold"),
         "a threshold of 50 works best."),
        (f"Associativity ({', '.join(figures.ASSOC_WORKLOADS)})",
         _grid({f"{w}-way": per for w, per in table["associativity"].items()}),
         "more ways remove conflicts, so SILC-FM adopts 4 (gcc +36%)."),
        (f"Bypass target access rate ({figures.BYPASS_WORKLOAD})",
         _grid({"speedup": table["bypass"]}, "target"),
         "serve 1/(N+1) of the accesses from the slower of N+1 bandwidth "
         "units — 0.8 for 4:1."),
        (f"Way/location predictor ({figures.PREDICTOR_WORKLOAD})",
         _grid(table["predictor"], "predictor"),
         "the predictor makes the associative structure latency-competitive."),
    ]
    return "\n\n".join(f"### {title}\n\n{grid}\n\nPaper: {note}"
                       for title, grid, note in blocks)


# ------------------------------------------------------------------ claims
_OPS = {">": operator.gt, ">=": operator.ge,
        "<": operator.lt, "<=": operator.le}

#: (measured value, requirement, holds), the first two as shown
Measure = Tuple[str, str, bool]


def _holds(value: float, op: str, bound: float) -> Measure:
    shown = f"{value:,}" if isinstance(value, int) else _fmt(value)
    return shown, f"{op} {bound:g}", _OPS[op](value, bound)


def _worst(values: List[float], op: str, bound: float) -> Measure:
    """Every value ``op bound``, measured as the one nearest failing."""
    if not values:
        return "none", f"{op} {bound:g}", True
    return _holds(min(values) if op[0] == ">" else max(values), op, bound)


def _gm(t: Tables, section: str, series: str) -> float:
    return t[section][series]["geomean"]


def _ratio(t: Tables, section: str, a: str, b: str, op: str,
           bound: float) -> Measure:
    """Geomean of series ``a`` over series ``b`` in one section."""
    return _holds(_gm(t, section, a) / _gm(t, section, b), op, bound)


def _row(t: Tables, n: int) -> int:
    """Table I row ``n`` including its lock-pinned hits."""
    return t["table1"].get(f"row{n}", 0) + t["table1"].get(f"row{n}+lock", 0)


def _mpki(t: Tables, absorbs: bool,
          category: Optional[str] = None) -> List[Tuple[float, float]]:
    """(measured, target) MPKI of the Table III rows selected."""
    return [(r["measured_mpki"], r["target_mpki"])
            for r in t["table3"].values() if r["llc_absorbs"] == absorbs
            and category in (None, r["category"])]


def _swap_gain(t: Tables, workloads: List[str]) -> float:
    """Geomean gain of bare swapping over Random on ``workloads``."""
    return geometric_mean([t["fig6"]["silc-swap"][wl] / t["fig6"]["rand"][wl]
                           for wl in workloads])


def _fig8_distance(t: Tables) -> Measure:
    distance = {s: abs(t["fig8"][s] - FIG8_IDEAL) for s in _MIGRATING}
    return _holds(distance["silc"] - min(distance.values()), "<=", 0.1)


def _fig8_range(t: Tables) -> Measure:
    shares = [t["fig8"][s] for s in _MIGRATING]
    return (f"{min(shares):.3f} to {max(shares):.3f}", "in (0.3, 1]",
            all(0.3 < share <= 1.0 for share in shares))


def _fig9_retention(t: Tables) -> Measure:
    silc, cam = t["fig9"]["silc"], t["fig9"]["cam"]
    return _holds((silc[16] / silc[4]) / (cam[16] / cam[4]), ">=", 0.9)


def _threshold_mid(t: Tables) -> Measure:
    low, mid_a, mid_b, high = t["ablations"]["threshold"].values()
    return _holds(max(mid_a, mid_b) / min(low, high), ">=", 0.95)


def _bypass_balanced(t: Tables) -> Measure:
    curve = dict(t["ablations"]["bypass"])
    off = curve.pop("off")
    return _holds(max(curve.values()) / off, ">=", 0.97)


def _predictor(t: Tables, field: str, enabled: str = "on") -> float:
    return t["ablations"]["predictor"][enabled][field]


@dataclass(frozen=True)
class Claim:
    """One of the paper's shape claims, keyed ``<section>-<name>``:
    ``check`` measures one quantity on the report's tables against a
    fixed threshold."""

    key: str
    text: str
    check: Callable[[Tables], Measure]


@dataclass(frozen=True)
class Verdict:
    """A claim's measured value, requirement and outcome."""

    claim: Claim
    measured: str
    required: str
    passed: bool

    def __str__(self) -> str:
        return (f"{self.claim.key}: {self.claim.text}: measured "
                f"{self.measured}, required {self.required}")


CLAIMS: List[Claim] = [
    Claim("table1-rows-exercised", "fewest uses of a Table I row 1-5",
          lambda t: _holds(min(_row(t, n) for n in range(1, 6)), ">", 0)),
    Claim("table1-nm-service-dominates", "share of rows 1 and 4 (NM service)",
          lambda t: _holds((_row(t, 1) + _row(t, 4))
                           / sum(t["table1"].values()), ">", 0.3)),
    Claim("table3-absorbed-mpki", "measured/target MPKI, hot set in the LLC",
          lambda t: _worst([m / x for m, x in _mpki(t, True)], "<=", 1.35)),
    Claim("table3-mpki-near-target", "relative MPKI error elsewhere",
          lambda t: _worst([abs(m / x - 1) for m, x in _mpki(t, False)],
                           "<=", 0.35)),
    Claim("table3-low-class", "measured MPKI of low-MPKI benchmarks",
          lambda t: _worst([m for m, _ in _mpki(t, False, "low")], "<", 13)),
    Claim("table3-high-class", "measured MPKI of high-MPKI benchmarks",
          lambda t: _worst([m for m, _ in _mpki(t, False, "high")], ">", 28)),
    Claim("table3-mcf-largest-footprint", "mcf's footprint / the largest",
          lambda t: _holds(t["table3"]["mcf"]["footprint_pages_per_core"]
                           / max(r["footprint_pages_per_core"]
                                 for r in t["table3"].values()), ">=", 1)),
    Claim("fig6-swap-beats-random", "bare swapping / Random",
          lambda t: _ratio(t, "fig6", "silc-swap", "rand", ">", 1)),
    Claim("fig6-stack-beats-random", "full stack / Random",
          lambda t: _ratio(t, "fig6", "silc", "rand", ">", 1.3)),
    Claim("fig6-stack-beats-swap", "full stack / bare swapping",
          lambda t: _ratio(t, "fig6", "silc", "silc-swap", ">=", 1)),
    Claim("fig6-swap-helps-high-mpki", "swap gain over Random, high-MPKI",
          lambda t: _holds(_swap_gain(t, HIGH_MPKI), ">", 1)),
    Claim("fig6-swap-high-vs-low-mpki", "high-MPKI / low-MPKI swap gain",
          lambda t: _holds(_swap_gain(t, HIGH_MPKI)
                           / _swap_gain(t, LOW_MPKI), ">", 0.8)),
    Claim("fig7-silc-best", "SILC-FM / the best other scheme",
          lambda t: _holds(_gm(t, "fig7", "silc") / max(
              _gm(t, "fig7", s) for s in t["fig7"] if s != "silc"), ">=", 1)),
    Claim("fig7-migrating-beat-random",
          "CAMEO, CAMEO+P, PoM, SILC-FM / Random",
          lambda t: _worst([_gm(t, "fig7", s) / _gm(t, "fig7", "rand")
                            for s in ("cam", "camp", "pom", "silc")],
                           ">", 0.95)),
    Claim("fig7-hma-near-random", "HMA / Random",
          lambda t: _ratio(t, "fig7", "hma", "rand", ">", 0.8)),
    Claim("fig7-silc-wins-high-mpki", "SILC-FM's high-MPKI geomean speedup",
          lambda t: _holds(geometric_mean(
              [t["fig7"]["silc"][wl] for wl in HIGH_MPKI]), ">", 1.2)),
    Claim("fig8-silc-near-ideal", "SILC-FM's distance from 0.8 beyond the "
          "nearest scheme's", _fig8_distance),
    Claim("fig8-silc-no-overshoot", "SILC-FM's NM share",
          lambda t: _holds(t["fig8"]["silc"], "<=", FIG8_IDEAL + 0.05)),
    Claim("fig8-random-mostly-fm", "Random's NM share",
          lambda t: _holds(t["fig8"]["rand"], "<", 0.5)),
    Claim("fig8-migrating-shares", "migrating schemes' NM shares",
          _fig8_range),
    Claim("fig9-silc-gains-capacity", "SILC-FM at NM=1/4 / at 1/16",
          lambda t: _holds(t["fig9"]["silc"][4] / t["fig9"]["silc"][16],
                           ">=", 1)),
    Claim("fig9-silc-leads", "SILC-FM / the best scheme, per ratio",
          lambda t: _worst([t["fig9"]["silc"][r] / max(
              per[r] for per in t["fig9"].values())
              for r in t["fig9"]["silc"]], ">=", 0.97)),
    Claim("fig9-silc-degrades-less", "1/16-to-1/4 retention, SILC-FM / CAMEO",
          _fig9_retention),
    Claim("edp-silc-lowest", "SILC-FM / the best other scheme",
          lambda t: _holds(t["edp"]["silc"] / min(
              v for s, v in t["edp"].items() if s != "silc"), "<=", 1)),
    Claim("edp-beats-baseline", "CAMEO, PoM and SILC-FM vs no-NM",
          lambda t: _worst([t["edp"][s] for s in ("cam", "pom", "silc")],
                           "<", 1)),
    Claim("ablations-assoc-geomean", "4-way / direct-mapped (geomean)",
          lambda t: _ratio(t["ablations"], "associativity", "4", "1", ">=",
                           0.9)),
    Claim("ablations-assoc-gcc", "4-way / direct-mapped on gcc",
          lambda t: _holds(t["ablations"]["associativity"]["4"]["gcc"]
                           / t["ablations"]["associativity"]["1"]["gcc"],
                           ">=", 0.9)),
    Claim("ablations-bypass-balanced", "best bypass target / never",
          _bypass_balanced),
    Claim("ablations-threshold-mid", "best mid hot threshold / worst extreme",
          _threshold_mid),
    Claim("ablations-predictor-helps", "with / without the predictor",
          lambda t: _holds(_predictor(t, "speedup")
                           / _predictor(t, "speedup", "off"), ">=", 1)),
    Claim("ablations-predictor-accuracy", "the predictor's way accuracy",
          lambda t: _holds(_predictor(t, "way_accuracy"), ">", 0.7)),
]


def evaluate_claims(tables: Tables) -> List[Verdict]:
    """Every claim's verdict on ``tables`` (all artefact tables)."""
    return [Verdict(claim, *claim.check(tables)) for claim in CLAIMS]


def _render_claims(verdicts: List[Verdict]) -> str:
    rows = [[f"`{v.claim.key}`", v.claim.text, v.measured, v.required,
             "PASS" if v.passed else "**FAIL**"] for v in verdicts]
    held = sum(v.passed for v in verdicts)
    return (_md_table(["claim", "measured quantity", "value", "required",
                       "verdict"], rows)
            + f"\n\n**{held} of {len(verdicts)} claims hold.**  `repro "
              "report` exits 1 naming every claim that fails.")


# ---------------------------------------------------------------- sections
@dataclass(frozen=True)
class Section:
    """A report section: heading, table (from the report's config,
    misses per core, executor and workloads) and its renderer."""

    heading: str
    compute: Callable[[SystemConfig, int, ExperimentExecutor,
                       Optional[List[str]]], Any]
    render: Callable[[Any], str]
    #: whether ``repro figure NAME --workloads ...`` can narrow it
    per_workload: bool = True


SECTIONS: Dict[str, Section] = {
    "table1": Section(
        "Table I — SILC-FM operation mix",
        lambda c, m, ex, wl: figures.table1_operations(
            c, figures.half_length(m), wl, ex), _render_table1),
    "table2": Section(
        "Table II — system parameters",
        lambda c, m, ex, wl: figures.table2_parameters(c), _render_table2,
        per_workload=False),
    "table3": Section(
        "Table III — workloads measured through the cache hierarchy",
        lambda c, m, ex, wl: figures.table3_measured(
            c, figures.TABLE3_MISSES_PER_CORE, wl, ex), _render_table3),
    "fig6": Section(
        "Fig. 6 — feature breakdown (speedup over no-NM baseline)",
        lambda c, m, ex, wl: figures.fig6_breakdown(c, m, wl, ex),
        _render_fig6),
    "fig7": Section(
        "Fig. 7 — scheme comparison (speedup over no-NM baseline)",
        lambda c, m, ex, wl: figures.fig7_comparison(c, m, wl, ex),
        _render_fig7),
    "fig8": Section(
        f"Fig. 8 — NM share of demand traffic (ideal {FIG8_IDEAL})",
        lambda c, m, ex, wl: figures.fig8_bandwidth_split(c, m, wl, ex),
        _render_fig8),
    "fig9": Section(
        "Fig. 9 — NM capacity sweep (geomean speedup over no-NM)",
        lambda c, m, ex, wl: figures.fig9_capacity_sweep(
            c, figures.half_length(m), wl, ex), _render_fig9),
    "edp": Section(
        "§V — EDP normalised to no-NM baseline (lower is better)",
        lambda c, m, ex, wl: figures.edp_comparison(c, m, wl, ex),
        _render_edp),
    "ablations": Section(
        "§III — design ablations (speedup over no-NM baseline)",
        lambda c, m, ex, wl: figures.ablations(c, figures.half_length(m), ex),
        _render_ablations, per_workload=False),
}

#: every section of the report, in order: the artefacts, then the
#: claims checked against them
SECTION_NAMES = list(SECTIONS) + ["claims"]


def compute_tables(config: SystemConfig, misses_per_core: int,
                   executor: ExperimentExecutor,
                   names: Optional[List[str]] = None,
                   workloads: Optional[List[str]] = None) -> Tables:
    """The tables of artefact sections ``names`` (default: all, which
    the claims need)."""
    return {name: SECTIONS[name].compute(config, misses_per_core, executor,
                                         workloads)
            for name in names or SECTIONS}


def render_section(name: str, tables: Tables) -> str:
    """Section ``name`` as markdown, from its table (or, for 'claims',
    from every artefact's)."""
    if name == "claims":
        heading, body = "Paper claims", _render_claims(evaluate_claims(tables))
    else:
        heading = SECTIONS[name].heading
        body = SECTIONS[name].render(tables[name])
    return f"## {heading}\n\n{body}\n"


def _header(config: SystemConfig, misses_per_core: int) -> str:
    return (
        "# EXPERIMENTS — paper vs measured\n\n"
        f"Generated by `python -m repro report --misses {misses_per_core}`"
        " (`python -m repro figure NAME` prints one section: "
        f"{', '.join(SECTION_NAMES)}) on DESIGN.md's scaled Table II system:"
        f" NM {config.nm_bytes >> 20} MiB + FM {config.fm_bytes >> 20} MiB,"
        f" {config.cores} cores, seed {config.seed}, config digest "
        f"`{config_digest(config)}`.  Figs. 6–8 and EDP run "
        f"{misses_per_core:,} LLC misses per core; Fig. 9 "
        f"({', '.join(figures.FIG9_WORKLOADS)}), the ablations and Table I "
        f"({', '.join(figures.TABLE1_WORKLOADS)}) run "
        f"{figures.half_length(misses_per_core):,}, each after a 20% warmup;"
        f" Table III runs {figures.TABLE3_MISSES_PER_CORE:,} reference-mode "
        "misses per core, no warmup.  Ratios match the paper's system; "
        "absolute cycle counts do not.\n")


KNOWN_DEVIATIONS = (
    "## Known deviations from the paper\n\n"
    "* **SILC-FM leads by far less than the paper's 1.36x.**  PoM is "
    "stronger here: the synthetic hot sets reward its one-time "
    "whole-page placement more than the authors' traces did, and it "
    "beats SILC-FM on a few workloads (Fig. 7).\n"
    "* **Locking costs a little on the geomean** (paper: +11%).  Runs "
    "at simulation scale are too short to amortise fully displacing a "
    "native page; on xalancbmk, the paper's locking showcase, a hot "
    "threshold the 6-bit counters never reach does best (ablations).  "
    "The locking machinery itself (thresholds, aging, unlocking, the "
    "all-locked fallback) is implemented and unit-tested per the "
    "paper.\n"
    "* **Associativity's gain is small and workload-dependent** (paper: "
    "+8% on average, gcc +36%).  More ways buy a higher access rate but "
    "spread the NM-resident set over more DRAM rows at scaled "
    "capacities (DESIGN.md 5b).\n"
    "* **The bypass-target ablation is flat.**  milc's NM access rate "
    "stays far below every target here (the paper's milc exceeds 0.8), "
    "so the balancer never engages on it and that claim holds "
    "trivially; it does engage on mcf and libquantum, whose access "
    "rates sit at the 0.8 target.\n"
    "* **Fig. 9 is not monotone for SILC-FM:** it peaks at NM = 1/8, "
    "above 1/4 (the checked claim, 1/4 at least 1/16, holds).\n"
    "* **HMA's absolute level depends on the scaled epoch economics** "
    "(DESIGN.md 5b); its qualitative behaviour — fully associative "
    "placement wins on stable hot sets, epoch lag loses on churn — "
    "matches the paper.\n"
    "* **CAMEO+prefetch overshoots the NM share** exactly as the "
    "paper's Fig. 8 describes; on some workloads that costs it "
    "performance relative to plain CAMEO.\n")


def write_experiments_report(path: Union[str, Path],
                             config: Optional[SystemConfig] = None,
                             misses_per_core: int = figures.MISSES_PER_CORE,
                             executor: Optional[ExperimentExecutor] = None
                             ) -> List[Verdict]:
    """Compute every artefact, write the markdown report to ``path``
    and return the claims' verdicts (the file is written either way)."""
    config = config or default_config()
    tables = compute_tables(config, misses_per_core,
                            executor or ExperimentExecutor(jobs=1))
    parts = [_header(config, misses_per_core)]
    parts.extend(render_section(name, tables) for name in SECTION_NAMES)
    Path(path).write_text("\n".join(parts + [KNOWN_DEVIATIONS]))
    return evaluate_claims(tables)
