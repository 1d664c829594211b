"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``      simulate one (scheme, workload) pair and print its report
``compare``  several schemes on one workload, speedups over the baseline
``figure``   print one EXPERIMENTS.md section (parallel, resumable)
``schemes``  list the registered schemes
``suite``    list the Table III benchmarks and their parameters
``report``   write EXPERIMENTS.md (every section) and check the paper's
             shape claims; exits 1 naming each failed claim
``analyze``  latency-attribution report from a span-enabled series file

A workload is a Table III benchmark, run in rate mode, or one of the
multiprogrammed mixes of :data:`repro.workloads.spec.MIXES`.

``compare``, ``figure`` and ``report`` fan their (scheme x workload)
cells out over ``--jobs N`` worker processes and memoise each cell in an
on-disk result cache (``--cache-dir``, default ``results/cache``), so an
interrupted sweep resumes where it stopped; ``--force`` re-simulates,
``--no-cache`` disables persistence.

``run`` accepts ``--telemetry`` (and ``--telemetry-window N``) to record
windowed time-series samples and a Chrome-format event trace, and is
the one writer of the artifact files: ``<scheme>-<workload>.series.json``
and ``.trace.json`` under ``--telemetry-out`` (default
``results/telemetry/``).  The sections computed from telemetry
(``figure table1``, the predictor ablation) run their own cells with
telemetry on and read each snapshot — samples, counters and span
aggregates, never trace events — from the cached result.

``--span-sample-rate N`` (implies ``--telemetry``) additionally rides a
:class:`~repro.telemetry.spans.Span` on every Nth memory request,
recording cycle-stamped stage transitions through the transaction
pipeline; ``analyze`` then prints the Figure-6-style latency
attribution (per-stage shares, per-Table-I-row tails, top coalescing
chains) from the written series file.

Examples::

    python -m repro run silc mcf --misses 5000 --telemetry
    python -m repro run silc mcf --misses 5000 --span-sample-rate 1
    python -m repro analyze results/telemetry/silc-mcf.series.json
    python -m repro compare mcf --schemes cam pom silc --jobs 4
    python -m repro run silc mix-blend --misses 2000
    python -m repro figure fig7 --jobs 8
    python -m repro report --jobs 8

Counts (``--jobs``, ``--misses``, ``--check-every``,
``--telemetry-window``, ``--span-sample-rate``, ``--mshr-entries``,
``--top``) are range-checked while parsing: an out-of-range value is a
usage error (exit 2) before any cell is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import List, Optional

from repro.experiments import report_writer
from repro.experiments.executor import (
    DEFAULT_CACHE_DIR,
    Cell,
    ExecutorError,
    ExperimentExecutor,
    Progress,
)
from repro.experiments.figures import MISSES_PER_CORE
from repro.experiments.runner import SCHEMES, run_one
from repro.sim.config import default_config
from repro.telemetry import (DEFAULT_TELEMETRY_WINDOW, EventTracer,
                             write_artifacts)
from repro.validate import DEFAULT_CHECK_EVERY
from repro.stats.report import bar_chart, format_table
from repro.workloads.spec import BENCHMARKS, MIXES, per_core_spec

#: the names ``run`` and ``compare`` accept; ``figure --workloads``
#: takes benchmarks only, as Table III's rows read each name's own spec
_WORKLOADS = BENCHMARKS + list(MIXES)


def _at_least(low: int):
    """argparse ``type`` for an integer flag that must be >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value: 'x'" message
    return parse


def _scale(text: str) -> float:
    """argparse ``type`` for ``--scale``: a finite float > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {value}")
    return value


_scale.__name__ = "float"  # argparse's "invalid float value: 'x'" message


def _add_executor_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--jobs", type=_at_least(1), default=None, metavar="N",
        help="worker processes (default: all CPUs)")
    sub_parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"on-disk result cache (default {DEFAULT_CACHE_DIR})")
    sub_parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache")
    sub_parser.add_argument(
        "--force", action="store_true",
        help="ignore and overwrite existing cache entries")


def _add_misses_flag(sub_parser: argparse.ArgumentParser) -> None:
    # at least 2, so the half-length sections get at least 1 miss/core
    sub_parser.add_argument(
        "--misses", type=_at_least(2), default=MISSES_PER_CORE,
        help="LLC misses per core of the main grid; Fig. 9, the ablations"
             " and Table I run half as many, Table III a fixed count"
             f" (default {MISSES_PER_CORE})")


def _add_check_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--check", action="store_true",
        help="attach the shadow-memory differential oracle (repro.validate)"
             " to every simulation; the run fails on the first metadata or"
             " bijection violation")
    sub_parser.add_argument(
        "--check-every", type=_at_least(1), default=None, metavar="N",
        help="full bijection scan every N misses (implies --check; "
             f"default {DEFAULT_CHECK_EVERY})")


def _add_mshr_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--mshr-entries", type=_at_least(0), default=None, metavar="N",
        help="MSHR file size: same-subblock read misses coalesce onto"
             " one in-flight or queued transaction, arrivals beyond N"
             " entries stall structurally (default: the config's"
             " MLP-sized file; 0 is the compat file, which never fills"
             " or coalesces)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SILC-FM (HPCA 2017) flat-memory simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scheme on one workload")
    run_p.add_argument("scheme", choices=sorted(SCHEMES))
    run_p.add_argument("workload", choices=_WORKLOADS)
    run_p.add_argument("--misses", type=_at_least(1), default=5000,
                       help="LLC misses per core (default 5000)")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--scale", type=_scale, default=None,
                       help="memory capacity scale factor")
    run_p.add_argument(
        "--telemetry", action="store_true",
        help="record windowed time-series samples and a Chrome event"
             " trace, written to --telemetry-out")
    run_p.add_argument(
        "--telemetry-window", type=_at_least(1), default=None,
        metavar="CYCLES",
        help="sampling window in CPU cycles (implies --telemetry; "
             f"default {DEFAULT_TELEMETRY_WINDOW})")
    run_p.add_argument(
        "--span-sample-rate", type=_at_least(1), default=None, metavar="N",
        help="trace every Nth memory request through the pipeline as a"
             " span (1 = every request; implies --telemetry); feed the"
             " written series file to 'repro analyze'")
    run_p.add_argument("--telemetry-out", default=os.path.join(
        "results", "telemetry"), metavar="DIR",
        help="artifact directory for --telemetry runs "
             "(default results/telemetry)")
    _add_check_flags(run_p)
    _add_mshr_flag(run_p)

    cmp_p = sub.add_parser("compare", help="compare schemes on a workload")
    cmp_p.add_argument("workload", choices=_WORKLOADS)
    cmp_p.add_argument("--schemes", nargs="+", default=["cam", "pom", "silc"],
                       choices=sorted(SCHEMES))
    cmp_p.add_argument("--misses", type=_at_least(1), default=5000)
    cmp_p.add_argument("--seed", type=int, default=None)
    cmp_p.add_argument("--scale", type=_scale, default=None)
    _add_check_flags(cmp_p)
    _add_mshr_flag(cmp_p)
    _add_executor_flags(cmp_p)

    fig_p = sub.add_parser(
        "figure", help="print one EXPERIMENTS.md section (parallel,"
                       " resumable)")
    fig_p.add_argument("name", choices=report_writer.SECTION_NAMES)
    _add_misses_flag(fig_p)
    fig_p.add_argument("--scale", type=_scale, default=None)
    fig_p.add_argument("--workloads", nargs="+", default=None,
                       choices=BENCHMARKS,
                       help="subset of the section's workloads (default:"
                            " the report's)")
    _add_check_flags(fig_p)
    _add_executor_flags(fig_p)

    sub.add_parser("schemes", help="list registered schemes")
    sub.add_parser("suite", help="list the Table III benchmark presets")

    report_p = sub.add_parser(
        "report", help="write EXPERIMENTS.md and check the paper's claims")
    report_p.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    _add_misses_flag(report_p)
    _add_check_flags(report_p)
    _add_executor_flags(report_p)

    analyze_p = sub.add_parser(
        "analyze", help="latency-attribution report from a span-enabled"
                        " *.series.json")
    analyze_p.add_argument("path", help="series artifact file")
    analyze_p.add_argument(
        "--top", type=_at_least(0), default=5, metavar="N",
        help="coalescing chains to list (default 5)")
    for sub_parser in sub.choices.values():
        # lets a handler report a bad flag combination as a usage error
        sub_parser.set_defaults(parser=sub_parser)
    return parser


def _with_check(config, args):
    """Fold the ``--check`` / ``--check-every`` flags into a config."""
    check_every = getattr(args, "check_every", None)
    if not getattr(args, "check", False) and check_every is None:
        return config
    interval = DEFAULT_CHECK_EVERY if check_every is None else check_every
    return dataclasses.replace(config, check_interval=interval)


def _with_telemetry(config, args):
    """Fold ``run``'s ``--telemetry`` / ``--telemetry-window`` /
    ``--span-sample-rate`` into a config.  Span tracing implies
    telemetry (the recorder emits into the event tracer), and both
    fields are applied in one replace so ``__post_init__`` validates
    the combination."""
    window = getattr(args, "telemetry_window", None)
    rate = getattr(args, "span_sample_rate", None)
    if (not getattr(args, "telemetry", False) and window is None
            and rate is None):
        return config
    if window is None:
        window = DEFAULT_TELEMETRY_WINDOW
    if rate is None:
        rate = config.span_sample_rate
    return dataclasses.replace(config, telemetry_window=window,
                               span_sample_rate=rate)


def _with_mshr(config, args):
    """Fold ``--mshr-entries`` into a config."""
    entries = getattr(args, "mshr_entries", None)
    if entries is None:
        return config
    return dataclasses.replace(config, mshr_entries=entries)


def _config(scale: Optional[float], args=None):
    """``default_config(scale)`` with the subcommand's flags folded in.
    A config that fails validation (e.g. a scale too small for one 2 KB
    block of near memory) is a usage error of the subcommand."""
    try:
        config = (default_config() if scale is None
                  else default_config(scale=scale))
        if args is not None:
            config = _with_mshr(
                _with_telemetry(_with_check(config, args), args), args)
    except ValueError as exc:
        if args is None:
            raise
        args.parser.error(str(exc))
    return config


def _print_progress(progress: Progress) -> None:
    end = "\n" if progress.completed == progress.total else "\r"
    print(f"  {progress.render()}", end=end, file=sys.stderr, flush=True)


def _executor(args) -> ExperimentExecutor:
    """Build the executor the command-line flags describe."""
    return ExperimentExecutor(
        jobs=args.jobs if args.jobs is not None else (os.cpu_count() or 1),
        cache_dir=None if args.no_cache else args.cache_dir,
        force=args.force,
        on_progress=_print_progress,
    )


def _report_failures(executor: ExperimentExecutor) -> int:
    """Print collected worker tracebacks; returns the failure count."""
    for failure in executor.failures:
        print(f"\nFAILED cell ({failure.cell.scheme_key}, "
              f"{failure.cell.workload_name}):\n{failure.error}",
              file=sys.stderr)
    return len(executor.failures)


def _cmd_run(args) -> int:
    config = _config(args.scale, args)
    # the one tracer: this command is the one writer of a trace file
    tracer = EventTracer() if config.telemetry_window > 0 else None
    result = run_one(args.scheme, args.workload, config,
                     misses_per_core=args.misses, seed=args.seed,
                     tracer=tracer)
    rows = [
        ["execution cycles", f"{result.elapsed_cycles:,.0f}"],
        ["NM access rate", f"{result.access_rate:.3f}"],
        ["NM demand-bw share", f"{result.nm_demand_fraction:.3f}"],
        ["mean miss latency", f"{result.controller_stats.mean_miss_latency:.1f}"],
        ["subblock swaps", result.scheme_stats.subblock_swaps],
        ["2KB migrations", result.scheme_stats.block_migrations],
        ["energy (J)", f"{result.energy.total_joules:.3e}"],
        ["EDP (J*s)", f"{result.edp:.3e}"],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{SCHEMES[args.scheme].label} on {args.workload}"))
    if result.telemetry is not None:
        from repro.telemetry import run_metadata

        snap = result.telemetry
        meta = run_metadata(args.scheme, args.workload, args.seed, config,
                            misses_per_core=args.misses)
        series, trace = write_artifacts(
            args.telemetry_out, f"{args.scheme}-{args.workload}", snap,
            tracer, meta=meta)
        print(f"telemetry: {len(snap['samples'])} samples "
              f"({snap['spilled_samples']} spilled), "
              f"{len(tracer.events())} trace events "
              f"({tracer.dropped} dropped)")
        print(f"  series: {series}\n  trace:  {trace}  (open in Perfetto)")
        if "spans" in snap:
            print(f"  spans:  {snap['spans']['spans']} recorded — run "
                  f"'python -m repro analyze {series}' for the latency"
                  " attribution")
    return 0


def _cmd_compare(args) -> int:
    config = _config(args.scale, args)
    executor = _executor(args)
    cells = {
        key: Cell(key, args.workload, config, misses_per_core=args.misses,
                  seed=args.seed)
        for key in ["nonm"] + [k for k in args.schemes if k != "nonm"]
    }
    results = executor.run_cells(cells.values())
    if _report_failures(executor):
        return 1
    baseline = results[cells["nonm"]]
    speedups = {
        SCHEMES[key].label: results[cells[key]].speedup_over(baseline)
        for key in args.schemes
    }
    print(bar_chart(speedups, title=f"Speedup over no-NM baseline "
                                    f"({args.workload})", unit="x"))
    return 0


def _report_claims(verdicts) -> int:
    """Name every failed claim on stderr; returns the exit status."""
    failed = [v for v in verdicts if not v.passed]
    for verdict in failed:
        print(f"FAILED claim {verdict}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_figure(args) -> int:
    name = args.name
    if args.workloads and (name == "claims"
                           or not report_writer.SECTIONS[name].per_workload):
        raise SystemExit(f"--workloads does not apply to {name}")
    config = _config(args.scale, args)
    executor = _executor(args)
    try:
        tables = report_writer.compute_tables(
            config, args.misses, executor,
            names=None if name == "claims" else [name],
            workloads=args.workloads)
    except ExecutorError:
        return 1  # the failure report prints the cell's traceback, once
    finally:
        failed = _report_failures(executor)
    print(report_writer.render_section(name, tables))
    progress = executor.last_progress
    if progress is not None:
        print(f"[{progress.render()}; "
              f"{progress.simulated} simulated]", file=sys.stderr)
    if name == "claims" and _report_claims(
            report_writer.evaluate_claims(tables)):
        return 1
    return 1 if failed else 0


def _cmd_schemes(_args) -> int:
    rows = [[setup.key, setup.label, setup.alloc_policy]
            for setup in SCHEMES.values()]
    print(format_table(["key", "scheme", "allocation"], rows))
    return 0


def _cmd_suite(args) -> int:
    config = _config(None, args)
    rows = []
    for name in BENCHMARKS:
        spec = per_core_spec(name, config)
        rows.append([name, spec.category, spec.mpki, spec.footprint_pages,
                     spec.spatial_run, spec.page_density,
                     spec.phase_misses or "-"])
    print(format_table(
        ["benchmark", "class", "MPKI", "pages/core", "spatial", "density",
         "phase"],
        rows, title="Table III workload suite (scaled)",
        float_format="{:.2g}"))
    return 0


def _cmd_report(args) -> int:
    config = _config(None, args)
    executor = _executor(args)
    try:
        verdicts = report_writer.write_experiments_report(
            args.path, config, args.misses, executor)
    except ExecutorError:
        return 1  # the failure report prints the cell's traceback, once
    finally:
        failed = _report_failures(executor)
    print(f"wrote {args.path}")
    return 1 if _report_claims(verdicts) or failed else 0


def _cmd_analyze(args) -> int:
    from repro.telemetry.analyze import AnalyzeError, analyze

    try:
        print(analyze(args.path, top=args.top))
    except AnalyzeError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "schemes": _cmd_schemes,
        "suite": _cmd_suite,
        "report": _cmd_report,
        "analyze": _cmd_analyze,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # stdout pipe closed early (e.g. `repro analyze ... | head`);
        # detach stdout so the interpreter's flush-at-exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
