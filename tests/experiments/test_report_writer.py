"""Tests for EXPERIMENTS.md: ``repro report``, ``repro figure`` and the
paper's shape claims.

The CLI runs on a tiny system (2 cores, scale 0.25) with every command
sharing one in-memory executor, so the report simulates each cell once
and every later command replays it from the memo.  At that scale several
claims fail (they hold at the report's defaults), which the exit-status
tests use; the liveness tests check each claim on hand-built tables.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.experiments import report_writer
from repro.experiments.executor import ExperimentExecutor
from repro.workloads.spec import BENCHMARKS, HIGH_MPKI, LOW_MPKI

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from gen_golden_results import (  # noqa: E402
    REPORT_DIGEST,
    REPORT_MISSES,
    report_body_digest,
    report_config,
)

MISSES = ["--misses", str(REPORT_MISSES)]


@pytest.fixture(scope="module")
def tiny_cli():
    small = report_config()
    shared = ExperimentExecutor(jobs=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "default_config", lambda scale=None: small)
        mp.setattr(cli, "_executor", lambda args: shared)
        yield


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def report(tiny_cli, tmp_path_factory):
    """(exit code, EXPERIMENTS.md text, stderr) of one tiny report."""
    path = tmp_path_factory.mktemp("report") / "EXPERIMENTS.md"
    code, _out, err = run_cli(["report", str(path)] + MISSES)
    return code, path.read_text(), err


def sections(text):
    """{heading line -> section text} of a markdown report."""
    chunks = re.split(r"(?m)^(?=## )", text)
    return {chunk.splitlines()[0]: chunk.strip()
            for chunk in chunks if chunk.startswith("## ")}


def claim_keys(text, verdict):
    return re.findall(rf"^\| `([\w-]+)` .*\| {re.escape(verdict)} \|$",
                      text, re.M)


def test_report_contains_all_sections(report):
    _code, text, _err = report
    headings = sections(text)
    for heading in ("Table I", "Table II", "Table III", "Fig. 6", "Fig. 7",
                    "Fig. 8", "Fig. 9", "EDP", "ablations", "Paper claims",
                    "Known deviations"):
        assert any(heading in h for h in headings), heading
    # every benchmark appears in the Fig. 7 table
    fig7 = next(body for h, body in headings.items() if "Fig. 7" in h)
    for name in BENCHMARKS:
        assert f"| {name} |" in fig7
    # markdown tables render
    assert "| workload |" in text
    assert "| geomean |" in text
    assert len(claim_keys(text, "PASS") + claim_keys(text, "**FAIL**")) \
        == len(report_writer.CLAIMS)


def test_report_body_matches_pin(report):
    """Every number of every section, byte for byte: the body the golden
    script recorded (``python scripts/gen_golden_results.py``)."""
    _code, text, _err = report
    assert report_body_digest(text) == REPORT_DIGEST.read_text().strip()


def test_report_mentions_paper_reference_points(report):
    _code, text, _err = report
    assert "1.36" in text          # Fig. 7 headline
    assert "0.76" in text          # Fig. 8 SILC share
    assert "1.82" in text or "1.83" in text


@pytest.mark.parametrize("name", report_writer.SECTION_NAMES)
def test_figure_prints_its_report_section(report, name):
    report_code, text, _err = report
    code, out, _err = run_cli(["figure", name] + MISSES)
    printed = out.strip()
    assert sections(text)[printed.splitlines()[0]] == printed
    assert code == (report_code if name == "claims" else 0)


def test_figure_rejects_workloads_where_none_apply(tiny_cli):
    for name in ("table2", "ablations", "claims"):
        with pytest.raises(SystemExit, match="--workloads"):
            cli.main(["figure", name, "--workloads", "mcf"] + MISSES)


def test_report_exit_status_names_each_failed_claim(report):
    code, text, err = report
    failed = claim_keys(text, "**FAIL**")
    assert code == (1 if failed else 0)
    assert err.count("FAILED claim") == len(failed)
    for key in failed:
        assert f"FAILED claim {key}: " in err


def test_report_exits_0_when_every_claim_passes(report, tmp_path,
                                                monkeypatch):
    passing = set(claim_keys(report[1], "PASS"))
    monkeypatch.setattr(report_writer, "CLAIMS", [
        c for c in report_writer.CLAIMS if c.key in passing])
    code, _out, err = run_cli(["report", str(tmp_path / "E.md")] + MISSES)
    assert code == 0
    assert "FAILED claim" not in err


def test_report_is_written_before_failing(report, tmp_path, monkeypatch):
    never = report_writer.Claim("fig7-never-holds", "a test claim",
                                lambda tables: (0.0, "> 1", False))
    monkeypatch.setattr(report_writer, "CLAIMS", [never])
    path = tmp_path / "E.md"
    code, _out, err = run_cli(["report", str(path)] + MISSES)
    assert code == 1
    assert "FAILED claim fig7-never-holds: a test claim: measured" in err
    assert "| `fig7-never-holds` |" in path.read_text()


# ------------------------------------------------------------ claim liveness
def passing_tables():
    """Hand-built artefact tables on which every claim holds."""
    def grid(levels):
        return {s: dict({wl: v for wl in BENCHMARKS}, geomean=v)
                for s, v in levels.items()}

    table3 = {}
    for name in BENCHMARKS:
        category = ("low" if name in LOW_MPKI
                    else "high" if name in HIGH_MPKI else "medium")
        target = {"low": 8.0, "medium": 20.0, "high": 40.0}[category]
        table3[name] = {
            "category": category, "target_mpki": target,
            "measured_mpki": target,
            "footprint_pages_per_core": 900 if name == "mcf" else 300,
            "llc_absorbs": name == "gcc",
        }
    return {
        "table1": {"row1": 300, "row1+lock": 10, "row2": 200, "row3": 20,
                   "row4": 200, "row4+lock": 0, "row5": 100,
                   "all-locked": 0, "nm-displaced-by-lock": 5},
        "table3": table3,
        "fig6": grid({"rand": 1.2, "silc-swap": 1.8, "silc-lock": 1.85,
                      "silc-assoc": 1.9, "silc": 2.0}),
        "fig7": grid({"rand": 1.2, "hma": 1.5, "cam": 1.5, "camp": 1.5,
                      "pom": 1.8, "silc": 2.0}),
        "fig8": {"rand": 0.2, "hma": 0.6, "cam": 0.65, "camp": 0.8,
                 "pom": 0.65, "silc": 0.76},
        "fig9": {s: {16: v, 8: v * 1.05, 4: v * 1.1}
                 for s, v in {"hma": 1.2, "cam": 1.4, "camp": 1.4,
                              "pom": 1.6, "silc": 1.8}.items()},
        "edp": {"rand": 0.8, "hma": 0.6, "cam": 0.6, "camp": 0.6,
                "pom": 0.4, "silc": 0.3},
        "ablations": {
            "threshold": {"5": 2.0, "20": 1.5, "50": 2.2, "1000": 2.0},
            "associativity": {
                ways: {"gcc": v, "milc": v, "libquantum": v, "geomean": v}
                for ways, v in {"1": 2.0, "2": 2.05, "4": 2.1}.items()},
            "bypass": {"0.6": 1.5, "0.7": 1.6, "0.8": 1.7, "0.9": 1.65,
                       "off": 1.6},
            "predictor": {
                "on": {"speedup": 2.0, "way_accuracy": 0.9,
                       "location_accuracy": 0.8},
                "off": {"speedup": 1.8, "way_accuracy": 0.0,
                        "location_accuracy": 0.0}},
        },
    }


#: claim -> (path to the one value it reads, a value that breaks it)
PERTURB = {
    "table1-rows-exercised": (("table1", "row3"), 0),
    "table1-nm-service-dominates": (("table1", "row2"), 10_000),
    "table3-absorbed-mpki": (("table3", "gcc", "measured_mpki"), 28.0),
    "table3-mpki-near-target": (("table3", "mcf", "measured_mpki"), 60.0),
    "table3-low-class": (("table3", "bwaves", "measured_mpki"), 13.0),
    "table3-high-class": (("table3", "lbm", "measured_mpki"), 28.0),
    "table3-mcf-largest-footprint": (
        ("table3", "lbm", "footprint_pages_per_core"), 901),
    "fig6-swap-beats-random": (("fig6", "silc-swap", "geomean"), 1.2),
    "fig6-stack-beats-random": (("fig6", "silc", "geomean"), 1.5),
    "fig6-stack-beats-swap": (("fig6", "silc", "geomean"), 1.7),
    "fig6-swap-helps-high-mpki": (("fig6", "silc-swap", HIGH_MPKI[0]), 0.01),
    "fig6-swap-high-vs-low-mpki": (("fig6", "silc-swap", LOW_MPKI[0]), 100.0),
    "fig7-silc-best": (("fig7", "silc", "geomean"), 1.7),
    "fig7-migrating-beat-random": (("fig7", "cam", "geomean"), 1.1),
    "fig7-hma-near-random": (("fig7", "hma", "geomean"), 0.9),
    "fig7-silc-wins-high-mpki": (("fig7", "silc", HIGH_MPKI[0]), 0.01),
    "fig8-silc-near-ideal": (("fig8", "silc"), 0.6),
    "fig8-silc-no-overshoot": (("fig8", "silc"), 0.9),
    "fig8-random-mostly-fm": (("fig8", "rand"), 0.5),
    "fig8-migrating-shares": (("fig8", "hma"), 0.3),
    "fig9-silc-gains-capacity": (("fig9", "silc", 4), 1.7),
    "fig9-silc-leads": (("fig9", "silc", 8), 1.5),
    "fig9-silc-degrades-less": (("fig9", "silc", 16), 1.0),
    "edp-silc-lowest": (("edp", "silc"), 0.5),
    "edp-beats-baseline": (("edp", "pom"), 1.0),
    "ablations-assoc-geomean": (
        ("ablations", "associativity", "4", "geomean"), 1.7),
    "ablations-assoc-gcc": (("ablations", "associativity", "4", "gcc"), 1.7),
    "ablations-bypass-balanced": (("ablations", "bypass", "off"), 2.0),
    "ablations-threshold-mid": (("ablations", "threshold", "50"), 1.8),
    "ablations-predictor-helps": (
        ("ablations", "predictor", "off", "speedup"), 2.1),
    "ablations-predictor-accuracy": (
        ("ablations", "predictor", "on", "way_accuracy"), 0.7),
}


def test_every_claim_has_a_liveness_case():
    keys = [claim.key for claim in report_writer.CLAIMS]
    assert len(keys) == len(set(keys)) == 31
    assert sorted(PERTURB) == sorted(keys)


def test_every_claim_passes_on_the_passing_tables():
    verdicts = report_writer.evaluate_claims(passing_tables())
    assert [str(v) for v in verdicts if not v.passed] == []
    assert "**31 of 31 claims hold.**" in report_writer.render_section(
        "claims", passing_tables())


@pytest.mark.parametrize("key", sorted(PERTURB))
def test_claim_fails_when_its_value_is_perturbed(key):
    claim = next(c for c in report_writer.CLAIMS if c.key == key)
    tables = passing_tables()
    assert claim.check(tables)[2]
    path, value = PERTURB[key]
    target = tables
    for step in path[:-1]:
        target = target[step]
    assert path[-1] in target
    target[path[-1]] = value
    assert not claim.check(tables)[2]
