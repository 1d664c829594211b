"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

import repro.__main__ as cli
from repro.experiments import executor as executor_mod
from repro.sim.config import default_config


def test_schemes_listing(capsys):
    assert cli.main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "silc" in out and "cameo" in out.lower()


def test_suite_listing(capsys):
    assert cli.main(["suite"]) == 0
    out = capsys.readouterr().out
    for name in ("mcf", "xalancbmk", "lbm"):
        assert name in out


def test_run_command(capsys, monkeypatch):
    # shrink the system so the CLI test stays fast
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "_config", lambda scale, args=None: small)
    assert cli.main(["run", "silc", "mcf", "--misses", "400"]) == 0
    out = capsys.readouterr().out
    assert "NM access rate" in out
    assert "EDP" in out


def test_compare_command(capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "_config", lambda scale, args=None: small)
    assert cli.main(["compare", "mcf", "--schemes", "cam", "silc",
                     "--misses", "400", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Speedup" in out
    assert "#" in out  # the bar chart rendered


def test_run_and_compare_accept_mixes(capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "_config", lambda scale, args=None: small)
    assert cli.main(["run", "silc", "mix-blend", "--misses", "200"]) == 0
    assert "SILC-FM on mix-blend" in capsys.readouterr().out
    assert cli.main(["compare", "mix-blend", "--schemes", "silc",
                     "--misses", "200", "--jobs", "1", "--no-cache"]) == 0
    assert "no-NM baseline (mix-blend)" in capsys.readouterr().out


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "silc", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def _is_json_object(line: str) -> bool:
    try:
        return isinstance(json.loads(line), dict)
    except ValueError:
        return False


def test_failed_cell_prints_once(capsys, monkeypatch):
    """A failed cell's traceback reaches stderr once, in the executor's
    failure report, and the command exits 1 — also from ``figure``,
    whose sections need every cell and so stop at the first failure."""
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "_config", lambda scale, args=None: small)
    message = "planted failure in the silc cell"
    real_execute = executor_mod._execute_cell

    def execute(cell):
        if cell.scheme_key == "silc":
            raise RuntimeError(message)
        return real_execute(cell)

    monkeypatch.setattr(executor_mod, "_execute_cell", execute)
    for argv in (["compare", "mcf", "--schemes", "silc"],
                 ["figure", "fig7", "--workloads", "mcf"]):
        assert cli.main(argv + ["--misses", "200", "--jobs", "1",
                                "--no-cache"]) == 1, argv
        err = capsys.readouterr().err
        assert err.count(message) == 1, argv
        assert not [line for line in err.splitlines()
                    if _is_json_object(line)]


@pytest.mark.parametrize("flag", [["--telemetry"],
                                  ["--telemetry-window", "5000"],
                                  ["--span-sample-rate", "1"]],
                         ids=lambda flag: flag[0].removeprefix("--"))
@pytest.mark.parametrize("command", [["compare", "mcf"],
                                     ["figure", "fig7"]],
                         ids=lambda argv: argv[0])
def test_telemetry_flags_are_run_only(command, flag, capsys, monkeypatch):
    """``repro run`` is the one writer of telemetry artifacts; the cached
    commands reject the flags as unknown arguments."""
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell was built for a rejected flag")

    monkeypatch.setattr(cli, "_executor", no_cells)
    with pytest.raises(SystemExit) as exc:
        cli.main(command + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_flag_attaches_the_oracle(capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    seen = {}
    real_run_one = cli.run_one

    def spy(scheme, benchmark, config, **kwargs):
        seen["check_interval"] = config.check_interval
        return real_run_one(scheme, benchmark, config, **kwargs)

    monkeypatch.setattr(cli, "run_one", spy)
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--check-every", "50"]) == 0
    assert seen["check_interval"] == 50
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--check"]) == 0
    assert seen["check_interval"] == cli.DEFAULT_CHECK_EVERY


def test_check_flags_left_off_leave_config_unchecked(monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    assert cli._config(None, None).check_interval == 0


def test_non_positive_check_interval_rejected(monkeypatch, capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "silc", "mcf", "--check-every", "0"])


def test_run_with_telemetry_writes_artifacts(tmp_path, capsys, monkeypatch):
    from repro.telemetry import validate_chrome_trace

    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    assert cli.main(["run", "silc", "mcf", "--misses", "400", "--telemetry",
                     "--telemetry-out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert (tmp_path / "silc-mcf.series.json").exists()
    assert validate_chrome_trace(str(tmp_path / "silc-mcf.trace.json")) > 0


def test_telemetry_window_implies_telemetry(tmp_path, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    seen = {}
    real_run_one = cli.run_one

    def spy(scheme, benchmark, config, **kwargs):
        seen["window"] = config.telemetry_window
        return real_run_one(scheme, benchmark, config, **kwargs)

    monkeypatch.setattr(cli, "run_one", spy)
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--telemetry-window", "2500",
                     "--telemetry-out", str(tmp_path)]) == 0
    assert seen["window"] == 2500


def test_non_positive_telemetry_window_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "silc", "mcf", "--telemetry-window", "0"])


def test_run_with_spans_then_analyze(tmp_path, capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    assert cli.main(["run", "silc", "mcf", "--misses", "400",
                     "--span-sample-rate", "1",
                     "--telemetry-out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "spans:" in out  # the run advertises the analyze command
    series = tmp_path / "silc-mcf.series.json"
    assert cli.main(["analyze", str(series), "--top", "3"]) == 0
    report = capsys.readouterr().out
    assert "Latency attribution" in report
    assert "Per-stage service time (cycles)" in report
    assert "Table I row breakdown" in report


def test_analyze_rejects_spanless_artifact(tmp_path, capsys):
    path = tmp_path / "plain.series.json"
    path.write_text('{"schema": 2, "samples": []}')
    assert cli.main(["analyze", str(path)]) == 1
    assert "analyze:" in capsys.readouterr().err


def test_span_rate_implies_telemetry(tmp_path, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    seen = {}
    real_run_one = cli.run_one

    def spy(scheme, benchmark, config, **kwargs):
        seen["window"] = config.telemetry_window
        seen["rate"] = config.span_sample_rate
        return real_run_one(scheme, benchmark, config, **kwargs)

    monkeypatch.setattr(cli, "run_one", spy)
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--span-sample-rate", "8",
                     "--telemetry-out", str(tmp_path)]) == 0
    assert seen["window"] == cli.DEFAULT_TELEMETRY_WINDOW
    assert seen["rate"] == 8


def test_non_positive_span_rate_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "silc", "mcf", "--span-sample-rate", "0"])


@pytest.mark.parametrize("argv", [
    ["compare", "mcf", "--jobs", "0"],
    ["figure", "fig7", "--misses", "0", "--workloads", "mcf"],
    # Fig. 9 runs half the misses: 1 // 2 == 0 per core
    ["figure", "fig9", "--misses", "1"],
    ["report", "--misses", "1"],
    ["run", "silc", "mcf", "--telemetry-window", "0"],
    ["run", "silc", "mcf", "--span-sample-rate", "0"],
    ["run", "silc", "mcf", "--misses", "0"],
    ["run", "silc", "mcf", "--mshr-entries", "-1"],
    # a negative slice bound listed every chain but the last
    ["analyze", "/tmp/_unused.series.json", "--top", "-1"],
], ids=lambda argv: "-".join(a.removeprefix("--") for a in argv
                             if not a.startswith("/")))
def test_bad_count_is_a_usage_error(argv, capsys, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell was built for a bad flag")

    monkeypatch.setattr(cli, "run_one", no_cells)
    monkeypatch.setattr(cli, "_executor", no_cells)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be >=" in err


@pytest.mark.parametrize("command", [
    ["run", "silc", "mcf", "--misses", "10"],
    ["compare", "mcf", "--misses", "10"],
    ["figure", "fig7", "--misses", "10", "--workloads", "mcf"],
], ids=lambda argv: argv[0])
# 1e-4 parses, but rounds near memory down to 0 bytes
@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "1e-4"])
def test_bad_scale_is_a_usage_error(command, scale, capsys, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell was built for a bad --scale")

    monkeypatch.setattr(cli, "run_one", no_cells)
    monkeypatch.setattr(cli, "_executor", no_cells)
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--scale", scale])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"repro {command[0]}: error:" in err


@pytest.mark.parametrize("command", [
    ["run", "silc", "mcf", "--misses", "10"],
    ["report"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_bad_repro_scale_is_a_usage_error(command, value, capsys,
                                          monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell was built for a bad REPRO_SCALE")

    monkeypatch.setattr(cli, "run_one", no_cells)
    monkeypatch.setattr(cli, "_executor", no_cells)
    monkeypatch.setenv("REPRO_SCALE", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"repro {command[0]}: error:" in err
    assert "REPRO_SCALE" in err


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "bogus", "mcf"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
