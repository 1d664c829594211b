"""Public API surface tests: what README promises must exist."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro


def test_version_exposed():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_names():
    # the README quickstart uses exactly these
    assert callable(repro.run_one)
    assert callable(repro.default_config)
    assert "nonm" in repro.SCHEMES and "silc" in repro.SCHEMES


def test_every_public_module_importable():
    modules = [
        "repro.core", "repro.core.silcfm", "repro.core.metadata",
        "repro.core.bitvector", "repro.core.activity", "repro.core.predictor",
        "repro.core.bypass",
        "repro.schemes", "repro.schemes.base", "repro.schemes.static",
        "repro.schemes.cameo", "repro.schemes.pom", "repro.schemes.hma",
        "repro.dram", "repro.dram.timing", "repro.dram.bank",
        "repro.dram.channel", "repro.dram.device", "repro.dram.mapping",
        "repro.cache", "repro.cache.cache", "repro.cache.hierarchy",
        "repro.cpu", "repro.cpu.core", "repro.cpu.controller",
        "repro.cpu.system",
        "repro.xmem", "repro.xmem.address", "repro.xmem.translation",
        "repro.workloads", "repro.workloads.model", "repro.workloads.spec",
        "repro.workloads.trace",
        "repro.energy", "repro.energy.model",
        "repro.stats", "repro.stats.collectors", "repro.stats.report",
        "repro.experiments", "repro.experiments.runner",
        "repro.experiments.executor", "repro.experiments.figures",
        "repro.experiments.report_writer",
        "repro.stats.inspect",
        "repro.sim", "repro.sim.engine", "repro.sim.config",
    ]
    for name in modules:
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"


def test_public_classes_documented():
    from repro.core.silcfm import SilcFmScheme
    from repro.cpu.system import RunResult, System
    from repro.schemes.base import AccessPlan, MemoryScheme

    for obj in (SilcFmScheme, System, RunResult, AccessPlan, MemoryScheme):
        assert inspect.getdoc(obj), obj
        for name, member in inspect.getmembers(obj, inspect.isfunction):
            if not name.startswith("_"):
                assert inspect.getdoc(member), f"{obj.__name__}.{name}"


def test_scheme_registry_labels_unique():
    labels = [s.label for s in repro.SCHEMES.values()]
    assert len(labels) == len(set(labels))


API_DOC = Path(__file__).resolve().parents[1] / "docs" / "api.md"


def _parameters(function):
    """``(name, kind, default)`` of each parameter: the kind carries the
    keyword-only split."""
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(function).parameters.values()]


def _documented_parameters(call):
    """The parameters docs/api.md shows for ``call(...)``, read as the
    parameter list of a Python function."""
    text = API_DOC.read_text()
    start = text.index(call + "(") + len(call) + 1
    namespace = {}
    exec(f"def documented({text[start:text.index(')', start)]}): pass",
         namespace)
    return _parameters(namespace["documented"])


@pytest.mark.parametrize("call, function", [
    ("repro.run_one", repro.run_one),
    ("repro.System", repro.System),
], ids=["run_one", "System"])
def test_documented_signature_matches_the_code(call, function):
    """docs/api.md's parameter list is the code's: names, order, the
    keyword-only split and every default."""
    assert _documented_parameters(call) == _parameters(function)


def test_documented_registry_lists_every_scheme():
    match = re.search(r"`repro\.SCHEMES` — the registry: ``([^`]+)``",
                      API_DOC.read_text())
    assert match, "docs/api.md lost its registry line"
    assert match.group(1).split() == list(repro.SCHEMES)
