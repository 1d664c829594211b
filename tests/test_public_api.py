"""Public API surface tests: what README promises must exist."""

import importlib
import inspect

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
        "repro.schemes.alloycache",
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
