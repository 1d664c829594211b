"""Process-level hygiene of the simulator's data plane.

* numpy never loads on the simulation path (importing it costs ~17 MiB
  of resident memory per process, a large share of a cell's footprint);
* ``System.run`` suspends cyclic garbage collection while it runs and
  always restores it — after a normal return and after the
  ``max_events`` watchdog raises.
"""

import gc
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu.system import System
from repro.experiments.runner import SCHEMES
from repro.sim.config import default_config
from repro.sim.engine import SimulationError
from repro.workloads.spec import workload_specs

SRC = Path(__file__).resolve().parents[2] / "src"


def test_simulation_never_imports_numpy():
    code = (
        "import sys\n"
        "from repro.experiments.runner import run_one\n"
        "from repro.sim.config import default_config\n"
        "run_one('silc', 'mcf', default_config(0.25), misses_per_core=300)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _system(misses_per_core: int = 100) -> System:
    config = default_config(0.25)
    setup = SCHEMES["silc"]
    return System(config, setup.factory, workload_specs("mcf", config),
                  misses_per_core=misses_per_core,
                  alloc_policy=setup.alloc_policy, warmup_fraction=0.2)


def test_gc_suspended_during_run_and_restored_after():
    system = _system()
    seen = []
    access = system.scheme.access

    def observed(*args):
        seen.append(gc.isenabled())
        return access(*args)

    system.scheme.access = observed
    assert gc.isenabled()
    system.run()
    assert gc.isenabled()
    assert seen and not any(seen)


def test_gc_restored_after_watchdog_raises():
    system = _system()
    assert gc.isenabled()
    with pytest.raises(SimulationError, match="max_events"):
        system.run(max_events=50)
    assert gc.isenabled()


def test_run_leaves_gc_disabled_when_caller_disabled_it():
    gc.disable()
    try:
        _system().run()
        assert not gc.isenabled()
    finally:
        gc.enable()
