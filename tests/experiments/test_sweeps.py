"""One-knob sensitivity of the simulated machine."""

import dataclasses

import pytest

from repro.experiments.runner import run_one
from repro.sim.config import default_config


@pytest.fixture(scope="module")
def config():
    return dataclasses.replace(default_config(scale=0.25), cores=2)


def test_mlp_sweep_more_parallelism_helps(config):
    def with_mlp(window):
        return dataclasses.replace(config, core=dataclasses.replace(
            config.core, max_outstanding_misses=window))

    narrow = run_one("nonm", "mcf", with_mlp(1), misses_per_core=400)
    wide = run_one("nonm", "mcf", with_mlp(8), misses_per_core=400)
    assert wide.elapsed_cycles < narrow.elapsed_cycles
