"""Concurrent same-key writers must never tear a ResultCache entry.

An executor deduplicates the cells of its own sweep, but two CLI
sweeps that share one ``--cache-dir`` still race on every key they both
simulate.  ``store`` therefore writes through a uniquely named temp file
and publishes with ``os.replace``: every reader observes either no entry
or one writer's complete bytes, never an interleaving.

This test hammers a single key from several processes while the parent
reads in a tight loop, asserting every observed file parses and equals
one writer's payload exactly.  (The pre-hardening code shared one
``<key>.json.tmp`` path between writers, so two racing processes could
interleave into the same temp file and publish the torn result.)
"""

import dataclasses
import json
import multiprocessing
import time

from repro.cpu.system import RunResult
from repro.experiments.executor import Cell, ResultCache
from repro.experiments.runner import run_one
from repro.sim.config import default_config

WRITERS = 4
ITERATIONS = 120


def _tiny_result():
    config = dataclasses.replace(default_config(scale=0.25), cores=1)
    return run_one("nonm", "mcf", config, misses_per_core=100)


def _variant_dicts(result):
    """Distinct payloads per writer, distinguishable after a reload."""
    variants = []
    for writer in range(WRITERS):
        clone = RunResult.from_dict(result.to_dict())
        clone.extras = dict(clone.extras, writer_tag=float(writer))
        variants.append(clone.to_dict())
    return variants


def _hammer(root, key, result_dict, iterations, barrier):
    cache = ResultCache(root)
    result = RunResult.from_dict(result_dict)
    barrier.wait()
    for _ in range(iterations):
        cache.store(key, result)


def test_concurrent_same_key_store_never_tears(tmp_path):
    result = _tiny_result()
    variants = _variant_dicts(result)
    key = Cell("nonm", "mcf", default_config(scale=0.25)).key()
    cache = ResultCache(tmp_path)
    path = cache.path(key)

    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(WRITERS + 1)
    writers = [
        ctx.Process(target=_hammer,
                    args=(str(tmp_path), key, variants[i], ITERATIONS,
                          barrier))
        for i in range(WRITERS)
    ]
    for proc in writers:
        proc.start()
    barrier.wait()  # release every writer at once: maximum contention

    allowed_results = {json.dumps(v, sort_keys=True) for v in variants}
    observations = 0
    deadline = time.monotonic() + 60
    while any(proc.is_alive() for proc in writers):
        assert time.monotonic() < deadline, "writers wedged"
        try:
            raw = path.read_text()
        except OSError:
            continue  # not published yet — fine, never torn
        # the raw bytes must always be one writer's complete payload
        data = json.loads(raw)  # a torn interleaving would raise here
        assert data["schema"] is not None
        canonical = json.dumps(data["result"], sort_keys=True)
        assert canonical in allowed_results, "entry mixes two writers"
        observations += 1
    for proc in writers:
        proc.join()
        assert proc.exitcode == 0

    # the survivor is a clean load()-able entry from one writer
    final = cache.load(key)
    assert final is not None
    assert json.dumps(final.to_dict(),
                      sort_keys=True) in allowed_results
    assert observations > 0, "reader never overlapped the writers"
    # no temp droppings left behind, and the store holds exactly one entry
    assert not list(tmp_path.glob("*.tmp"))
    assert [p.name for p in tmp_path.glob("*.json")] == [f"{key}.json"]
