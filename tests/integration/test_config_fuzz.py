"""Robustness fuzzing: the system must run to completion (and keep its
invariants) for ANY structurally valid configuration, not just the
report's defaults."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.silcfm import SilcFmScheme
from repro.cpu.system import System
from repro.sim.config import BLOCK_BYTES, SilcFmConfig, SystemConfig
from repro.workloads.model import WorkloadSpec
from repro.xmem.address import AddressSpace


@st.composite
def system_configs(draw):
    nm_blocks = draw(st.sampled_from([16, 32, 64]))
    ratio = draw(st.sampled_from([2, 4, 8]))
    cores = draw(st.integers(min_value=1, max_value=4))
    assoc = draw(st.sampled_from([1, 2, 4]))
    silc = SilcFmConfig(
        associativity=assoc,
        hot_threshold=draw(st.integers(min_value=2, max_value=60)),
        aging_period_accesses=draw(st.sampled_from([100, 1000, 50_000])),
        bitvector_table_entries=64,
        predictor_entries=64,
        metadata_cache_entries=draw(st.sampled_from([1, 8, 64])),
        access_rate_window=32,
        enable_locking=draw(st.booleans()),
        enable_bypass=draw(st.booleans()),
        enable_predictor=draw(st.booleans()),
        enable_bitvector_history=draw(st.booleans()),
    )
    base = SystemConfig(
        cores=cores,
        nm_bytes=nm_blocks * BLOCK_BYTES,
        fm_bytes=nm_blocks * ratio * BLOCK_BYTES,
        silcfm=silc,
        # 0 = no oracle; otherwise every fuzzed run also carries the
        # shadow-memory differential checker (repro.validate).
        check_interval=draw(st.sampled_from([0, 40, 400])),
    )
    return base


@st.composite
def workload_specs(draw):
    return WorkloadSpec(
        name="fuzz",
        mpki=draw(st.floats(min_value=2.0, max_value=60.0)),
        footprint_pages=draw(st.integers(min_value=4, max_value=40)),
        hot_fraction=draw(st.floats(min_value=0.05, max_value=1.0)),
        hot_weight=draw(st.floats(min_value=0.0, max_value=1.0)),
        spatial_run=draw(st.floats(min_value=1.0, max_value=32.0)),
        write_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        page_density=draw(st.floats(min_value=1 / 32, max_value=1.0)),
        phase_misses=draw(st.one_of(st.none(),
                                    st.integers(min_value=50, max_value=500))),
    )


@settings(max_examples=15, deadline=None)
@given(config=system_configs(), spec=workload_specs(),
       seed=st.integers(min_value=1, max_value=100))
def test_any_valid_system_runs_and_keeps_invariants(config, spec, seed):
    def factory(space: AddressSpace, cfg: SystemConfig) -> SilcFmScheme:
        return SilcFmScheme(space, cfg.silcfm)

    system = System(config, factory, [spec] * config.cores,
                    misses_per_core=150, alloc_policy="interleaved", seed=seed)
    result = system.run(max_events=2_000_000)
    assert result.elapsed_cycles > 0
    # coalesced reads never consult the scheme; together the two counts
    # conserve the issued miss total exactly
    coalesced = int(result.extras.get("mshr_coalesced", 0.0))
    assert result.scheme_stats.misses + coalesced == 150 * config.cores
    # the part-of-memory bijection must survive arbitrary configs
    seen = set()
    for sb in range(0, system.space.total_bytes, 64):
        slot = system.scheme.locate(sb)
        assert slot not in seen
        seen.add(slot)


@settings(max_examples=10, deadline=None)
@given(config=system_configs(), seed=st.integers(min_value=1, max_value=50))
def test_deterministic_under_fuzzed_configs(config, seed):
    spec = WorkloadSpec(name="fuzz", mpki=20.0, footprint_pages=20)

    def factory(space, cfg):
        return SilcFmScheme(space, cfg.silcfm)

    def run():
        system = System(config, factory, [spec] * config.cores,
                        misses_per_core=100, alloc_policy="interleaved",
                        seed=seed)
        return system.run(max_events=2_000_000).elapsed_cycles

    assert run() == run()
