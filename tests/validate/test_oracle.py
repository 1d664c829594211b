"""Oracle tests: clean runs pass, seeded metadata corruption trips.

The mutation tests are the oracle's proof of usefulness: each subclasses
a real scheme, re-introduces a representative bookkeeping bug (skipped
``set_bit``, dropped reverse-map entry, metadata swap without device
traffic) and asserts the differential oracle aborts the run.
"""

import dataclasses

import pytest

from repro.core.silcfm import SilcFmScheme
from repro.cpu.system import System
from repro.schemes.base import InvariantViolation
from repro.schemes.cameo import CameoScheme
from repro.sim.config import (
    BLOCK_BYTES, SUBBLOCK_BYTES, SilcFmConfig, SystemConfig)
from repro.validate import OracleViolation, ValidationOracle
from repro.workloads.model import WorkloadSpec
from repro.xmem.address import AddressSpace

SPEC = WorkloadSpec(name="t", mpki=20.0, footprint_pages=12,
                    spatial_run=8.0, write_fraction=0.3)


def small_config(check_interval: int) -> SystemConfig:
    silc = SilcFmConfig(
        associativity=4,
        hot_threshold=12,
        aging_period_accesses=300,
        bitvector_table_entries=64,
        predictor_entries=64,
        metadata_cache_entries=8,
        access_rate_window=32,
    )
    return SystemConfig(cores=1, nm_bytes=16 * BLOCK_BYTES,
                        fm_bytes=64 * BLOCK_BYTES, silcfm=silc,
                        check_interval=check_interval)


def run_system(factory, check_interval=50, misses=400):
    config = small_config(check_interval)
    system = System(config, factory, SPEC, misses_per_core=misses,
                    alloc_policy="interleaved", seed=7)
    return system.run()


# ----------------------------------------------------------------------
# clean runs
# ----------------------------------------------------------------------
def test_clean_silcfm_run_passes_and_reports_counters():
    result = run_system(lambda space, cfg: SilcFmScheme(space, cfg.silcfm))
    # reads coalesced by the default MSHR never reach the scheme, so
    # the oracle checks every consult: checked + coalesced == issued
    coalesced = int(result.extras.get("mshr_coalesced", 0.0))
    assert result.extras["oracle_accesses_checked"] + coalesced == 400
    # 400 misses / check_every=50 periodic scans + the end-of-run scan
    assert result.extras["oracle_full_scans"] >= 8


def test_unchecked_run_has_no_oracle_counters():
    config = dataclasses.replace(small_config(0))
    system = System(config, lambda space, cfg: SilcFmScheme(space, cfg.silcfm),
                    SPEC, misses_per_core=50, alloc_policy="interleaved",
                    seed=7)
    result = system.run()
    assert system.oracle is None
    assert "oracle_accesses_checked" not in result.extras


def test_oracle_violation_is_an_invariant_violation():
    assert issubclass(OracleViolation, InvariantViolation)
    assert issubclass(OracleViolation, AssertionError)


# ----------------------------------------------------------------------
# seeded mutations the oracle must catch
# ----------------------------------------------------------------------
class _DropsResidencyBit(SilcFmScheme):
    """Bug: moves the subblock but forgets to record it in the bitvector
    (the metadata says FM, the data is in NM)."""

    def access(self, paddr, is_write, pc=0):
        plan = super().access(paddr, is_write, pc)
        if plan.note == "row2":  # a subblock swapped in: drop its bit
            frame = self.frames[self.way_of_block(paddr // BLOCK_BYTES)]
            frame.clear_bit(paddr % BLOCK_BYTES // SUBBLOCK_BYTES)
        return plan


class _ForgetsReverseMap(SilcFmScheme):
    """Bug: installs a block into a frame without the reverse-map entry,
    so ``locate`` sends every later access to the stale FM home."""

    def _install(self, way, block, index, paddr, pc):
        ops = super()._install(way, block, index, paddr, pc)
        self._frame_of_block.pop(block, None)
        return ops


@pytest.mark.parametrize("broken_scheme",
                         [_DropsResidencyBit, _ForgetsReverseMap])
def test_oracle_catches_seeded_silcfm_corruption(broken_scheme):
    with pytest.raises(InvariantViolation):
        run_system(lambda space, cfg: broken_scheme(space, cfg.silcfm))


def test_baseline_sanity_clean_parent_passes():
    # the mutation tests prove nothing unless the unmutated parent
    # passes the very same harness
    run_system(lambda space, cfg: SilcFmScheme(space, cfg.silcfm))


def test_full_check_catches_metadata_only_swap():
    """A swap recorded in metadata without any device traffic leaves the
    shadow behind; the whole-space scan must notice."""
    space = AddressSpace(4 * BLOCK_BYTES, 16 * BLOCK_BYTES)
    scheme = CameoScheme(space)
    oracle = ValidationOracle(scheme, check_every=1)
    oracle.full_check()  # identity state is consistent
    scheme._swap_in(0, scheme.num_slots, scheme.num_slots)  # ops discarded
    with pytest.raises(OracleViolation):
        oracle.full_check()
