"""Oracle tests: clean runs pass, seeded metadata corruption trips.

The mutation tests are the oracle's proof of usefulness: each subclasses
a real scheme, re-introduces a representative bookkeeping bug (skipped
``set_bit``, dropped reverse-map entry) and asserts the differential
oracle aborts the run.  The plant tests record a move in one scheme's
metadata without device traffic and assert the whole-space scan names
the lowest address it misplaces.
"""

import dataclasses

import pytest

from repro.core.silcfm import SilcFmScheme
from repro.cpu.system import System
from repro.schemes.base import InvariantViolation, Level
from repro.schemes.cameo import CameoScheme
from repro.schemes.hma import HmaScheme
from repro.schemes.pom import PomScheme
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
    system = System(config, factory, [SPEC] * config.cores,
                    misses_per_core=misses, alloc_policy="interleaved", seed=7)
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
                    [SPEC] * config.cores, misses_per_core=50,
                    alloc_policy="interleaved", seed=7)
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


# ----------------------------------------------------------------------
# whole-space scan: a wrong placement anywhere, no ops replayed
# ----------------------------------------------------------------------
SCAN_SPACE = AddressSpace(4 * BLOCK_BYTES, 16 * BLOCK_BYTES)


def _swap_cameo_line(scheme):
    """NM line 0 and FM line ``num_slots`` (its group) trade places."""
    scheme.ledger.exchange(0, scheme.num_slots)
    return 0


def _interleave_silcfm_subblock(scheme):
    """Way 0's native subblock 3 and the first FM block's subblock 3
    trade places."""
    block = scheme.space.nm_blocks
    assert block % scheme.num_sets == 0
    frame = scheme.frames[0]
    frame.remap = block
    frame.set_bit(3)
    scheme._frame_of_block[block] = 0
    return 3 * SUBBLOCK_BYTES


def _migrate_pom_block(scheme):
    """NM block 0 and FM block ``num_frames`` (its frame) trade places:
    a block scheme's smallest move."""
    scheme.ledger.exchange(0, scheme.num_frames)
    return 0


def _migrate_hma_page(scheme):
    """NM page 0 and the first FM page trade places."""
    scheme._swap_into_frame(0, scheme.num_frames)
    return 0


@pytest.mark.parametrize("build, plant", [
    (CameoScheme, _swap_cameo_line),
    (SilcFmScheme, _interleave_silcfm_subblock),
    (PomScheme, _migrate_pom_block),
    (HmaScheme, _migrate_hma_page),
], ids=["cameo", "silcfm", "pom", "hma"])
def test_full_check_catches_metadata_only_swap(build, plant):
    """A move recorded in metadata without any device traffic leaves the
    shadow behind; the whole-space scan must notice, and name the lower
    of the moved addresses."""
    scheme = build(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=1)
    oracle.full_check()  # identity state is consistent
    lower = plant(scheme)  # ops discarded
    scheme.check_invariants()  # the metadata alone stays coherent
    with pytest.raises(OracleViolation, match=rf"locate\({lower:#x}\)"):
        oracle.full_check()
    assert oracle.full_scans == 1


def _misreport_last_cameo_line(scheme):
    """``locate`` answers one line too low for the last line only.  A
    plant in the metadata that ``check_invariants`` cannot see moves at
    least two lines, so the scan would name the lower one."""
    last = scheme.space.total_bytes - SUBBLOCK_BYTES
    locate = scheme.locate

    def misreport(paddr):
        level, offset = locate(paddr)
        if paddr == last:
            offset -= SUBBLOCK_BYTES
        return level, offset

    scheme.locate = misreport


@pytest.mark.parametrize("build, plant", [
    (CameoScheme, _misreport_last_cameo_line),
], ids=["cameo"])
def test_full_check_reaches_the_last_subblock(build, plant):
    """Only the flat space's last subblock changes its ``locate``: a scan
    that stops one subblock short passes this plant."""
    scheme = build(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=1)
    plant(scheme)
    scheme.check_invariants()
    last = SCAN_SPACE.total_bytes - SUBBLOCK_BYTES
    with pytest.raises(OracleViolation, match=rf"locate\({last:#x}\)"):
        oracle.full_check()


@pytest.mark.parametrize("build", [CameoScheme, SilcFmScheme],
                         ids=["cameo", "silcfm"])
def test_full_check_locates_every_subblock_once(build):
    """The ledger stores only displaced subblocks, but the scan still
    asks ``locate`` about every subblock of the flat space, once."""
    scheme = build(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=0)
    nm_bytes = SCAN_SPACE.nm_bytes
    for paddr in (nm_bytes, nm_bytes + 3 * SUBBLOCK_BYTES, 5 * BLOCK_BYTES):
        oracle.before_access(paddr, False)
        oracle.after_access(paddr, False, scheme.access(paddr, False))
    assert oracle.shadow._ids  # the swaps displaced something
    located = []
    locate = scheme.locate

    def counting(paddr):
        located.append(paddr)
        return locate(paddr)

    scheme.locate = counting
    oracle.full_check()
    assert sorted(located) == list(range(0, SCAN_SPACE.total_bytes,
                                         SUBBLOCK_BYTES))


def test_full_check_names_the_lowest_address_after_swaps():
    """Once replayed swaps permute the ledger, the scan meets a higher
    address first; the violation still names the lowest failing one."""
    scheme = CameoScheme(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=0)
    line = scheme.num_slots  # FM line of group 0
    paddr = line * SUBBLOCK_BYTES
    oracle.before_access(paddr, False)
    oracle.after_access(paddr, False, scheme.access(paddr, False))
    assert oracle.shadow.id_at(Level.NM, 0) == line
    oracle.full_check()
    # swap line 0 back in metadata only: line 0 (FM slot 0 per the
    # shadow) and the line in NM slot 0 both fail, the higher one first
    # in slot order
    scheme.ledger.exchange(0, 0)
    with pytest.raises(OracleViolation, match=r"locate\(0x0\)"):
        oracle.full_check()


class _FlakyLocate(CameoScheme):
    """``locate`` misbehaves on its first call for the last line only:
    it answers wrong, or raises."""

    def __init__(self, space, raises):
        super().__init__(space)
        self.raises = raises
        self.flaked = False

    def locate(self, paddr):
        last = self.space.total_bytes - SUBBLOCK_BYTES
        if paddr == last and not self.flaked:
            self.flaked = True
            if self.raises:
                raise ValueError("transient")
            return Level.NM, 0
        return super().locate(paddr)


@pytest.mark.parametrize("raises", [False, True], ids=["wrong", "raises"])
def test_full_check_never_passes_after_a_disagreement(raises):
    """A scan that saw a disagreement raises even when the address-order
    rescan cannot reproduce it."""
    oracle = ValidationOracle(_FlakyLocate(SCAN_SPACE, raises), check_every=0)
    with pytest.raises(OracleViolation, match="not deterministic"):
        oracle.full_check()
    assert oracle.full_scans == 0
