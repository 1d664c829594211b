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
from repro.experiments.runner import SCHEMES
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
    """``at_home`` gives up the last block, and ``locate_moved`` answers
    one line too low for the last line only.  A plant in the metadata
    that ``check_invariants`` cannot see moves at least two lines, so the
    scan would name the lower one."""
    last = scheme.space.total_bytes - SUBBLOCK_BYTES
    at_home, locate_moved = scheme.at_home, scheme.locate_moved

    def misreport(paddr):
        level, offset = locate_moved(paddr)
        if paddr == last:
            offset -= SUBBLOCK_BYTES
        return level, offset

    last_block = last // BLOCK_BYTES
    scheme.at_home = lambda block: block != last_block and at_home(block)
    scheme.locate_moved = misreport


@pytest.mark.parametrize("build, plant", [
    (CameoScheme, _misreport_last_cameo_line),
], ids=["cameo"])
def test_full_check_reaches_the_last_subblock(build, plant):
    """Only the flat space's last subblock changes its ``locate``: a scan
    that stops one block short passes this plant."""
    scheme = build(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=1)
    plant(scheme)
    scheme.check_invariants()
    last = SCAN_SPACE.total_bytes - SUBBLOCK_BYTES
    with pytest.raises(OracleViolation, match=rf"locate\({last:#x}\)"):
        oracle.full_check()


def _count_scan_calls(scheme):
    """Record the blocks the scan asks ``at_home`` about and the
    addresses it asks ``locate`` or ``locate_moved`` about, in order."""
    asked, located = [], []

    def counting(method, calls):
        def count(arg):
            calls.append(arg)
            return method(arg)
        return count

    scheme.at_home = counting(scheme.at_home, asked)
    scheme.locate_moved = counting(scheme.locate_moved, located)
    scheme.locate = counting(scheme.locate, located)
    return asked, located


def _subblocks(blocks):
    return [paddr for block in blocks
            for paddr in range(block * BLOCK_BYTES, (block + 1) * BLOCK_BYTES,
                               SUBBLOCK_BYTES)]


@pytest.mark.parametrize("build", [CameoScheme, SilcFmScheme],
                         ids=["cameo", "silcfm"])
def test_full_check_locates_each_moved_subblock_once(build):
    """After swaps the scan asks ``at_home`` about every block once, and
    asks about every subblock of each block either side reports moved
    once, in address order — and about no other subblock."""
    scheme = build(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=0)
    nm_bytes = SCAN_SPACE.nm_bytes
    for paddr in (nm_bytes, nm_bytes + 3 * SUBBLOCK_BYTES, 5 * BLOCK_BYTES):
        oracle.before_access(paddr, False)
        oracle.after_access(paddr, False, scheme.access(paddr, False))
    blocks = range(SCAN_SPACE.total_blocks)
    moved = sorted({block for block in blocks if not scheme.at_home(block)}
                   | set(oracle.shadow.displaced_blocks()))
    assert oracle.shadow._ids  # the swaps displaced something
    assert 0 < len(moved) < len(blocks) // 4
    asked, located = _count_scan_calls(scheme)
    oracle.full_check()
    assert asked == list(blocks)
    assert located == _subblocks(moved)


@pytest.mark.parametrize("key", sorted(SCHEMES))
def test_full_check_of_an_identity_state_locates_nothing(key):
    """With nothing moved on either side, every registered scheme's scan
    is one ``at_home`` call per block and no ``locate`` call."""
    scheme = SCHEMES[key].factory(SCAN_SPACE, small_config(0))
    oracle = ValidationOracle(scheme, check_every=0)
    asked, located = _count_scan_calls(scheme)
    oracle.full_check()
    assert asked == list(range(SCAN_SPACE.total_blocks))
    assert located == []
    assert oracle.full_scans == 1


def test_full_check_catches_an_at_home_that_lies():
    """A replayed swap exchanges subblock 3 of the first FM block with
    subblock 3 of the frame it is installed in.  An ``at_home`` that
    vouches for every block makes ``locate`` answer both at home, and
    the scan names the lower: the frame's."""
    scheme = SilcFmScheme(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=0)
    paddr = SCAN_SPACE.nm_bytes + 3 * SUBBLOCK_BYTES
    oracle.before_access(paddr, False)
    oracle.after_access(paddr, False, scheme.access(paddr, False))
    oracle.full_check()
    way = scheme.way_of_block(paddr // BLOCK_BYTES)
    assert oracle.shadow.displaced_blocks() == [way, paddr // BLOCK_BYTES]
    scheme.at_home = lambda block: True
    lowest = way * BLOCK_BYTES + 3 * SUBBLOCK_BYTES
    with pytest.raises(OracleViolation, match=rf"locate\({lowest:#x}\)"):
        oracle.full_check()
    assert oracle.full_scans == 1


def test_full_check_passes_an_at_home_that_vouches_for_nothing():
    """``at_home`` False is always safe: blocks nothing moved are then
    compared subblock by subblock, and agree."""
    scheme = CameoScheme(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=0)
    scheme.at_home = lambda block: False
    __, located = _count_scan_calls(scheme)
    oracle.full_check()
    assert located == _subblocks(range(SCAN_SPACE.total_blocks))
    assert oracle.full_scans == 1


class _OverridesLocate(CameoScheme):
    """Answers as CAMEO does, but through its own ``locate``."""

    def locate(self, paddr):
        return super().locate(paddr)


def test_oracle_refuses_a_scheme_that_overrides_locate():
    """The scan proves the bijection for ``MemoryScheme.locate``; a
    scheme with its own ``locate``, on its class or on the instance,
    would escape it."""
    with pytest.raises(TypeError, match="overrides locate"):
        ValidationOracle(_OverridesLocate(SCAN_SPACE))
    scheme = CameoScheme(SCAN_SPACE)
    scheme.locate = scheme.locate_moved
    with pytest.raises(TypeError, match="overrides locate"):
        ValidationOracle(scheme)


def test_full_check_names_the_lowest_address_after_swaps():
    """Once a replayed swap permutes the ledger, a metadata-only swap
    back makes two lines in two blocks fail; the violation names the
    lower one."""
    scheme = CameoScheme(SCAN_SPACE)
    oracle = ValidationOracle(scheme, check_every=0)
    line = scheme.num_slots  # FM line of group 0
    paddr = line * SUBBLOCK_BYTES
    oracle.before_access(paddr, False)
    oracle.after_access(paddr, False, scheme.access(paddr, False))
    assert oracle.shadow.id_at(Level.NM, 0) == line
    oracle.full_check()
    # swap line 0 back in metadata only: line 0 (FM slot 0 per the
    # shadow) and the line in NM slot 0 both fail
    scheme.ledger.exchange(0, 0)
    with pytest.raises(OracleViolation, match=r"locate\(0x0\)"):
        oracle.full_check()


class _FlakyLocate(CameoScheme):
    """``at_home`` gives up the last block, and ``locate_moved``
    misbehaves on its first call for the last line only: it answers
    wrong, or raises."""

    def __init__(self, space, raises):
        super().__init__(space)
        self.raises = raises
        self.flaked = False

    def at_home(self, block):
        return block != self.space.total_blocks - 1 and super().at_home(block)

    def locate_moved(self, paddr):
        last = self.space.total_bytes - SUBBLOCK_BYTES
        if paddr == last and not self.flaked:
            self.flaked = True
            if self.raises:
                raise ValueError("transient")
            return Level.NM, 0
        return super().locate_moved(paddr)


@pytest.mark.parametrize("raises", [False, True], ids=["wrong", "raises"])
def test_full_check_never_passes_after_a_disagreement(raises):
    """A scan that saw a disagreement raises even when the address-order
    rescan cannot reproduce it."""
    oracle = ValidationOracle(_FlakyLocate(SCAN_SPACE, raises), check_every=0)
    with pytest.raises(OracleViolation, match="not deterministic"):
        oracle.full_check()
    assert oracle.full_scans == 0
