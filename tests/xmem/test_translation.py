"""Tests for frame allocation policies and page tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import BLOCK_BYTES
from repro.xmem.address import AddressSpace
from repro.xmem.translation import FrameAllocator, OutOfMemoryError, PageTable

NM_BLOCKS = 16
FM_BLOCKS = 64


def make_space():
    return AddressSpace(NM_BLOCKS * BLOCK_BYTES, FM_BLOCKS * BLOCK_BYTES)


def test_fm_only_never_allocates_nm():
    allocator = FrameAllocator(make_space(), policy="fm_only")
    frames = [allocator.allocate() for _ in range(FM_BLOCKS)]
    assert all(f >= NM_BLOCKS for f in frames)
    with pytest.raises(OutOfMemoryError):
        allocator.allocate()


def test_random_policy_is_seeded_and_complete():
    a = FrameAllocator(make_space(), policy="random", seed=7)
    b = FrameAllocator(make_space(), policy="random", seed=7)
    frames_a = [a.allocate() for _ in range(NM_BLOCKS + FM_BLOCKS)]
    frames_b = [b.allocate() for _ in range(NM_BLOCKS + FM_BLOCKS)]
    assert frames_a == frames_b
    assert sorted(frames_a) == list(range(NM_BLOCKS + FM_BLOCKS))


def test_random_policy_differs_across_seeds():
    a = FrameAllocator(make_space(), policy="random", seed=1)
    b = FrameAllocator(make_space(), policy="random", seed=2)
    assert [a.allocate() for _ in range(20)] != [b.allocate() for _ in range(20)]


def test_interleaved_mixes_nm_proportionally():
    allocator = FrameAllocator(make_space(), policy="interleaved")
    frames = [allocator.allocate() for _ in range(10)]
    nm_count = sum(1 for f in frames if f < NM_BLOCKS)
    # ratio is 4:1 so roughly one in five early frames is NM
    assert 1 <= nm_count <= 3


def test_interleaved_exhausts_all_frames():
    allocator = FrameAllocator(make_space(), policy="interleaved")
    frames = [allocator.allocate() for _ in range(NM_BLOCKS + FM_BLOCKS)]
    assert sorted(frames) == list(range(NM_BLOCKS + FM_BLOCKS))


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        FrameAllocator(make_space(), policy="chaotic")


# ----------------------------------------------------------------------
# page table
# ----------------------------------------------------------------------
def test_translation_is_stable():
    table = PageTable(FrameAllocator(make_space(), policy="fm_only"))
    a = table.translate(12345)
    assert table.translate(12345) == a
    assert table.translate(12345 + 1) == a + 1


def test_offsets_preserved():
    table = PageTable(FrameAllocator(make_space(), policy="fm_only"))
    paddr = table.translate(5 * BLOCK_BYTES + 99)
    assert paddr % BLOCK_BYTES == 99


def test_distinct_vpages_get_distinct_frames():
    table = PageTable(FrameAllocator(make_space(), policy="fm_only"))
    frames = {table.translate(v * BLOCK_BYTES) // BLOCK_BYTES for v in range(10)}
    assert len(frames) == 10


def test_processes_never_share_frames():
    allocator = FrameAllocator(make_space(), policy="interleaved")
    t1, t2 = PageTable(allocator, asid=0), PageTable(allocator, asid=1)
    f1 = {t1.translate(v * BLOCK_BYTES) // BLOCK_BYTES for v in range(8)}
    f2 = {t2.translate(v * BLOCK_BYTES) // BLOCK_BYTES for v in range(8)}
    assert not f1 & f2


def test_footprint_accounting():
    table = PageTable(FrameAllocator(make_space(), policy="fm_only"))
    for v in range(6):
        table.translate(v * BLOCK_BYTES)
    assert table.resident_pages == 6


@settings(max_examples=25)
@given(vaddrs=st.lists(st.integers(min_value=0, max_value=50 * BLOCK_BYTES - 1),
                       min_size=1, max_size=60))
def test_translation_injective_over_pages(vaddrs):
    """Distinct virtual pages always land in distinct physical frames."""
    table = PageTable(FrameAllocator(make_space(), policy="interleaved"))
    mapping = {}
    for vaddr in vaddrs:
        paddr = table.translate(vaddr)
        vpage, ppage = vaddr // BLOCK_BYTES, paddr // BLOCK_BYTES
        assert mapping.setdefault(vpage, ppage) == ppage
    assert len(set(mapping.values())) == len(mapping)


# ----------------------------------------------------------------------
# graceful exhaustion (regression for the config-fuzz OutOfMemoryError)
# ----------------------------------------------------------------------
def test_page_table_reclaims_oldest_when_memory_is_full():
    """Touching more distinct pages than there are physical frames must
    reclaim (FIFO) instead of raising mid-run."""
    total = NM_BLOCKS + FM_BLOCKS
    table = PageTable(FrameAllocator(make_space(), policy="interleaved"))
    frames = [table.translate(v * BLOCK_BYTES) // BLOCK_BYTES
              for v in range(total + 10)]
    assert table.reclaims == 10
    assert table.resident_pages == total
    # FIFO: page total+i took the frame of page i, the oldest then
    assert frames[total:] == frames[:10]
    # re-touching a resident page reclaims nothing and keeps its frame
    for v in (10, total + 9):
        assert table.translate(v * BLOCK_BYTES) // BLOCK_BYTES == frames[v]
    assert table.reclaims == 10
    # re-touching an evicted page faults it back in, evicting the oldest
    # resident page (10), whose re-touch in turn evicts page 11
    assert table.translate(0) // BLOCK_BYTES == frames[10]
    assert table.reclaims == 11
    assert table.translate(10 * BLOCK_BYTES) // BLOCK_BYTES == frames[11]
    assert table.reclaims == 12


def test_reclaimed_translation_stays_injective():
    total = NM_BLOCKS + FM_BLOCKS
    table = PageTable(FrameAllocator(make_space(), policy="interleaved"))
    for v in range(2 * total):
        table.translate(v * BLOCK_BYTES)
    assert table.reclaims == total
    # the newest `total` pages are resident: re-touching them reclaims
    # nothing, and they hold every frame exactly once
    frames = [table.translate(v * BLOCK_BYTES) // BLOCK_BYTES
              for v in range(total, 2 * total)]
    assert table.reclaims == total
    assert sorted(frames) == list(range(total))


def test_empty_table_on_full_machine_still_raises():
    allocator = FrameAllocator(make_space(), policy="fm_only")
    hog, latecomer = PageTable(allocator, asid=0), PageTable(allocator, asid=1)
    for v in range(FM_BLOCKS):
        hog.translate(v * BLOCK_BYTES)
    with pytest.raises(OutOfMemoryError):
        latecomer.translate(0)


def test_fuzz_falsifying_config_runs_to_completion():
    """The exact Hypothesis counterexample from the seed suite: 2 cores
    with 25-page footprints on a 16-NM + 32-FM-frame machine (50 pages
    wanted, 48 frames exist) raised OutOfMemoryError mid-run."""
    from repro.core.silcfm import SilcFmScheme
    from repro.cpu.system import System
    from repro.sim.config import SilcFmConfig, SystemConfig
    from repro.workloads.model import WorkloadSpec

    config = SystemConfig(
        cores=2,
        nm_bytes=16 * BLOCK_BYTES,
        fm_bytes=32 * BLOCK_BYTES,
        silcfm=SilcFmConfig(
            associativity=1,
            hot_threshold=2,
            aging_period_accesses=100,
            bitvector_table_entries=64,
            predictor_entries=64,
            metadata_cache_entries=1,
            access_rate_window=32,
            enable_locking=False,
            enable_bypass=False,
            enable_predictor=False,
            enable_bitvector_history=False,
        ),
    )
    spec = WorkloadSpec(
        name="fuzz", mpki=2.0, footprint_pages=25, hot_fraction=1.0,
        hot_weight=0.0, spatial_run=1.0, write_fraction=0.0,
        page_density=1.0, phase_misses=None,
    )
    system = System(config, lambda space, cfg: SilcFmScheme(space, cfg.silcfm),
                    [spec] * config.cores, misses_per_core=150,
                    alloc_policy="interleaved", seed=1)
    result = system.run(max_events=2_000_000)
    assert result.elapsed_cycles > 0
    assert result.scheme_stats.misses == 150 * config.cores
    # oversubscription is absorbed by FIFO page reclaim, not a crash
    assert result.extras["page_reclaims"] > 0
    total_resident = sum(t.resident_pages for t in system.page_tables)
    assert total_resident <= 48


def test_no_reclaims_when_memory_suffices():
    from repro.core.silcfm import SilcFmScheme
    from repro.cpu.system import System
    from repro.sim.config import SystemConfig
    from repro.workloads.model import WorkloadSpec

    config = SystemConfig(cores=2, nm_bytes=16 * BLOCK_BYTES,
                          fm_bytes=64 * BLOCK_BYTES)
    spec = WorkloadSpec(name="small", mpki=10.0, footprint_pages=10)
    system = System(config, lambda space, cfg: SilcFmScheme(space, cfg.silcfm),
                    [spec] * config.cores, misses_per_core=50,
                    alloc_policy="interleaved", seed=1)
    result = system.run(max_events=1_000_000)
    assert result.extras["page_reclaims"] == 0.0
