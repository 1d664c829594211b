"""Tests for the L1/L2 hierarchy."""

from repro.cache.hierarchy import CacheHierarchy
from repro.sim.config import CacheConfig, CacheHierarchyConfig

KB = 1024


def small_hierarchy(cores=2):
    config = CacheHierarchyConfig(
        l1i=CacheConfig(4 * KB, 2, 4),
        l1d=CacheConfig(2 * KB, 4, 4),
        l2=CacheConfig(16 * KB, 8, 11),
    )
    return CacheHierarchy(config, cores)


def test_l1_hit_has_l1_latency():
    h = small_hierarchy()
    h.access(0, 0, False)
    outcome = h.access(0, 0, False)
    assert not outcome.llc_miss
    assert outcome.latency_cycles == 4


def test_l2_hit_after_l1_eviction():
    h = small_hierarchy()
    h.access(0, 0, False)
    # blow L1 (2KB, 32 lines) but stay within L2 (16KB)
    for i in range(1, 64):
        h.access(0, i * 64, False)
    outcome = h.access(0, 0, False)
    assert not outcome.llc_miss
    assert outcome.latency_cycles == 4 + 11


def test_cold_miss_reaches_memory():
    h = small_hierarchy()
    outcome = h.access(0, 12345, False)
    assert outcome.llc_miss
    assert outcome.latency_cycles == 15


def test_private_l1_per_core_shared_l2():
    h = small_hierarchy()
    h.access(0, 0, False)            # core 0 warms L1 and L2
    outcome = h.access(1, 0, False)  # core 1 misses its L1, hits shared L2
    assert not outcome.llc_miss
    assert outcome.latency_cycles == 15


def test_dirty_llc_eviction_produces_writeback():
    h = small_hierarchy()
    h.access(0, 0, True)
    # evict line 0 out of L2 entirely: fill its L2 set (8 ways)
    sets = h.l2.num_sets
    writebacks = []
    for i in range(1, 12):
        outcome = h.access(0, i * sets * 64, False)
        if outcome.writeback_addr is not None:
            writebacks.append(outcome.writeback_addr)
    assert 0 in writebacks

