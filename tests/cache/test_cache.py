"""Tests for the set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache


def make_cache(sets=4, ways=2, line=64):
    return Cache(size_bytes=sets * ways * line, ways=ways, line_bytes=line)


def test_first_access_misses_then_hits():
    cache = make_cache()
    assert not cache.access(0, False).hit
    assert cache.access(0, False).hit
    assert cache.access(32, False).hit  # same line


def test_distinct_lines_tracked_separately():
    cache = make_cache()
    cache.access(0, False)
    assert not cache.access(64, False).hit


def test_lru_eviction_order():
    cache = make_cache(sets=1, ways=2)
    cache.access(0, False)     # line A
    cache.access(64, False)    # line B
    cache.access(0, False)     # touch A -> B is LRU
    cache.access(128, False)   # evicts B
    assert cache.access(0, False).hit
    assert not cache.access(64, False).hit


def test_dirty_eviction_produces_writeback():
    cache = make_cache(sets=1, ways=1)
    cache.access(0, True)                 # dirty A
    outcome = cache.access(64, False)     # evicts A
    assert outcome.writeback_addr == 0
    assert cache.stats.writebacks == 1


def test_clean_eviction_has_no_writeback():
    cache = make_cache(sets=1, ways=1)
    cache.access(0, False)
    outcome = cache.access(64, False)
    assert outcome.writeback_addr is None


def test_write_hit_marks_dirty():
    cache = make_cache(sets=1, ways=1)
    cache.access(0, False)
    cache.access(0, True)  # write hit dirties the line
    outcome = cache.access(64, False)
    assert outcome.writeback_addr == 0


def test_writeback_address_is_line_aligned():
    cache = make_cache(sets=2, ways=1)
    cache.access(64 + 17, True)
    outcome = cache.access(64 * 3 + 5, False)  # same set (index 1)
    assert outcome.writeback_addr == 64


def test_stats_hit_rate():
    cache = make_cache()
    cache.access(0, False)
    cache.access(0, False)
    cache.access(0, False)
    assert cache.stats.accesses == 3
    assert cache.stats.hit_rate == pytest.approx(2 / 3)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        Cache(size_bytes=1000, ways=3, line_bytes=64)
    with pytest.raises(ValueError):
        Cache(size_bytes=3 * 64 * 2, ways=2, line_bytes=64)  # 3 sets


def test_capacity_bound_respected():
    cache = make_cache(sets=4, ways=2)
    for i in range(100):
        cache.access(i * 64, False)
    # 4 sets x 2 ways: only the last two lines of each set are resident
    assert all(cache.access(i * 64, False).hit for i in range(92, 100))
    assert not any(cache.access(i * 64, False).hit for i in range(88, 92))


@settings(max_examples=30)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                      max_size=300))
def test_rereference_within_capacity_always_hits(addrs):
    """Any address re-accessed immediately must hit."""
    cache = make_cache(sets=8, ways=4)
    for addr in addrs:
        cache.access(addr, False)
        assert cache.access(addr, False).hit


@settings(max_examples=30)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1,
                      max_size=200),
       writes=st.lists(st.booleans(), min_size=200, max_size=200))
def test_writeback_conservation(addrs, writes):
    """Every writeback must be for a line that was written at some point."""
    cache = make_cache(sets=2, ways=2)
    written = set()
    for addr, is_write in zip(addrs, writes):
        line = addr // 64 * 64
        if is_write:
            written.add(line)
        outcome = cache.access(addr, is_write)
        if outcome.writeback_addr is not None:
            assert outcome.writeback_addr in written
