"""Set-associative cache with true-LRU replacement and write-back,
write-allocate policy.

The hierarchy built from these (``repro.cache.hierarchy``) filters the
workload's reference stream into the LLC-miss stream that the flat-memory
schemes see; its writeback stream becomes the background write traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class AccessOutcome:
    """Result of one cache access."""

    hit: bool
    #: line-aligned address evicted dirty, if any (to be written back)
    writeback_addr: Optional[int] = None


@dataclass
class _Line:
    dirty: bool = False


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class Cache:
    """A single cache level.

    Each set is an :class:`OrderedDict` from tag to line state; ordering
    encodes LRU (last item = most recently used).
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64,
                 latency_cycles: int = 1, name: str = "cache") -> None:
        if size_bytes % (ways * line_bytes):
            raise ValueError("size must be ways * line_bytes * num_sets")
        self.num_sets = size_bytes // (ways * line_bytes)
        if not _is_power_of_two(self.num_sets):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.latency_cycles = latency_cycles
        self.name = name
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _index_tag(self, addr: int):
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Look up ``addr``; on miss, allocate (evicting LRU)."""
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        line = cache_set.get(tag)
        if line is not None:
            cache_set.move_to_end(tag)
            if is_write:
                line.dirty = True
            self.stats.hits += 1
            return AccessOutcome(hit=True)

        self.stats.misses += 1
        writeback = None
        if len(cache_set) >= self.ways:
            victim_tag, victim = cache_set.popitem(last=False)
            if victim.dirty:
                self.stats.writebacks += 1
                victim_line = victim_tag * self.num_sets + index
                writeback = victim_line * self.line_bytes
        cache_set[tag] = _Line(dirty=is_write)
        return AccessOutcome(hit=False, writeback_addr=writeback)
