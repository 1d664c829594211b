"""The paper's cache hierarchy: a private L1D per core, shared L2 LLC.

The hierarchy is functional (hit/miss filtering + writeback generation);
its latencies contribute to the core's compute time while LLC misses go
to the flat-memory system.  Inclusion is not enforced (the paper does
not specify it); the LLC filters what matters — the post-LLC miss
stream.  The workloads are data-reference streams, so Table II's L1I
(``CacheHierarchyConfig.l1i``) is listed but not built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.cache import Cache
from repro.sim.config import CacheHierarchyConfig


@dataclass
class HierarchyOutcome:
    """What one data reference did to the hierarchy."""

    llc_miss: bool
    latency_cycles: int
    #: dirty LLC line evicted by this reference, if any
    writeback_addr: Optional[int] = None


class CacheHierarchy:
    """Private L1Ds in front of a shared LLC."""

    def __init__(self, config: CacheHierarchyConfig, cores: int) -> None:
        self.l1d = [
            Cache(config.l1d.size_bytes, config.l1d.ways, config.l1d.line_bytes,
                  config.l1d.latency_cycles, name=f"l1d{c}")
            for c in range(cores)
        ]
        self.l2 = Cache(config.l2.size_bytes, config.l2.ways, config.l2.line_bytes,
                        config.l2.latency_cycles, name="l2")

    # ------------------------------------------------------------------
    def access(self, core: int, paddr: int, is_write: bool) -> HierarchyOutcome:
        """Run one reference through L1 -> L2.

        Returns whether it missed the LLC (and must go to memory), the
        hierarchy lookup latency, and any dirty LLC eviction.
        """
        l1 = self.l1d[core]
        outcome = l1.access(paddr, is_write)
        latency = l1.latency_cycles
        if outcome.hit:
            return HierarchyOutcome(llc_miss=False, latency_cycles=latency)

        # L1 victim writebacks are absorbed by the L2 (write hit or
        # allocate); we fold them into the L2 access below for speed.
        l2_outcome = self.l2.access(paddr, is_write)
        latency += self.l2.latency_cycles
        if l2_outcome.hit:
            return HierarchyOutcome(llc_miss=False, latency_cycles=latency)
        return HierarchyOutcome(
            llc_miss=True,
            latency_cycles=latency,
            writeback_addr=l2_outcome.writeback_addr,
        )
