"""Statistical workload model — the reproduction's stand-in for Pin
traces of SPEC CPU2006 Simpoints.

Every flat-memory scheme observes only the post-LLC miss stream, so the
model generates that stream directly from the five characteristics that
drive the paper's results:

* **MPKI** — misses per kilo-instruction; sets the compute gap between
  misses and therefore the bandwidth demand (Table III's low/med/high
  classes).
* **Footprint** — number of distinct 2 KB pages touched; sets the
  pressure on NM capacity (Table III).
* **Hot-set skew** — a fraction of pages receives most accesses; what
  locking and HMA's hot-page detection exploit.
* **Spatial locality** — expected number of distinct subblocks touched
  per page visit; what separates subblock schemes (SILC-FM, CAMEO+P)
  from single-line (CAMEO) and whole-page (PoM) movement.
* **Phase churn** — the hot set drifts every ``phase_misses`` misses;
  what epoch-based HMA is too slow for (gemsfdtd's short-lived pages).

``reference_stream`` additionally expands each miss into cache-hitting
re-references so the real cache hierarchy measures the intended MPKI
(``repro figure table3`` and its claims, and integration tests).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES, SUBBLOCKS_PER_BLOCK
from repro.workloads.trace import MemoryAccess

#: distinct program counters the generator draws from; PC correlates with
#: the touched page, which is what SILC-FM's PC-indexed structures rely on.
PC_POOL_SIZE = 256
#: code region base so PCs never collide with data addresses.
PC_BASE = 1 << 40


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic benchmark."""

    name: str
    #: LLC misses per kilo-instruction, per core.
    mpki: float
    #: distinct 2 KB pages touched.
    footprint_pages: int
    #: fraction of the footprint that is hot ...
    hot_fraction: float = 0.10
    #: ... and receives this fraction of the page visits.
    hot_weight: float = 0.80
    #: mean distinct subblocks touched per page visit (1..32).
    spatial_run: float = 4.0
    #: fraction of misses that are writes (dirty fills).
    write_fraction: float = 0.25
    #: hot set drifts after this many misses (None = stable).
    phase_misses: Optional[int] = None
    #: fraction of the hot set replaced at each phase change.
    phase_shift: float = 0.5
    #: fraction of each page's 32 subblocks the program ever touches
    #: (a stable, contiguous region per page).  Below 1.0, whole-page
    #: migration (PoM) fetches data that is never used — the paper's
    #: "number of used unique subblocks within 2KB is rather low".
    page_density: float = 1.0
    #: memory references per instruction (for reference_stream).
    refs_per_instr: float = 0.3
    category: str = "medium"

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ValueError("mpki must be positive")
        if self.footprint_pages < 2:
            raise ValueError("footprint must be at least 2 pages")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction in (0, 1]")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError("hot_weight in [0, 1]")
        if not 1.0 <= self.spatial_run <= SUBBLOCKS_PER_BLOCK:
            raise ValueError("spatial_run in [1, 32]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction in [0, 1]")
        if not 1.0 / SUBBLOCKS_PER_BLOCK <= self.page_density <= 1.0:
            raise ValueError("page_density in [1/32, 1]")


class WorkloadModel:
    """Generates miss-stream or reference-stream traces for one spec."""

    def __init__(self, spec: WorkloadSpec, seed: int = 1) -> None:
        self.spec = spec
        self._seed = seed

    def _rng(self, tag: str) -> random.Random:
        """Deterministic per-(seed, benchmark, stream-kind) generator.
        zlib.crc32 is used instead of hash() so runs are reproducible
        regardless of PYTHONHASHSEED."""
        digest = zlib.crc32(f"{self.spec.name}:{tag}".encode())
        return random.Random(self._seed * 0x9E3779B1 + digest)

    # ------------------------------------------------------------------
    def miss_stream(self, n_misses: int) -> Iterator[MemoryAccess]:
        """Yield ``n_misses`` LLC-miss records."""
        spec = self.spec
        rng = self._rng("miss")
        hot = self._initial_hot_set(rng)
        pages = spec.footprint_pages
        mean_gap = 1000.0 / spec.mpki
        emitted = 0
        since_phase = 0
        while emitted < n_misses:
            page = self._pick_page(rng, hot, pages)
            active_start, active_len = self._active_region(page)
            run = min(self._run_length(rng), active_len)
            start = rng.randrange(active_len)
            pc = PC_BASE + (page % PC_POOL_SIZE) * 4
            for i in range(run):
                if emitted >= n_misses:
                    break
                subblock = active_start + (start + i) % active_len
                vaddr = page * BLOCK_BYTES + subblock * SUBBLOCK_BYTES
                gap = max(1, int(rng.expovariate(1.0 / mean_gap)))
                yield MemoryAccess(
                    pc=pc,
                    vaddr=vaddr,
                    is_write=rng.random() < spec.write_fraction,
                    gap_instr=gap,
                )
                emitted += 1
                since_phase += 1
            if spec.phase_misses is not None and since_phase >= spec.phase_misses:
                self._shift_hot_set(rng, hot, pages)
                since_phase = 0

    def reference_stream(self, n_misses: int) -> Iterator[MemoryAccess]:
        """Expand the miss stream with cache-hitting re-references so a
        real hierarchy observes roughly ``spec.mpki`` at the LLC.

        The miss's instruction gap is *redistributed* over the inserted
        re-references (not added to), so the instruction total — and
        therefore the measured MPKI — matches the miss stream's."""
        spec = self.spec
        rng = self._rng("ref")
        recent: List[int] = []
        for miss in self.miss_stream(n_misses):
            total_gap = miss.gap_instr
            n_refs = max(0, int(total_gap * spec.refs_per_instr) - 1)
            per_gap = total_gap // (n_refs + 1)
            remainder = total_gap - per_gap * n_refs
            yield MemoryAccess(pc=miss.pc, vaddr=miss.vaddr,
                               is_write=miss.is_write,
                               gap_instr=max(1, remainder))
            recent.append(miss.vaddr)
            if len(recent) > 32:
                recent.pop(0)
            # re-reference the recent pool; these hit in L1/L2 so the LLC
            # miss count stays the miss stream's.
            for _ in range(n_refs):
                vaddr = rng.choice(recent)
                yield MemoryAccess(
                    pc=PC_BASE + rng.randrange(PC_POOL_SIZE) * 4,
                    vaddr=vaddr,
                    is_write=rng.random() < spec.write_fraction,
                    gap_instr=max(1, per_gap),
                )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _initial_hot_set(self, rng: random.Random) -> List[int]:
        count = max(1, int(self.spec.footprint_pages * self.spec.hot_fraction))
        return rng.sample(range(self.spec.footprint_pages), count)

    def _shift_hot_set(self, rng: random.Random, hot: List[int], pages: int) -> None:
        replace = max(1, int(len(hot) * self.spec.phase_shift))
        current = set(hot)
        for _ in range(replace):
            victim = rng.randrange(len(hot))
            for _attempt in range(8):
                candidate = rng.randrange(pages)
                if candidate not in current:
                    current.discard(hot[victim])
                    hot[victim] = candidate
                    current.add(candidate)
                    break

    def _active_region(self, page: int) -> tuple:
        """The page's stable active subblock window (start, length).

        Derived from a per-page hash so it never changes across phases
        or re-visits — the program simply never touches the rest of the
        page."""
        length = max(1, round(self.spec.page_density * SUBBLOCKS_PER_BLOCK))
        if length >= SUBBLOCKS_PER_BLOCK:
            return 0, SUBBLOCKS_PER_BLOCK
        digest = zlib.crc32(f"{self._seed}:{self.spec.name}:region:{page}".encode())
        start = digest % (SUBBLOCKS_PER_BLOCK - length + 1)
        return start, length

    def _pick_page(self, rng: random.Random, hot: List[int], pages: int) -> int:
        if rng.random() < self.spec.hot_weight:
            return hot[rng.randrange(len(hot))]
        return rng.randrange(pages)

    def _run_length(self, rng: random.Random) -> int:
        """Geometric run length with mean ``spatial_run``, capped at 32."""
        mean = self.spec.spatial_run
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        length = 1
        while rng.random() > p and length < SUBBLOCKS_PER_BLOCK:
            length += 1
        return length

