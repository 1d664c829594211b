"""System configuration (the paper's Table II) and simulation scaling.

The paper simulates a 16-core, 4-wide out-of-order system with private
L1s, a shared 8 MB L2 LLC, an 8-channel HBM near memory (NM) and a
4-channel DDR3 far memory (FM).  Both buses run at 800 MHz (DDR 1.6 GT/s);
HBM's 128-bit channels vs DDR3's 64-bit channels and the 8:4 channel split
give the 4:1 NM:FM bandwidth ratio the bypass feature targets.

Because a cycle-level Python simulation cannot run 16 billion
instructions, every capacity is scaled down by a common factor while the
ratios that drive the paper's results (footprint:NM, FM:NM capacity and
bandwidth, MPKI, hot-set fraction) are preserved.  ``SystemConfig`` holds
the scaled values actually simulated; ``paper_config`` documents the
unscaled Table II numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.dram.timing import DDR3_TIMINGS, HBM2_TIMINGS, DRAMTimings

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: 64 B: the transfer unit between LLC and memory, and SILC-FM's subblock.
SUBBLOCK_BYTES = 64
#: 2 KB: the paper's large block / OS page size.
BLOCK_BYTES = 2048
#: Subblocks per large block (32 -> one 32-bit residency vector per block).
SUBBLOCKS_PER_BLOCK = BLOCK_BYTES // SUBBLOCK_BYTES


@dataclass(frozen=True)
class CoreConfig:
    """Per-core pipeline parameters (Table II, processor section)."""

    frequency_ghz: float = 3.2
    issue_width: int = 4
    rob_entries: int = 128
    #: Maximum LLC misses a core keeps in flight (memory-level
    #: parallelism).  A 128-entry ROB with ~1 miss / 10 instructions
    #: sustains roughly this many outstanding misses.
    max_outstanding_misses: int = 8


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = SUBBLOCK_BYTES


@dataclass(frozen=True)
class CacheHierarchyConfig:
    """Table II cache section (sizes scaled alongside memory)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * KB, 2, 4)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * KB, 4, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 * MB, 16, 11)
    )


@dataclass(frozen=True)
class SilcFmConfig:
    """Parameters of the SILC-FM mechanism itself (Section III)."""

    associativity: int = 4
    #: Access-count threshold above which a block is considered hot and
    #: locked (the paper found 50 works best).
    hot_threshold: int = 50
    #: Aging: counters shift right every this many memory accesses.
    #: The paper uses one million; at simulation scale (traces of a few
    #: hundred thousand misses rather than billions) the period scales
    #: down so hotness decays several times per run — otherwise every
    #: warm block saturates its 6-bit counter and locks forever.
    aging_period_accesses: int = 50_000
    #: Bit-vector history table entries (paper: ~1 M; scaled with memory).
    bitvector_table_entries: int = 65536
    #: Way/location predictor entries (paper: 4 K).
    predictor_entries: int = 4096
    #: SRAM metadata (remap-entry) cache entries.  The full remap table
    #: lives in the NM metadata channel; hot frames' entries are cached
    #: in SRAM — the same class of structure as PoM's remap cache and
    #: the paper's own SRAM bit-vector table — so the metadata channel
    #: only sees cold-set traffic.
    metadata_cache_entries: int = 256
    #: Target NM share of demand traffic for bandwidth balancing
    #: (NM:FM bandwidth is 4:1 so the ideal share is 4/5).
    bypass_target_access_rate: float = 0.8
    #: Sliding window (in LLC misses) over which the access rate is
    #: measured for the bypass decision.
    access_rate_window: int = 4096
    #: Feature gates, used by the Fig. 6 cumulative breakdown.
    enable_locking: bool = True
    enable_bypass: bool = True
    enable_predictor: bool = True
    enable_bitvector_history: bool = True


@dataclass(frozen=True)
class SystemConfig:
    """Everything a simulation run needs.

    The default instance is the *scaled* Table II system: capacities are
    divided by ``scale`` (default 1024) so a full 14-benchmark sweep runs
    in minutes, while all capacity/bandwidth ratios match the paper.
    """

    cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    caches: CacheHierarchyConfig = field(default_factory=CacheHierarchyConfig)
    nm_bytes: int = 4 * MB
    fm_bytes: int = 16 * MB
    nm_timings: DRAMTimings = field(default_factory=lambda: HBM2_TIMINGS)
    fm_timings: DRAMTimings = field(default_factory=lambda: DDR3_TIMINGS)
    silcfm: SilcFmConfig = field(default_factory=SilcFmConfig)
    seed: int = 1
    #: Differential-oracle full-scan period, in LLC misses.  0 (default)
    #: disables validation entirely; N > 0 attaches the shadow-memory
    #: oracle (:mod:`repro.validate`) to every access and runs the
    #: whole-space bijection scan every N misses.  Observation only —
    #: the simulated figures of merit are unchanged.
    check_interval: int = 0
    #: Telemetry sampling window, in CPU cycles.  0 (default) disables
    #: telemetry entirely (no hub is built, hot paths pay nothing);
    #: N > 0 attaches a :class:`repro.telemetry.Telemetry` hub to the
    #: run and samples every registered probe each N cycles.  Like the
    #: oracle, telemetry is pure observation — the simulated figures of
    #: merit are unchanged — and because the field is part of this
    #: config it participates in the experiment executor's cache key.
    telemetry_window: int = 0
    #: MSHR (miss-status holding register) file entries in front of the
    #: flat-memory controller.  N > 0 bounds the number of distinct
    #: in-flight misses: same-subblock *read* misses coalesce onto one
    #: transaction (all waiters wake on its completion) and a full file
    #: is a structural stall — arrivals queue until an entry frees.
    #: The default is sized to the machine's aggregate memory-level
    #: parallelism (``cores`` × ``CoreConfig.max_outstanding_misses`` =
    #: 16 × 8): the silc-mshr32 postmortem (docs/architecture.md)
    #: showed any smaller file is a hard concurrency cap that costs far
    #: more than coalescing recovers.  0 is the *compatibility* value:
    #: a file that never fills and never coalesces, so every miss
    #: dispatches at arrival with its own scheme consult and results
    #: are bit-identical to pre-MSHR runs.  Like the knobs above, the field
    #: is part of this config and so participates in the experiment
    #: executor's cache key.
    mshr_entries: int = 128
    #: Per-request span sampling rate, in new-transaction arrivals.
    #: 0 (default) disables span tracing entirely — no recorder is
    #: built and hot paths pay one ``is None`` check.  Like the knobs
    #: above, the field is part of the executor's cache key.
    #: N >= 1 samples every Nth new transaction (deterministic modulo
    #: over the arrival sequence; 1 = every request) with a
    #: :class:`repro.telemetry.spans.Span` recording cycle-stamped
    #: stage transitions through the pipeline.  Requires telemetry
    #: (``telemetry_window > 0``): the span aggregate rides inside the
    #: telemetry snapshot and the Perfetto slices inside its trace.
    span_sample_rate: int = 0

    def __post_init__(self) -> None:
        if self.nm_bytes % BLOCK_BYTES:
            raise ValueError("nm_bytes must be a multiple of the 2KB block")
        if self.nm_bytes <= 0:
            raise ValueError(
                f"nm_bytes must be positive (at least one 2KB block), got "
                f"{self.nm_bytes}")
        if self.fm_bytes % BLOCK_BYTES:
            raise ValueError("fm_bytes must be a multiple of the 2KB block")
        if self.fm_bytes < self.nm_bytes:
            raise ValueError("far memory must be at least as large as near memory")
        if self.check_interval < 0:
            raise ValueError("check_interval must be >= 0")
        if self.telemetry_window < 0:
            raise ValueError("telemetry_window must be >= 0")
        if self.mshr_entries < 0:
            raise ValueError("mshr_entries must be >= 0")
        if self.span_sample_rate < 0:
            raise ValueError("span_sample_rate must be >= 0")
        if self.span_sample_rate > 0 and self.telemetry_window <= 0:
            raise ValueError("span tracing requires telemetry "
                             "(set telemetry_window > 0)")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Flat address space size: NM and FM both contribute capacity."""
        return self.nm_bytes + self.fm_bytes

    @property
    def nm_blocks(self) -> int:
        return self.nm_bytes // BLOCK_BYTES

    @property
    def fm_blocks(self) -> int:
        return self.fm_bytes // BLOCK_BYTES

    @property
    def fm_to_nm_ratio(self) -> int:
        return self.fm_bytes // self.nm_bytes

    def with_ratio(self, fm_to_nm: int) -> "SystemConfig":
        """A copy with a different FM:NM capacity ratio (Fig. 9 sweep),
        holding FM capacity constant so the workload footprint pressure
        stays comparable."""
        return dataclasses.replace(self, nm_bytes=self.fm_bytes // fm_to_nm)

    def with_silcfm(self, **overrides) -> "SystemConfig":
        """A copy with SILC-FM feature gates / parameters overridden."""
        return dataclasses.replace(
            self, silcfm=dataclasses.replace(self.silcfm, **overrides)
        )


def config_digest(config: SystemConfig) -> str:
    """Short stable content hash of a config.

    Labels telemetry artifacts (the run-metadata header) so ``repro
    analyze`` can say which configuration produced a file without the
    originating command; the experiment executor's cell hash — which
    also covers workload and run parameters — remains the cache
    identity.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def paper_config() -> SystemConfig:
    """The unscaled Table II system (4 GB NM : 16 GB FM).

    Provided for documentation and for users with the patience for a
    full-scale run; the report and ``repro figure table2`` print it
    beside the scaled default everything simulates.
    """
    return SystemConfig(nm_bytes=4 * GB, fm_bytes=16 * GB)


def default_config(scale: Optional[float] = None) -> SystemConfig:
    """The scaled simulation config.

    The default scale, 2.0 (NM = 8 MiB, 4096 frames), is the smallest at
    which hot working sets populate enough DRAM rows per bank for
    row-buffer behaviour to look like the paper's full-size system.  An
    explicit ``scale`` wins; without one, the ``REPRO_SCALE`` environment
    variable supplies the default when set (``repro report`` has no
    ``--scale`` flag).  Either must be a finite number > 0; anything
    else raises a ``ValueError`` that names its source.
    """
    source, value = "scale", scale
    if scale is None:
        source, value = "REPRO_SCALE", os.environ.get("REPRO_SCALE", "2.0")
        try:
            scale = float(value)
        except ValueError:
            scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(
            f"{source} must be a finite number > 0, got {value!r}")
    nm = int(4 * MB * scale) // BLOCK_BYTES * BLOCK_BYTES
    # the shared LLC scales with memory capacity (the paper's 8 MB L2
    # sits under GB-scale footprints; an unscaled L2 would swallow the
    # scaled hot sets entirely and no miss stream would survive it)
    l2_size = 64 * KB
    while l2_size < 8 * MB * scale / 512:
        l2_size *= 2
    caches = CacheHierarchyConfig(
        l2=CacheConfig(int(l2_size), 16, 11))
    return SystemConfig(nm_bytes=nm, fm_bytes=4 * nm, caches=caches)
