"""DRAM timing parameters (the paper's Table II, HBM and DDR3 sections).

Timings are expressed in *memory* cycles at the device bus frequency; the
channel model converts them to CPU cycles using ``cpu_cycles_per_mem``.
Both the paper's devices run their buses at 800 MHz (DDR, 1.6 GT/s) under
the 3.2 GHz core clock (``repro.sim.engine.CPU_GHZ``), i.e. 4 CPU cycles
per memory cycle.

The exact tCAS-tRCD-tRP-tRAS digits are cut off in the archived paper
text; we use JEDEC-typical values for DDR3-1600 (11-11-11-28) and
slightly tighter ones for HBM2 (the paper notes NM's "slightly reduced
access latency"), which preserves the latency relation the evaluation
depends on.  Bandwidth comes from bus width x channels: 8 x 128-bit HBM
channels vs 4 x 64-bit DDR3 channels = the 4:1 NM:FM ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import CPU_GHZ


@dataclass(frozen=True)
class DRAMTimings:
    """Timing and geometry for one memory device type."""

    name: str
    bus_mhz: float = 800.0
    #: data bus width per channel, in bits (DDR: two transfers/cycle)
    bus_bits: int = 64
    channels: int = 4
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    #: Scaled with overall capacity: the paper's devices use 8 KB rows
    #: over gigabyte capacities; at megabyte simulation scale an 8 KB
    #: row would cover a 512x larger *fraction* of memory than in the
    #: paper, collapsing hot sets into a handful of rows per bank.  1 KB
    #: keeps rows-per-bank in a realistic regime.
    row_bytes: int = 1024
    #: column access latency (memory cycles)
    t_cas: int = 11
    #: RAS-to-CAS delay
    t_rcd: int = 11
    #: row precharge
    t_rp: int = 11
    #: row active time (min cycles a row stays open before precharge)
    t_ras: int = 28
    #: column-to-column command gap (CAS pipelining floor)
    t_ccd: int = 4

    def __post_init__(self) -> None:
        if self.bus_bits % 8:
            raise ValueError("bus width must be a whole number of bytes")
        if self.row_bytes <= 0 or self.channels <= 0 or self.banks_per_rank <= 0:
            raise ValueError("device geometry must be positive")

    # ------------------------------------------------------------------
    @property
    def cpu_cycles_per_mem(self) -> float:
        """CPU cycles per memory-bus cycle."""
        return CPU_GHZ * 1000.0 / self.bus_mhz

    @property
    def banks(self) -> int:
        """Total banks per channel."""
        return self.ranks_per_channel * self.banks_per_rank

    def burst_mem_cycles(self, size_bytes: int) -> float:
        """Bus occupancy of a ``size_bytes`` transfer, in memory cycles.

        DDR signalling moves ``bus_bits / 8 * 2`` bytes per bus cycle.
        Transfers shorter than one beat still occupy a full beat.
        """
        bytes_per_cycle = self.bus_bits // 8 * 2
        cycles = size_bytes / bytes_per_cycle
        return max(cycles, 1.0)

    def peak_bandwidth_gbs(self) -> float:
        """Aggregate peak bandwidth across all channels, in GB/s."""
        per_channel = self.bus_mhz * 1e6 * (self.bus_bits / 8) * 2
        return per_channel * self.channels / 1e9


#: Die-stacked HBM generation 2 (Table II "HBM"): 8 channels, 128-bit,
#: 800 MHz DDR -> 204.8 GB/s peak.
HBM2_TIMINGS = DRAMTimings(
    name="hbm2",
    bus_bits=128,
    channels=8,
    banks_per_rank=16,
    t_cas=10,
    t_rcd=10,
    t_rp=10,
    t_ras=24,
    t_ccd=2,
)

#: Off-chip DDR3-1600 (Table II "DDR3"): 4 channels, 64-bit -> 51.2 GB/s.
DDR3_TIMINGS = DRAMTimings(
    name="ddr3",
    bus_bits=64,
    channels=4,
    t_cas=11,
    t_rcd=11,
    t_rp=11,
    t_ras=28,
)
