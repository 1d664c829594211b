"""Energy model for the EDP comparison (Section V: SILC-FM reduces
Energy-Delay Product by 13% vs the best state-of-the-art scheme).

Die-stacked DRAM moves bits over short TSVs instead of board traces, so
its access energy per bit is roughly a third of DDR3's; both devices pay
background (standby/refresh) power proportional to time.  Values follow
the literature the paper builds on (HBM ~4 pJ/bit access vs DDR3
~13 pJ/bit; background power scaled to channel counts).

EDP = total energy x execution time; only *relative* EDP matters for the
reproduction (the paper reports a ratio).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import CPU_GHZ


@dataclass(frozen=True)
class EnergyParams:
    """Per-device energy characteristics."""

    access_pj_per_bit: float
    background_watts: float


#: die-stacked HBM: cheap bit movement, modest standby for 8 channels.
HBM_ENERGY = EnergyParams(access_pj_per_bit=4.0, background_watts=0.5)
#: off-chip DDR3: board-trace signalling dominates.
DDR3_ENERGY = EnergyParams(access_pj_per_bit=13.0, background_watts=1.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules spent by one simulation run."""

    nm_access_joules: float
    fm_access_joules: float
    nm_background_joules: float
    fm_background_joules: float

    @property
    def total_joules(self) -> float:
        return (self.nm_access_joules + self.fm_access_joules
                + self.nm_background_joules + self.fm_background_joules)


class EnergyModel:
    """Computes energy and EDP from transferred bytes and elapsed time."""

    def __init__(self, nm: EnergyParams = HBM_ENERGY,
                 fm: EnergyParams = DDR3_ENERGY) -> None:
        self.nm = nm
        self.fm = fm

    @staticmethod
    def cycles_to_seconds(cycles: float) -> float:
        return cycles / (CPU_GHZ * 1e9)

    def breakdown(self, nm_bytes: int, fm_bytes: int,
                  elapsed_cycles: float) -> EnergyBreakdown:
        seconds = self.cycles_to_seconds(elapsed_cycles)
        return EnergyBreakdown(
            nm_access_joules=nm_bytes * 8 * self.nm.access_pj_per_bit * 1e-12,
            fm_access_joules=fm_bytes * 8 * self.fm.access_pj_per_bit * 1e-12,
            nm_background_joules=self.nm.background_watts * seconds,
            fm_background_joules=self.fm.background_watts * seconds,
        )

    def edp(self, nm_bytes: int, fm_bytes: int, elapsed_cycles: float) -> float:
        """Energy-Delay Product in joule-seconds."""
        energy = self.breakdown(nm_bytes, fm_bytes, elapsed_cycles).total_joules
        return energy * self.cycles_to_seconds(elapsed_cycles)
