"""Per-bank row-buffer state machine (open-page policy)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import DRAMTimings


@dataclass
class BankStats:
    row_hits: int = 0
    row_closed: int = 0
    row_conflicts: int = 0

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_closed + self.row_conflicts


class Bank:
    """One DRAM bank under an open-page policy.

    The bank tracks which row its row buffer holds, when it can start
    its next operation, and when the current row was activated (so a
    precharge respects tRAS).  All times are CPU cycles.
    """

    def __init__(self, timings: DRAMTimings) -> None:
        cpm = timings.cpu_cycles_per_mem
        # timing parameters in CPU cycles, scaled once: ``prepare`` runs
        # per DRAM transfer
        self._rcd = timings.t_rcd * cpm
        self._ras = timings.t_ras * cpm
        self._rp = timings.t_rp * cpm
        self._ccd = timings.t_ccd * cpm
        self._cas = timings.t_cas * cpm
        self.open_row: Optional[int] = None
        #: earliest CPU-cycle time the bank can accept its next command
        #: (successive CAS to an open row pipeline at the column-to-
        #: column gap; only activates/precharges occupy the bank long).
        self.ready: float = 0.0
        self._activated_at: float = float("-inf")
        self.stats = BankStats()

    def prepare(self, row: int, now: float) -> float:
        """Account for opening ``row`` and return the CPU-cycle time at
        which column data can start moving.

        Row hit: tCAS, and back-to-back hits pipeline — the next CAS can
        issue one column-to-column gap (~= tCCD, approximated by the
        burst) later, so a hot row streams at bus rate.  Closed bank:
        tRCD + tCAS.  Conflict: wait out tRAS, then tRP + tRCD + tCAS.
        """
        ready = self.ready
        start = now if now > ready else ready
        open_row = self.open_row
        if open_row == row:
            self.stats.row_hits += 1
            cas_at = start
        elif open_row is None:
            self.stats.row_closed += 1
            self._activated_at = start
            cas_at = start + self._rcd
        else:
            self.stats.row_conflicts += 1
            precharge_at = self._activated_at + self._ras
            if start > precharge_at:
                precharge_at = start
            activate_at = precharge_at + self._rp
            self._activated_at = activate_at
            cas_at = activate_at + self._rcd
        self.open_row = row
        # the bank can take its next CAS one column gap (tCCD) after
        # this one, so an open row streams at the bus rate.
        self.ready = cas_at + self._ccd
        return cas_at + self._cas
