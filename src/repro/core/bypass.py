"""Bypassing / bandwidth balancing (Section III-E).

NM is part of the address space, not a cache: leaving FM idle throws
away a quarter of the system's bandwidth.  With an NM:FM bandwidth ratio
of N:1 the ideal split services N/(N+1) of the traffic from NM — 0.8 for
the paper's 4:1 system.  The monitor measures the access rate over a
sliding window of LLC misses; while it exceeds the target, new swaps are
suppressed and would-be swap requests are serviced straight from FM
(resident blocks keep operating from NM), steering the rate back toward
the target.
"""

from __future__ import annotations

from typing import Callable, Optional


class BandwidthBalancer:
    """Windowed access-rate monitor with a hysteresis-free target.

    Besides the per-window decision the balancer keeps **lifetime**
    accounting (every recorded miss, including the in-flight partial
    window) so end-of-run reports and telemetry see the true NM
    fraction — windowed state alone silently discards up to
    ``window - 1`` trailing misses at drain.
    """

    def __init__(self, target_access_rate: float = 0.8, window: int = 4096) -> None:
        if not 0.0 < target_access_rate < 1.0:
            raise ValueError("target access rate must be in (0, 1)")
        if window < 16:
            raise ValueError("window too small to be meaningful")
        self.target = target_access_rate
        self.window = window
        self._window_total = 0
        self._window_nm = 0
        self._bypassing = False
        self.bypassed_accesses = 0
        self.windows_observed = 0
        # lifetime accounting (never reset, partial window included)
        self.total_accesses = 0
        self.nm_accesses = 0
        #: bypass-mode flips (off->on and on->off each count one).
        self.transitions = 0
        #: rate of the most recently *completed* window.
        self.last_window_rate = 0.0
        #: observer called as ``on_transition(bypassing, rate)`` at the
        #: window boundary where the mode flips (telemetry tracing).
        self.on_transition: Optional[Callable[[bool, float], None]] = None

    # ------------------------------------------------------------------
    def record(self, serviced_from_nm: bool) -> None:
        """Account one LLC miss; re-evaluates at window boundaries."""
        self.total_accesses += 1
        self.nm_accesses += serviced_from_nm
        self._window_total += 1
        self._window_nm += serviced_from_nm
        if self._window_total >= self.window:
            rate = self._window_nm / self._window_total
            self.last_window_rate = rate
            if (rate > self.target) != self._bypassing:
                self._bypassing = not self._bypassing
                self.transitions += 1
                if self.on_transition is not None:
                    self.on_transition(self._bypassing, rate)
            self._window_total = 0
            self._window_nm = 0
            self.windows_observed += 1

    @property
    def bypassing(self) -> bool:
        """True while new swaps should be suppressed."""
        return self._bypassing

    def note_bypassed(self) -> None:
        self.bypassed_accesses += 1

    # ------------------------------------------------------------------
    # read-side API (telemetry, tests, end-of-run reports)
    # ------------------------------------------------------------------
    def current_rate(self) -> float:
        """NM access rate of the in-flight window; falls back to the
        last completed window right at a boundary (so a telemetry
        sample never reads a spurious 0.0)."""
        if self._window_total == 0:
            return self.last_window_rate
        return self._window_nm / self._window_total

    @property
    def lifetime_rate(self) -> float:
        """NM fraction over *every* recorded miss — including the
        partial final window that the windowed state discards."""
        if self.total_accesses == 0:
            return 0.0
        return self.nm_accesses / self.total_accesses
