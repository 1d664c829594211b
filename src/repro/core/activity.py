"""Memory-activity monitoring (Section III-B).

Every NM frame carries two 6-bit counters — one for its native NM block,
one for the FM block interleaved into it — classified hot when a counter
crosses the threshold (the paper found 50 best).  To distinguish current
from past hotness the counters are *aging*: every one million memory
accesses they shift right one bit.

The monitor owns the global access count and drives aging across all
frames; the hot/cold classification feeds the locking engine.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.metadata import FrameMetadata

DEFAULT_HOT_THRESHOLD = 50
DEFAULT_AGING_PERIOD = 1_000_000


class ActivityMonitor:
    """Aging-counter bookkeeping over all NM frames."""

    def __init__(self, frames: List[FrameMetadata],
                 hot_threshold: int = DEFAULT_HOT_THRESHOLD,
                 aging_period: int = DEFAULT_AGING_PERIOD) -> None:
        if hot_threshold < 1:
            raise ValueError("hot threshold must be >= 1")
        if aging_period < 1:
            raise ValueError("aging period must be >= 1")
        self._frames = frames
        self.hot_threshold = hot_threshold
        self.aging_period = aging_period
        self.accesses = 0
        self.agings = 0

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Count one memory access; runs the aging pass at each period
        boundary.  Returns True when an aging pass happened (the caller
        then re-evaluates locks)."""
        self.accesses += 1
        if self.accesses % self.aging_period == 0:
            self.age_all()
            return True
        return False

    def age_all(self) -> None:
        for frame in self._frames:
            frame.age()
        self.agings += 1

    # classification --------------------------------------------------------
    def stale_locks(self) -> Iterable[int]:
        """Indices of frames whose locked owner has cooled below the
        threshold (Section III-C: clearing the lock bit)."""
        for index, frame in enumerate(self._frames):
            if not frame.locked:
                continue
            count = frame.fm_count if frame.lock_owner == "fm" else frame.nm_count
            if count < self.hot_threshold:
                yield index
