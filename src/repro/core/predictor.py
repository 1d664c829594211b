"""Way + location predictor (Section III-F, latency optimisation).

Fetching four remap entries from DRAM-based NM is serialised, unlike an
SRAM cache.  A small (4 K entry) predictor indexed by ``PC xor data
address`` remembers, per index, the way last accessed and whether the
data was found in FM:

* a correct **way** prediction collapses the serialised 4-entry metadata
  fetch to a single entry read;
* a **location = FM** prediction launches the FM data access in parallel
  with the NM metadata check, hiding the NM latency entirely when right
  (the speculative FM request is wasted bandwidth when wrong).
"""

from __future__ import annotations

from typing import Dict, Tuple


class WayPredictor:
    """Direct-mapped PC xor address predictor."""

    def __init__(self, entries: int = 4096) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("predictor size must be a power of two")
        self.entries = entries
        self.mask = entries - 1
        #: index -> ``(way, in_fm)``, the outcome last trained there.
        #: SILC-FM's ``access`` reads and trains this table inline at
        #: index ``(pc ^ block) & mask``, ``block`` being the 2 KB block
        #: number: every subblock of a block shares one entry, since the
        #: way/location being predicted is a property of the block, not
        #: the subblock.
        self.table: Dict[int, Tuple[int, bool]] = {}
        self.way_correct = 0
        self.way_wrong = 0
        self.loc_correct = 0
        self.loc_wrong = 0

    @property
    def way_accuracy(self) -> float:
        total = self.way_correct + self.way_wrong
        return self.way_correct / total if total else 0.0

    @property
    def location_accuracy(self) -> float:
        total = self.loc_correct + self.loc_wrong
        return self.loc_correct / total if total else 0.0
