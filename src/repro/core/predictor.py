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

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.config import BLOCK_BYTES


@dataclass(frozen=True)
class Prediction:
    """What the table predicts for an access (``None`` = no entry)."""

    way: Optional[int]
    in_fm: bool


class WayPredictor:
    """Direct-mapped PC xor address predictor."""

    def __init__(self, entries: int = 4096) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("predictor size must be a power of two")
        self.entries = entries
        self.mask = entries - 1
        self.shift = BLOCK_BYTES.bit_length() - 1
        #: index -> the outcome last trained there.  SILC-FM's ``access``
        #: reads and trains this table inline, with the index computed
        #: once per miss exactly as :meth:`_index` does.
        self.table: Dict[int, Prediction] = {}
        self.way_correct = 0
        self.way_wrong = 0
        self.loc_correct = 0
        self.loc_wrong = 0

    def _index(self, pc: int, paddr: int) -> int:
        # PC xor block-granularity address bits: every subblock of a
        # large block shares one entry, since the way/location being
        # predicted is a property of the block, not the subblock.  The
        # shift is derived from the block geometry (2 KB -> 11) so a
        # non-default geometry does not silently alias neighbouring
        # blocks into one entry.
        return (pc ^ (paddr >> self.shift)) & self.mask

    # ------------------------------------------------------------------
    def predict(self, pc: int, paddr: int) -> Prediction:
        return self.table.get(self._index(pc, paddr), Prediction(None, False))

    def update(self, pc: int, paddr: int, way: int, in_fm: bool) -> None:
        self.table[self._index(pc, paddr)] = Prediction(way, in_fm)

    def record_outcome(self, prediction: Prediction, actual_way: int,
                       actually_in_fm: bool) -> None:
        """Accuracy bookkeeping (reported by the predictor ablation)."""
        if prediction.way is not None:
            if prediction.way == actual_way:
                self.way_correct += 1
            else:
                self.way_wrong += 1
        if prediction.in_fm == actually_in_fm:
            self.loc_correct += 1
        else:
            self.loc_wrong += 1

    @property
    def way_accuracy(self) -> float:
        total = self.way_correct + self.way_wrong
        return self.way_correct / total if total else 0.0

    @property
    def location_accuracy(self) -> float:
        total = self.loc_correct + self.loc_wrong
        return self.loc_correct / total if total else 0.0
