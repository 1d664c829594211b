"""Per-NM-frame metadata (Figure 4 of the paper).

Each 2 KB NM frame (a *way* of its congruence set) carries:

* ``remap`` — the global block number of the FM block currently
  interleaved into this frame (or None);
* ``bitvec`` — 32 residency bits; bit *i* set means subblock *i* of the
  frame holds the **FM block's** subblock *i*, and the frame's native
  subblock *i* has been swapped out to the FM block's home, position *i*
  (swaps are always position-for-position between a frame and its
  partner block's home, which is what makes the mapping a bijection);
* ``locked`` / ``lock_owner`` — a hot block owns the whole frame:
  ``"fm"`` = the remapped FM block is fully resident (bitvec conceptually
  all-ones), ``"nm"`` = the native page is pinned and interleaving is
  forbidden;
* ``nm_count`` / ``fm_count`` — 6-bit aging activity counters for the
  native and remapped block respectively;
* ``lru`` — last-touch stamp for victim selection among a set's ways;
* ``first_pc`` / ``first_addr`` — PC and address of the first subblock
  swapped in, the bit-vector history table's key (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.config import SUBBLOCKS_PER_BLOCK

#: all 32 residency bits set
FULL_BITVEC = (1 << SUBBLOCKS_PER_BLOCK) - 1
#: activity counters are 6 bits wide (Section III-B)
COUNTER_MAX = 63


@dataclass(slots=True)
class FrameMetadata:
    """Remap state of one NM frame."""

    remap: Optional[int] = None
    bitvec: int = 0
    locked: bool = False
    lock_owner: Optional[str] = None  # "fm" | "nm" when locked
    nm_count: int = 0
    fm_count: int = 0
    lru: int = 0
    first_pc: int = 0
    first_addr: int = 0

    # ------------------------------------------------------------------
    def bit(self, index: int) -> bool:
        """Residency bit for subblock ``index``."""
        self._check_index(index)
        return bool(self.bitvec >> index & 1)

    def set_bit(self, index: int) -> None:
        self._check_index(index)
        self.bitvec |= 1 << index

    def clear_bit(self, index: int) -> None:
        self._check_index(index)
        self.bitvec &= ~(1 << index)

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < SUBBLOCKS_PER_BLOCK:
            raise ValueError(f"subblock index {index} out of range")

    def missing_indices(self):
        """Indices whose FM subblocks are *not* resident."""
        vec = self.bitvec
        return [i for i in range(SUBBLOCKS_PER_BLOCK) if not vec >> i & 1]

    @property
    def interleaved(self) -> bool:
        """True when two blocks' subblocks coexist in this frame."""
        return self.remap is not None and 0 < self.bitvec < FULL_BITVEC

    # counters -------------------------------------------------------------
    def age(self) -> None:
        """Right-shift both counters (Section III-B aging)."""
        self.nm_count >>= 1
        self.fm_count >>= 1

    # locking ---------------------------------------------------------------
    def lock(self, owner: str) -> None:
        if owner not in ("nm", "fm"):
            raise ValueError(f"lock owner must be 'nm' or 'fm', got {owner!r}")
        if owner == "fm" and self.remap is None:
            raise ValueError("cannot fm-lock a frame with no remapped block")
        self.locked = True
        self.lock_owner = owner

    def unlock(self) -> None:
        self.locked = False
        self.lock_owner = None
