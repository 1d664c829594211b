"""Flat physical address-space arithmetic.

The paper's convention (Section III): NM occupies the **low** physical
addresses ``[0, nm_bytes)`` and FM the high ones
``[nm_bytes, nm_bytes + fm_bytes)``.  All schemes reason in terms of

* 64 B **subblocks** (the LLC line / swap unit),
* 2 KB **large blocks** (the page / remap unit), and
* **congruence sets**: FM block ``b`` may only occupy NM frames in set
  ``b mod num_sets``.

:class:`AddressSpace` centralises this arithmetic so every scheme and the
property-based tests share one definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES


@dataclass(frozen=True)
class AddressSpace:
    """The two-level flat physical address space."""

    nm_bytes: int
    fm_bytes: int

    def __post_init__(self) -> None:
        if self.nm_bytes <= 0 or self.fm_bytes <= 0:
            raise ValueError("both memory levels must be non-empty")
        if self.nm_bytes % BLOCK_BYTES or self.fm_bytes % BLOCK_BYTES:
            raise ValueError("capacities must be multiples of the 2KB block")

    # ------------------------------------------------------------------
    # capacities
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.nm_bytes + self.fm_bytes

    @property
    def nm_blocks(self) -> int:
        return self.nm_bytes // BLOCK_BYTES

    @property
    def fm_blocks(self) -> int:
        return self.fm_bytes // BLOCK_BYTES

    @property
    def total_blocks(self) -> int:
        return self.total_bytes // BLOCK_BYTES

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def is_nm(self, addr: int) -> bool:
        """True when ``addr`` belongs to the NM address range."""
        self._check(addr)
        return addr < self.nm_bytes

    def is_fm(self, addr: int) -> bool:
        self._check(addr)
        return addr >= self.nm_bytes

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.total_bytes:
            raise ValueError(f"address {addr:#x} outside flat space")

    # ------------------------------------------------------------------
    # block / subblock arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def block_of(addr: int) -> int:
        """Large-block number of an address (global, over NM then FM)."""
        return addr // BLOCK_BYTES

    @staticmethod
    def subblock_index(addr: int) -> int:
        """Index of the subblock within its large block (0..31) — the bit
        position in the residency bit vector."""
        return (addr % BLOCK_BYTES) // SUBBLOCK_BYTES

    def nm_block_of(self, addr: int) -> int:
        """Block number inside NM (== the NM frame number it lives in)."""
        if not self.is_nm(addr):
            raise ValueError(f"{addr:#x} is not an NM address")
        return addr // BLOCK_BYTES

    # ------------------------------------------------------------------
    # congruence sets
    # ------------------------------------------------------------------
    def num_sets(self, associativity: int) -> int:
        """Number of congruence sets when NM frames are grouped
        ``associativity`` ways."""
        if associativity <= 0 or self.nm_blocks % associativity:
            raise ValueError(
                f"associativity {associativity} does not divide "
                f"{self.nm_blocks} NM frames"
            )
        return self.nm_blocks // associativity

    def nm_frames_of_set(self, set_index: int, associativity: int) -> list:
        """The NM frame numbers (== NM-resident block numbers) forming
        ``set_index``'s ways."""
        sets = self.num_sets(associativity)
        if not 0 <= set_index < sets:
            raise ValueError(f"set {set_index} out of range")
        return [set_index + way * sets for way in range(associativity)]
