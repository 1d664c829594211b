"""Virtual-to-physical translation with 2 KB pages.

The paper implements virtual-to-physical translation with a 2 KB page
size and runs 16 single-threaded benchmark instances whose physical
address spaces never overlap (rate mode).  We reproduce that with one
:class:`PageTable` per core/process drawing frames from a shared
:class:`FrameAllocator`.

Frame-allocation policy is what distinguishes the *static* placement
schemes:

* ``interleaved`` — pages striped over the whole flat space (NM+FM) in
  proportion to capacity; the OS-oblivious default under hardware
  migration schemes.
* ``random`` — the paper's Random static baseline.
* ``fm_only`` — the no-NM baseline (all pages in far memory).

A page keeps its frame for the whole run unless the table reclaims it
on a full machine.  The epoch-based HMA scheme models OS page migration
in its own block-to-frame map (:mod:`repro.schemes.hma`), below this
translation.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.sim.config import BLOCK_BYTES
from repro.xmem.address import AddressSpace


class OutOfMemoryError(RuntimeError):
    """All physical frames are in use."""


class FrameAllocator:
    """Hands out physical page frames (2 KB) from the flat space."""

    POLICIES = ("interleaved", "random", "fm_only")

    def __init__(self, space: AddressSpace, policy: str = "interleaved",
                 seed: int = 1) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown allocation policy {policy!r}")
        self.space = space
        self.policy = policy
        self._free = self._build_order(policy, seed)
        self._next = 0

    def _build_order(self, policy: str, seed: int) -> List[int]:
        nm = list(range(self.space.nm_blocks))
        fm = list(range(self.space.nm_blocks, self.space.total_blocks))
        if policy == "fm_only":
            return fm
        if policy == "random":
            frames = nm + fm
            random.Random(seed).shuffle(frames)
            return frames
        # interleaved: one NM frame per fm_to_nm_ratio FM frames, so a
        # footprint samples NM in proportion to its share of capacity.
        ratio = max(1, self.space.fm_blocks // self.space.nm_blocks)
        frames: List[int] = []
        nm_iter, fm_iter = iter(nm), iter(fm)
        exhausted = False
        while not exhausted:
            exhausted = True
            nxt = next(nm_iter, None)
            if nxt is not None:
                frames.append(nxt)
                exhausted = False
            for _ in range(ratio):
                nxt = next(fm_iter, None)
                if nxt is not None:
                    frames.append(nxt)
                    exhausted = False
        return frames

    def allocate(self) -> int:
        """Return the next free frame number.  A full machine raises;
        :class:`PageTable` then reuses a frame of its own."""
        if self._next >= len(self._free):
            raise OutOfMemoryError(
                f"out of physical frames after {self._next} allocations"
            )
        frame = self._free[self._next]
        self._next += 1
        return frame


class PageTable:
    """Per-process translation, populated on first touch."""

    def __init__(self, allocator: FrameAllocator, asid: int = 0) -> None:
        self._allocator = allocator
        self.asid = asid
        self._vpage_to_frame: Dict[int, int] = {}
        #: pages evicted to satisfy an allocation on a full machine
        self.reclaims = 0

    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> int:
        """Translate a virtual address, allocating a frame on first touch.

        When physical memory is exhausted the table reclaims its own
        oldest mapping (FIFO, modelling OS page reclaim) instead of
        letting :class:`OutOfMemoryError` escape mid-run; a process with
        no pages of its own to reclaim still raises.
        """
        if vaddr < 0:
            raise ValueError("negative virtual address")
        vpage, offset = divmod(vaddr, BLOCK_BYTES)
        frame = self._vpage_to_frame.get(vpage)
        if frame is None:
            try:
                frame = self._allocator.allocate()
            except OutOfMemoryError:
                frame = self._reclaim_oldest()
            self._vpage_to_frame[vpage] = frame
        return frame * BLOCK_BYTES + offset

    def _reclaim_oldest(self) -> int:
        if not self._vpage_to_frame:
            raise OutOfMemoryError(
                f"out of physical frames and asid {self.asid} has no pages"
                " to reclaim"
            )
        victim = next(iter(self._vpage_to_frame))
        frame = self._vpage_to_frame.pop(victim)
        self.reclaims += 1
        return frame

    @property
    def resident_pages(self) -> int:
        return len(self._vpage_to_frame)
