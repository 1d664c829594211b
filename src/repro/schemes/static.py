"""Static placement schemes: no hardware migration.

* :class:`StaticScheme` — data stays at its allocated physical frame
  forever.  Combined with a ``fm_only`` frame allocator it is the
  paper's **baseline** (system without die-stacked DRAM); with a
  ``random`` allocator it is the **Random** comparison scheme.

The interesting behaviour lives entirely in the OS frame-allocation
policy (:class:`repro.xmem.translation.FrameAllocator`); the scheme
itself is the identity mapping, which also makes it the reference point
for the part-of-memory bijection tests.
"""

from __future__ import annotations

from repro.schemes.base import FM, NM, AccessPlan, MemoryScheme, Op
from repro.xmem.address import AddressSpace


class StaticScheme(MemoryScheme):
    """Identity mapping: the flat address *is* the storage location."""

    name = "static"
    SPAN_ROWS = ("static",)

    def __init__(self, space: AddressSpace) -> None:
        super().__init__(space)

    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        """One 64 B op where the address lives, decided in this frame
        (``locate`` and ``record_plan`` inline)."""
        if not 0 <= paddr < self._total_bytes:
            raise ValueError(f"address {paddr:#x} outside flat space")
        stats = self.stats
        stats.misses += 1
        offset = paddr - self._nm_bytes
        if offset < 0:
            stats.nm_serviced += 1
            return AccessPlan(NM, [[Op(NM, paddr - paddr % 64, 64, is_write)]],
                              [], False, "static")
        stats.fm_serviced += 1
        return AccessPlan(FM, [[Op(FM, offset - offset % 64, 64, is_write)]],
                          [], False, "static")

    def at_home(self, block: int) -> bool:
        return True

    def attach_telemetry(self, hub) -> None:
        """Static placement moves nothing, so beyond the base signals
        only the placement split itself is interesting: the NM service
        share of a static scheme is purely the OS frame allocator's
        doing (``fm_only`` pins it at 0, ``random`` at ~NM/total)."""
        super().attach_telemetry(hub)
        hub.gauge("static.nm_service_share",
                  lambda: (self.stats.nm_serviced / self.stats.misses
                           if self.stats.misses else 0.0))

    def check_invariants(self) -> None:
        """The identity mapping carries no metadata to check: every block
        is at home, where :meth:`MemoryScheme.locate` answers it (the
        oracle's shadow covers the data)."""
