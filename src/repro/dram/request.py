"""Request objects exchanged with the DRAM substrate."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional


class Priority(IntEnum):
    """Scheduling class.  Demand requests (LLC misses on the critical
    path) beat background traffic (swaps, migrations, writebacks)."""

    DEMAND = 0
    BACKGROUND = 1


#: the classes as module globals, for per-op and per-transfer code (like
#: the levels in :mod:`repro.schemes.base`): on CPython 3.11 reading
#: ``Priority.DEMAND`` costs ~155 ns, a global ~11 ns.
DEMAND = Priority.DEMAND
BACKGROUND = Priority.BACKGROUND


#: ``eq=False``: requests compare by identity, so two queued requests
#: with equal fields stay distinct to ``deque.remove`` and ``in``.
@dataclass(slots=True, eq=False)
class DRAMRequest:
    """One queued channel-level transfer (at most one interleave unit,
    64 B, or one metadata entry) at ``(bank, row)`` of its channel.

    The channel recycles a request the moment it issues it: the
    completion event carries the payload (size, direction, priority,
    callback), so nothing reads the request afterwards.
    """

    addr: int
    size: int
    is_write: bool
    priority: Priority
    arrival: float
    bank: int
    row: int
    on_complete: Optional[Callable[[float], None]] = None
    #: span of the sampled memory request this transfer serves (see
    #: :mod:`repro.telemetry.spans`); None on unsampled traffic, so the
    #: channel's attribution hook is one ``is None`` check.
    span: Optional[object] = None
