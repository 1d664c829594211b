"""Trace record types shared by the workload generators and the CPU
model.

A trace is an iterable of :class:`MemoryAccess` records.  ``gap_instr``
is the number of instructions the core executes *before* this access —
it is what turns a miss stream with a target MPKI into compute time
between misses.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List


class MemoryAccess:
    """One memory reference (virtual address space of its process).

    A slotted class rather than a frozen dataclass: every simulated miss
    builds one, and the frozen ``__init__`` (one ``object.__setattr__``
    per field) cost ~1–1.5 µs a record against ~0.25 µs here.  Records
    compare by value (trace round trips rely on it) and are never
    mutated.  The non-negative check guards traces loaded from files."""

    __slots__ = ("pc", "vaddr", "is_write", "gap_instr")

    def __init__(self, pc: int, vaddr: int, is_write: bool,
                 gap_instr: int) -> None:
        if vaddr < 0 or pc < 0 or gap_instr < 0:
            raise ValueError("trace fields must be non-negative")
        self.pc = pc
        self.vaddr = vaddr
        self.is_write = is_write
        self.gap_instr = gap_instr

    def _fields(self) -> tuple:
        return (self.pc, self.vaddr, self.is_write, self.gap_instr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryAccess):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"MemoryAccess(pc={self.pc}, vaddr={self.vaddr}, "
                f"is_write={self.is_write}, gap_instr={self.gap_instr})")


def materialize(trace: Iterable[MemoryAccess], limit: int) -> List[MemoryAccess]:
    """Pull at most ``limit`` records from a trace generator."""
    out: List[MemoryAccess] = []
    for record in trace:
        out.append(record)
        if len(out) >= limit:
            break
    return out


def interleave_round_robin(traces: List[Iterator[MemoryAccess]]) -> Iterator[MemoryAccess]:
    """Round-robin merge of several traces (used by trace-analysis tools;
    the full system keeps per-core traces separate)."""
    active = list(traces)
    while active:
        still_active = []
        for trace in active:
            record = next(trace, None)
            if record is not None:
                yield record
                still_active.append(trace)
        active = still_active


def trace_stats(trace: Iterable[MemoryAccess]):
    """Summarise a (finite) trace: counts, write fraction, footprint."""
    from repro.sim.config import BLOCK_BYTES

    count = 0
    writes = 0
    instructions = 0
    pages = set()
    for record in trace:
        count += 1
        writes += record.is_write
        instructions += record.gap_instr
        pages.add(record.vaddr // BLOCK_BYTES)
    return {
        "accesses": count,
        "write_fraction": writes / count if count else 0.0,
        "instructions": instructions,
        "footprint_pages": len(pages),
        "footprint_bytes": len(pages) * BLOCK_BYTES,
        "mpki": count / instructions * 1000.0 if instructions else 0.0,
    }
