"""Physical-address to DRAM-coordinate mapping.

Device-local addresses (offsets within one memory device) are interleaved
across channels at 64 B granularity — the standard choice for spreading a
miss stream over all channels — then across banks at row granularity so
that sequential rows land in different banks:

    addr bits:  | row | bank | row-offset-within-channel | channel | 6b |

Geometry comes from the device's :class:`~repro.dram.timing.DRAMTimings`.
:meth:`repro.dram.device.MemoryDevice.access` inlines the same
arithmetic per chunk; :class:`AddressMapper` states it once, as the
reference the device's tests are held to.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dram.timing import DRAMTimings

CHANNEL_INTERLEAVE_BYTES = 64


class DRAMCoordinates(NamedTuple):
    """Where a device-local address lands."""

    channel: int
    bank: int
    row: int
    column_offset: int


class AddressMapper:
    """Maps device-local byte addresses to (channel, bank, row)."""

    def __init__(self, timings: DRAMTimings) -> None:
        self._channels = timings.channels
        self._banks = timings.banks
        self._row_bytes = timings.row_bytes

    def map(self, addr: int) -> DRAMCoordinates:
        if addr < 0:
            raise ValueError(f"negative device address {addr}")
        unit = addr // CHANNEL_INTERLEAVE_BYTES
        channel = unit % self._channels
        within_channel = unit // self._channels * CHANNEL_INTERLEAVE_BYTES + (
            addr % CHANNEL_INTERLEAVE_BYTES
        )
        row_index = within_channel // self._row_bytes
        bank = row_index % self._banks
        row = row_index // self._banks
        return DRAMCoordinates(
            channel=channel,
            bank=bank,
            row=row,
            column_offset=within_channel % self._row_bytes,
        )
