"""A complete memory device: channels + address interleaving.

Accesses larger than one interleave unit (64 B) are split into chunks
that land on successive channels; the completion callback fires when the
last chunk finishes.  This is how a 2 KB PoM migration naturally spreads
over (and saturates) all channels.  Every chunk takes the same path:
:meth:`MemoryDevice.access` maps it inline and either starts its burst
on an idle channel or queues a request on a busy one.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dram.channel import Channel, ChannelStats
from repro.dram.mapping import CHANNEL_INTERLEAVE_BYTES
from repro.dram.request import DRAMRequest, Priority
from repro.dram.timing import DRAMTimings
from repro.sim.engine import Engine


class _Countdown:
    """``on_complete`` behind the chunks of one multi-chunk access: it
    fires once, at the last chunk's completion."""

    __slots__ = ("remaining", "on_complete")

    def __init__(self, remaining: int,
                 on_complete: Callable[[float], None]) -> None:
        self.remaining = remaining
        self.on_complete = on_complete

    def chunk_done(self, when: float) -> None:
        self.remaining -= 1
        if not self.remaining:
            self.on_complete(when)


class MemoryDevice:
    """One of the flat memory's two levels (NM or FM)."""

    def __init__(self, engine: Engine, timings: DRAMTimings, capacity_bytes: int,
                 name: Optional[str] = None,
                 metadata_base: Optional[int] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if metadata_base is not None and not 0 < metadata_base < capacity_bytes:
            raise ValueError("metadata_base must fall inside the device")
        self._engine = engine
        self.timings = timings
        self.capacity_bytes = capacity_bytes
        self.name = name or timings.name
        self.channels = [Channel(engine, timings) for _ in range(timings.channels)]
        #: accesses at or beyond ``metadata_base`` are routed to a
        #: dedicated metadata channel (the paper stores remap metadata in
        #: a separate channel for row-buffer locality and to keep it out
        #: of the data channels' way — Section III-D).
        self.metadata_base = metadata_base
        self.meta_channel = Channel(engine, timings) if metadata_base else None
        #: geometry cached as plain ints for ``access``'s inline mapping
        #: (the same arithmetic as :class:`~repro.dram.mapping.AddressMapper`).
        self._nchan = timings.channels
        self._banks_per_ch = timings.banks
        self._row_bytes = timings.row_bytes

    # ------------------------------------------------------------------
    def access(self, addr: int, size: int, is_write: bool,
               priority: Priority = Priority.DEMAND,
               on_complete: Optional[Callable[[float], None]] = None,
               span=None) -> None:
        """Issue a device access of ``size`` bytes at device-local ``addr``.

        ``on_complete(time)`` fires once, after every chunk has finished.
        ``span``, when given, rides every chunk so the channels can
        attribute queue vs service cycles to the sampled request.

        A metadata access (at or past ``metadata_base``) is one transfer
        on the metadata channel.  A data access is one transfer per
        interleave unit it touches, mapped by the data interleave even
        past ``metadata_base``, all sharing one countdown.  Each transfer
        is mapped in this frame; an idle channel (nothing queued,
        pipeline room) starts its burst at once, because its FR-FCFS
        pick would be this transfer, and a busy one queues a request.
        """
        end = addr + size
        if addr < 0 or size <= 0 or end > self.capacity_bytes:
            self._reject(addr, size)
        mb = self.metadata_base
        meta = mb is not None and addr >= mb
        if (on_complete is not None and not meta
                and addr % CHANNEL_INTERLEAVE_BYTES + size
                > CHANNEL_INTERLEAVE_BYTES):
            on_complete = _Countdown(
                (end - 1) // CHANNEL_INTERLEAVE_BYTES
                - addr // CHANNEL_INTERLEAVE_BYTES + 1,
                on_complete).chunk_done
        banks = self._banks_per_ch
        engine = self._engine
        now = engine.now
        while True:
            if meta:
                # dedicated metadata channel: 32 B groups (one congruence
                # set's remap entries) interleaved across its banks, so a
                # serial scan of one set stays in one row while
                # *different* hot sets hit different banks in parallel —
                # without this the channel would be tCCD-bound on a
                # single bank.
                group = (addr - mb) // 32
                channel = self.meta_channel
                bank = group % banks
                row = group // banks // (self._row_bytes // 32)
                chunk_end = end
            else:
                nchan = self._nchan
                unit = addr // CHANNEL_INTERLEAVE_BYTES
                row_index = ((unit // nchan * CHANNEL_INTERLEAVE_BYTES
                              + addr % CHANNEL_INTERLEAVE_BYTES)
                             // self._row_bytes)
                channel = self.channels[unit % nchan]
                bank = row_index % banks
                row = row_index // banks
                chunk_end = (unit + 1) * CHANNEL_INTERLEAVE_BYTES
                if chunk_end > end:
                    chunk_end = end
            chunk = chunk_end - addr
            if (channel._demand_queue or channel._background_queue
                    or channel._inflight >= channel.pipeline_depth):
                channel.submit(DRAMRequest(chunk, is_write, priority, now,
                                           bank, row, on_complete, span))
            else:
                stats = channel.stats
                if stats.max_queue_depth < 1:
                    stats.max_queue_depth = 1  # submit would have seen depth 1
                data_ready = channel._banks[bank].prepare(row, now)
                bus_free = channel._bus_free
                data_start = data_ready if data_ready > bus_free else bus_free
                burst = channel._burst_cpu_cycles.get(chunk)
                if burst is None:
                    burst = channel.burst_cycles(chunk)
                completion = data_start + burst
                channel._bus_free = completion
                channel._inflight += 1
                stats.bus_busy_cycles += burst
                stats.total_queue_wait += data_start - now
                if span is not None:
                    span.add_dram(data_start - now, burst)
                engine.schedule_at(completion, channel._complete_bound,
                                   chunk, is_write, priority, on_complete)
            if chunk_end == end:
                return
            addr = chunk_end

    def _reject(self, addr: int, size: int) -> None:
        if not 0 <= addr < self.capacity_bytes:
            raise ValueError(
                f"address {addr:#x} outside {self.name} capacity "
                f"{self.capacity_bytes:#x}"
            )
        if size <= 0:
            raise ValueError("size must be positive")
        raise ValueError("access crosses end of device")

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, hub) -> None:
        """Per-channel probes: instantaneous queue depth (gauge) and
        bus-busy cycles (meter — the per-window delta divided by the
        sample's ``dt`` is that window's bus utilisation).  Device-level
        byte meters summarise the split the channels share.
        """
        def probe_channel(label: str, channel: Channel) -> None:
            hub.gauge(f"{label}.queue_depth",
                      lambda: float(channel.queue_depth), trace=True)
            hub.meter(f"{label}.busy_cycles",
                      lambda: channel.stats.bus_busy_cycles)
            hub.meter(f"{label}.bytes",
                      lambda: channel.stats.bytes_total)

        for i, channel in enumerate(self.channels):
            probe_channel(f"{self.name}.ch{i}", channel)
        if self.meta_channel is not None:
            probe_channel(f"{self.name}.meta", self.meta_channel)
        hub.meter(f"{self.name}.demand_bytes",
                  lambda: sum(c.stats.demand_bytes for c in self.channels))
        hub.meter(f"{self.name}.background_bytes",
                  lambda: sum(c.stats.background_bytes for c in self.channels))

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------
    def stats(self) -> ChannelStats:
        total = ChannelStats()
        extra = [self.meta_channel] if self.meta_channel is not None else []
        for channel in self.channels + extra:
            s = channel.stats
            total.reads += s.reads
            total.writes += s.writes
            total.bytes_read += s.bytes_read
            total.bytes_written += s.bytes_written
            total.demand_bytes += s.demand_bytes
            total.background_bytes += s.background_bytes
            total.bus_busy_cycles += s.bus_busy_cycles
            total.total_queue_wait += s.total_queue_wait
            total.max_queue_depth = max(total.max_queue_depth, s.max_queue_depth)
        return total

    def utilization(self, elapsed_cycles: float) -> float:
        """Mean data-bus utilisation across channels over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        busy = sum(c.stats.bus_busy_cycles for c in self.channels)
        return busy / (elapsed_cycles * len(self.channels))
