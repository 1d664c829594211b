"""Property proof for the fused DRAM issue paths: random request windows
must produce the same completion times — and leave the channel in the
same state — as replaying the chunks one at a time through
``Bank.prepare`` and the bus recurrence (written independently here).

Two fused forms carry every transfer of a run:

* ``Channel.submit`` → ``_try_issue``, the FR-FCFS loop that keeps the
  bus chain and float accumulators in locals across a drain;
* ``MemoryDevice.access``'s one-frame path, which maps a one-unit access
  inline and, on an idle channel, starts its burst without a queued
  request object.

Windows hold at most ``Channel.pipeline_depth`` requests submitted at
one instant, so each is issued on arrival and issue order is submission
order.  Element-wise ``==`` on floats is deliberate: the contract is
bit-identical, not approximately-equal, so any reassociated float add in
either fused form fails immediately.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dram.channel import Channel
from repro.dram.device import MemoryDevice
from repro.dram.mapping import CHANNEL_INTERLEAVE_BYTES, DRAMCoordinates
from repro.dram.request import DRAMRequest, Priority
from repro.dram.timing import DRAMTimings
from repro.sim.engine import Engine

TIMINGS = DRAMTimings(name="prop", channels=1, banks_per_rank=4)
N_BANKS = TIMINGS.banks
N_ROWS = 3
#: shortest window whose bursts can chain back to back on the bus.
SHORT_WINDOW = 4
MAX_WINDOW = Channel.pipeline_depth

# one chunk: (bank, row, size).  Sizes mix sub-beat, subblock, the
# 72 B tag-and-data burst, and row-sized transfers.
chunk = st.tuples(st.integers(0, N_BANKS - 1), st.integers(0, N_ROWS - 1),
                  st.sampled_from([8, 32, 64, 72, 256, 1024]))
windows = st.lists(chunk, min_size=0, max_size=MAX_WINDOW)
#: a warmup prefix replayed identically on both channels so windows
#: start from arbitrary open-row / busy-until / bus states.
prefixes = st.lists(chunk, min_size=0, max_size=8)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)


def _scalar_replay(channel, chunks, now):
    """Independent scalar reference: per-chunk ``Bank.prepare`` + the
    bus chain + the stats adds, one request at a time."""
    t = channel._t
    cpm = channel._cpm
    stats = channel.stats
    bus_free = channel._bus_free
    completions = []
    for bank_index, row, size in chunks:
        ready_at = channel.bank(bank_index).prepare(row, now)
        burst = t.burst_mem_cycles(size) * cpm
        data_start = ready_at if ready_at > bus_free else bus_free
        bus_free = data_start + burst
        stats.bus_busy_cycles += burst
        stats.total_queue_wait += data_start - now
        completions.append(bus_free)
    channel._bus_free = bus_free
    return completions


def _state(channel):
    return (
        channel._bus_free,
        channel.stats.bus_busy_cycles,
        channel.stats.total_queue_wait,
        [(b.open_row, b.ready, b._activated_at,
          b.stats.row_hits, b.stats.row_closed, b.stats.row_conflicts)
         for b in channel._banks],
    )


def _run_window(engine, issue, window, now):
    """Issue every chunk of ``window`` at engine time ``now`` through
    ``issue(index, chunk, on_complete)``; drain; completions by index."""
    done = {}

    def submit_all():
        for index, item in enumerate(window):
            issue(index, item, lambda when, index=index:
                  done.__setitem__(index, when))

    engine.schedule_at(now, submit_all)
    engine.run()
    return [done[index] for index in range(len(window))]


def _assert_channel_equivalent(prefix, window, now):
    engine = Engine()
    fused = Channel(engine, TIMINGS)
    ref = Channel(Engine(), TIMINGS)
    if prefix:
        assert _scalar_replay(fused, prefix, 0.0) == \
            _scalar_replay(ref, prefix, 0.0)

    def issue(index, item, on_complete):
        bank, row, size = item
        fused.submit(DRAMRequest(index, size, False, Priority.DEMAND,
                                 engine.now, DRAMCoordinates(0, bank, row, 0),
                                 on_complete))

    got = _run_window(engine, issue, window, now)
    assert got == _scalar_replay(ref, window, now)
    assert _state(fused) == _state(ref)


# pinned boundary cases: each is a shape that would falsify a specific
# issue-loop bug (keep them even if the strategies change).
@example(prefix=[], window=[(0, 0, 64)] * SHORT_WINDOW, now=0.0)
# conflict seed: the prefix opens row 0, the window's first access to
# bank 0 must pay the precharge/activate chain (drop-row-close shape)
@example(prefix=[(0, 0, 64)], window=[(0, 1, 64)] * SHORT_WINDOW,
         now=100.0)
# stale-busy shape: back-to-back same-bank hits must chain off the
# bank's advancing ready time, not its pre-window value
@example(prefix=[(1, 2, 1024)],
         window=[(1, 2, 64), (1, 2, 64), (1, 2, 64), (1, 2, 64)], now=0.0)
# bus-bound window: four banks ready at once serialize on the data bus
@example(prefix=[], window=[(0, 0, 256), (1, 0, 256), (2, 0, 256),
                            (3, 0, 256)], now=5.5)
# a full pipeline: every slot in flight at once
@example(prefix=[], window=[(b % N_BANKS, 0, 64) for b in range(MAX_WINDOW)],
         now=0.0)
@given(prefix=prefixes, window=windows, now=times)
@settings(deadline=None, max_examples=200)
def test_window_timing_matches_scalar_replay(prefix, window, now):
    _assert_channel_equivalent(prefix, window, now)


@given(prefix=prefixes,
       window=st.lists(
           st.tuples(st.integers(0, N_BANKS - 1),
                     st.integers(0, TIMINGS.row_bytes
                                 // CHANNEL_INTERLEAVE_BYTES - 1),
                     st.sampled_from([8, 32, 64])),
           min_size=SHORT_WINDOW, max_size=MAX_WINDOW),
       row_of_bank=st.lists(st.integers(0, N_ROWS - 1), min_size=N_BANKS,
                            max_size=N_BANKS),
       now=times)
@settings(deadline=None, max_examples=200)
def test_vector_path_matches_scalar_replay(prefix, window, row_of_bank, now):
    """Same property through ``MemoryDevice.access``'s one-frame path —
    inline address mapping plus the idle-channel direct issue — with one
    row per bank, so row hits chain on the CAS pipeline on every
    example."""
    engine = Engine()
    capacity = N_ROWS * N_BANKS * TIMINGS.row_bytes
    device = MemoryDevice(engine, TIMINGS, capacity)
    fused = device.channels[0]
    ref = Channel(Engine(), TIMINGS)
    if prefix:
        assert _scalar_replay(fused, prefix, 0.0) == \
            _scalar_replay(ref, prefix, 0.0)
    chunks = [(bank, row_of_bank[bank], size) for bank, _, size in window]

    def issue(index, item, on_complete):
        bank, unit, size = item
        addr = ((row_of_bank[bank] * N_BANKS + bank) * TIMINGS.row_bytes
                + unit * CHANNEL_INTERLEAVE_BYTES)
        coords = device._mapper.map(addr)
        assert (coords.bank, coords.row) == (bank, row_of_bank[bank])
        device.access(addr, size, False, Priority.DEMAND, on_complete)

    got = _run_window(engine, issue, window, now)
    assert got == _scalar_replay(ref, chunks, now)
    assert _state(fused) == _state(ref)
