"""Property proofs for the DRAM transfer paths.

Every transfer of a run takes one of two paths:

* ``MemoryDevice.access`` maps each 64 B chunk inline and, on an idle
  channel, starts its burst without a queued request object;
* on a busy channel the chunk queues a recycled request, and
  ``Channel.submit`` → ``_try_issue`` issues it by FR-FCFS.

Three properties pin them against references written independently here:

* windows of at most ``Channel.pipeline_depth`` requests submitted at one
  instant (each issued on arrival, in submission order) time exactly
  like replaying the chunks one at a time through ``Bank.prepare`` and
  the bus recurrence — through ``Channel.submit`` and through a
  one-unit ``MemoryDevice.access`` alike;
* multi-chunk accesses (72 B tag-and-data bursts, 128 B, 2 KB
  migrations; unaligned starts; a 4-channel device; NM accesses that
  cross ``metadata_base``) complete exactly like per-chunk
  ``AddressMapper.map`` + ``Channel.submit`` on a twin device;
* windows deeper than the pipeline, mixing demand and background
  requests and aging past ``Channel.starvation_cap``, issue in the order
  of a reference FR-FCFS pick.

Element-wise ``==`` on floats is deliberate: the contract is
bit-identical, not approximately-equal, so any reassociated float add in
either path fails immediately.
"""

import heapq

from hypothesis import example, given, settings, strategies as st

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.device import MemoryDevice
from repro.dram.mapping import CHANNEL_INTERLEAVE_BYTES, AddressMapper
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
                                 engine.now, bank, row, on_complete))

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
    """Same property through a one-unit ``MemoryDevice.access`` —
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
        coords = AddressMapper(TIMINGS).map(addr)
        assert (coords.bank, coords.row) == (bank, row_of_bank[bank])
        device.access(addr, size, False, Priority.DEMAND, on_complete)

    got = _run_window(engine, issue, window, now)
    assert got == _scalar_replay(ref, chunks, now)
    assert _state(fused) == _state(ref)


# ---------------------------------------------------------------------------
# multi-chunk device accesses vs per-chunk ``Channel.submit``
# ---------------------------------------------------------------------------
WIDE = DRAMTimings(name="prop4", channels=4, banks_per_rank=2)
#: data region: two rows per bank of every channel; the metadata region
#: behind it is one row of 32 B groups per metadata bank.
META_BASE = 2 * WIDE.banks * WIDE.channels * WIDE.row_bytes
WIDE_CAPACITY = META_BASE + WIDE.banks * WIDE.row_bytes

access = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 2.5, 40.0, 600.0]),  # gap to previous
    st.one_of(st.integers(0, WIDE_CAPACITY - 1),
              # starts just below metadata_base: 128 B and 2 KB accesses
              # cross it
              st.integers(META_BASE - 2048, META_BASE + 64)),
    st.sampled_from([8, 32, 64, 72, 128, 2048]),
    st.booleans(),
    st.sampled_from([Priority.DEMAND, Priority.BACKGROUND]))


def _per_chunk_reference(engine, device, mapper, addr, size, is_write,
                         priority, on_complete):
    """Independent reference: a metadata access is one request on the
    metadata channel; a data access is split at interleave-unit
    boundaries, each chunk mapped by ``AddressMapper.map`` (past
    ``metadata_base`` too) and submitted as its own request, with
    ``on_complete`` behind a countdown of the chunks."""
    base = device.metadata_base
    if addr >= base:
        group = (addr - base) // 32
        chunks = [(device.meta_channel, addr, size, group % WIDE.banks,
                   group // WIDE.banks // (WIDE.row_bytes // 32))]
    else:
        chunks = []
        end = addr + size
        while addr < end:
            stop = min(end, (addr // CHANNEL_INTERLEAVE_BYTES + 1)
                       * CHANNEL_INTERLEAVE_BYTES)
            coords = mapper.map(addr)
            chunks.append((device.channels[coords.channel], addr,
                           stop - addr, coords.bank, coords.row))
            addr = stop
    left = [len(chunks)]

    def chunk_done(when):
        left[0] -= 1
        if left[0] == 0:
            on_complete(when)

    for channel, chunk_addr, chunk_size, bank, row in chunks:
        channel.submit(DRAMRequest(chunk_addr, chunk_size, is_write,
                                   priority, engine.now, bank, row,
                                   chunk_done))


def _device_state(device):
    return [(channel.stats, channel._bus_free, channel.queue_depth,
             [(b.open_row, b.ready, b._activated_at, b.stats)
              for b in channel._banks])
            for channel in device.channels + [device.meta_channel]]


@example(accesses=[(0.0, 8, 72, False, Priority.DEMAND),
                   (0.0, 100, 128, True, Priority.BACKGROUND),
                   (0.0, 0, 2048, False, Priority.BACKGROUND)])
# a 2 KB migration crossing metadata_base on top of metadata traffic
@example(accesses=[(0.0, META_BASE + 40, 8, False, Priority.DEMAND),
                   (0.0, META_BASE - 1000, 2048, True, Priority.BACKGROUND),
                   (2.5, META_BASE - 40, 72, False, Priority.DEMAND)])
# migration bursts deep enough to queue behind a full pipeline
@example(accesses=[(0.0, 64 * i + 17, 2048, i % 2 == 0, Priority(i % 2))
                   for i in range(12)])
@given(accesses=st.lists(access, min_size=1, max_size=24))
@settings(deadline=None, max_examples=150)
def test_multi_chunk_access_matches_per_chunk_submit(accesses):
    engine, ref_engine = Engine(), Engine()
    device = MemoryDevice(engine, WIDE, WIDE_CAPACITY,
                          metadata_base=META_BASE)
    twin = MemoryDevice(ref_engine, WIDE, WIDE_CAPACITY,
                        metadata_base=META_BASE)
    mapper = AddressMapper(WIDE)
    got, want = {}, {}
    now = 0.0
    for index, (gap, addr, size, is_write, priority) in enumerate(accesses):
        now += gap
        addr = min(addr, WIDE_CAPACITY - size)
        engine.schedule_at(now, device.access, addr, size, is_write,
                           priority, lambda when, index=index:
                           got.setdefault(index, []).append(when))
        ref_engine.schedule_at(now, _per_chunk_reference, ref_engine, twin,
                               mapper, addr, size, is_write, priority,
                               lambda when, index=index:
                               want.setdefault(index, []).append(when))
    engine.run()
    ref_engine.run()
    # each on_complete fired exactly once, at the reference's last chunk
    assert sorted(got) == list(range(len(accesses)))
    assert all(len(times) == 1 for times in got.values())
    assert got == want
    assert _device_state(device) == _device_state(twin)
    assert engine.events_dispatched == ref_engine.events_dispatched


# ---------------------------------------------------------------------------
# deep FR-FCFS windows vs a reference pick
# ---------------------------------------------------------------------------
NARROW = DRAMTimings(name="fr-fcfs", channels=1, banks_per_rank=2)


def _reference_fr_fcfs(arrivals):
    """Independent event-driven reference of one channel.  ``arrivals``
    are ``(time, bank, row, priority)`` 64 B reads, each submitted by its
    own engine event scheduled up front, so the engine's ``(when, seq)``
    order is: arrivals by time then index, completions by time then
    issue order, an arrival before a completion at the same time.

    The pick: demand over background at the ``background_share`` ratio
    when both queues hold requests; within the chosen queue the first
    row hit among the oldest ``scheduler_window`` requests, else the
    oldest — which is also taken outright once it has waited
    ``starvation_cap`` cycles.  Returns per-arrival completion times,
    the channel's float accumulators, max queue depth, the twin banks
    and how many picks the starvation cap forced."""
    banks = [Bank(NARROW) for _ in range(NARROW.banks)]
    burst = NARROW.burst_mem_cycles(64) * NARROW.cpu_cycles_per_mem
    events = [(t, index, index, False) for index, (t, *_) in
              enumerate(arrivals)]
    heapq.heapify(events)
    seq = len(events)
    queues = {Priority.DEMAND: [], Priority.BACKGROUND: []}
    dq, bq = queues[Priority.DEMAND], queues[Priority.BACKGROUND]
    inflight = picks = starved = max_depth = 0
    bus_free = busy = qwait = 0.0
    done = {}
    while events:
        now, _, index, completes = heapq.heappop(events)
        if completes:
            inflight -= 1
            done[index] = now
        else:
            queues[arrivals[index][3]].append(index)
            max_depth = max(max_depth, len(dq) + len(bq))
        while (dq or bq) and inflight < Channel.pipeline_depth:
            if dq and bq:
                picks += 1
                queue = (bq if picks % (Channel.background_share + 1) == 0
                         else dq)
            else:
                queue = dq or bq
            pick = 0
            if now - arrivals[queue[0]][0] < Channel.starvation_cap:
                hits = [i for i, idx in
                        enumerate(queue[:Channel.scheduler_window])
                        if banks[arrivals[idx][1]].open_row
                        == arrivals[idx][2]]
                if hits:
                    pick = hits[0]
            else:
                starved += 1
            chosen = queue.pop(pick)
            arrival, bank, row, _ = arrivals[chosen]
            data_ready = banks[bank].prepare(row, now)
            data_start = max(data_ready, bus_free)
            bus_free = data_start + burst
            busy += burst
            qwait += data_start - arrival
            inflight += 1
            heapq.heappush(events, (bus_free, seq, chosen, True))
            seq += 1
    return done, (bus_free, busy, qwait, max_depth), banks, starved


def _assert_fr_fcfs_matches(arrivals):
    engine = Engine()
    channel = Channel(engine, NARROW)
    got = {}
    for index, (t, bank, row, priority) in enumerate(arrivals):
        engine.schedule_at(t, channel.submit, DRAMRequest(
            index, 64, False, priority, t, bank, row,
            lambda when, index=index: got.__setitem__(index, when)))
    engine.run()
    done, (bus_free, busy, qwait, max_depth), banks, starved = \
        _reference_fr_fcfs(arrivals)
    assert got == done
    assert (channel._bus_free, channel.stats.bus_busy_cycles,
            channel.stats.total_queue_wait,
            channel.stats.max_queue_depth) == (bus_free, busy, qwait,
                                               max_depth)
    assert [(b.open_row, b.ready, b._activated_at, b.stats)
            for b in channel._banks] == \
        [(b.open_row, b.ready, b._activated_at, b.stats) for b in banks]
    return starved


def _conflict_storm(n):
    """``n`` requests at once, rows alternating on both banks: a backlog
    of row conflicts that FR-FCFS batches into row hits, demand and
    background interleaved."""
    return [(0.0, i % 2, i // 2 % 3, Priority(i % 3 == 0))
            for i in range(n)]


def _starving_stream():
    """A bank-0 row conflict queued behind row hits while a stream of
    fresh row-0 hits (every fifth a bank-1 background request) arrives
    faster than the bus drains it: FR-FCFS keeps passing the conflict
    over until it has waited ``starvation_cap`` cycles."""
    arrivals = [(0.0, 0, 0, Priority.DEMAND)] * 20
    arrivals.append((0.0, 0, 1, Priority.DEMAND))
    for i in range(1, 400):
        if i % 5:
            arrivals.append((8.0 * i, 0, 0, Priority.DEMAND))
        else:
            arrivals.append((8.0 * i, 1, i % 3, Priority.BACKGROUND))
    return arrivals


deep_window = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.0, 0.0, 3.0, 90.0, 1200.0]),
              st.integers(0, NARROW.banks - 1), st.integers(0, 2),
              st.sampled_from([Priority.DEMAND, Priority.BACKGROUND])),
    min_size=Channel.pipeline_depth + 1, max_size=80)


@example(gaps=[(0.0, b, r, p) for b, r, p in
               (arrival[1:] for arrival in _conflict_storm(72))])
@given(gaps=deep_window)
@settings(deadline=None, max_examples=150)
def test_deep_window_matches_reference_fr_fcfs(gaps):
    arrivals, now = [], 0.0
    for gap, bank, row, priority in gaps:
        now += gap
        arrivals.append((now, bank, row, priority))
    _assert_fr_fcfs_matches(arrivals)


def test_starving_request_is_forced_by_the_cap():
    """The conflict waits out the cap behind younger row hits: the cap,
    not the row-hit pick, issues it, while background requests share the
    bus at the ``background_share`` ratio."""
    assert _assert_fr_fcfs_matches(_starving_stream()) > 0
