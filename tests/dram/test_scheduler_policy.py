"""Channel-scheduler policy tests: FR-FCFS, priority sharing,
starvation protection."""

from repro.dram.channel import Channel
from repro.dram.mapping import AddressMapper
from repro.dram.request import DRAMRequest, Priority
from repro.dram.timing import DDR3_TIMINGS
from repro.sim.engine import Engine


def make_channel():
    engine = Engine()
    return engine, Channel(engine, DDR3_TIMINGS)


def request(engine, addr, priority=Priority.DEMAND, order=None):
    mapper = AddressMapper(DDR3_TIMINGS)
    # map through channel-local coordinates like the device would
    coords = mapper.map(addr * DDR3_TIMINGS.channels)
    req = DRAMRequest(addr=addr, size=64, is_write=False, priority=priority,
                      arrival=engine.now, bank=coords.bank, row=coords.row,
                      on_complete=(lambda t: order.append(addr))
                      if order is not None else None)
    return req


def test_row_hits_scheduled_before_conflicts():
    engine, channel = make_channel()
    order = []
    row_bytes = DDR3_TIMINGS.row_bytes  # 16 x 64 B units per row
    # saturate the pipeline with row-0/bank-0 accesses
    for i in range(Channel.pipeline_depth):
        channel.submit(request(engine, (i % 12) * 64, order=order))
    # one bank-0 request to a different row, then more row-0 hits
    conflict_addr = row_bytes * DDR3_TIMINGS.banks
    channel.submit(request(engine, conflict_addr, order=order))
    for i in range(4):
        channel.submit(request(engine, (12 + i) * 64, order=order))
    engine.run()
    # the conflict request completes after at least some later-submitted
    # same-row hits (FR-FCFS reordered past it)
    conflict_pos = order.index(conflict_addr)
    assert conflict_pos > Channel.pipeline_depth


def test_background_not_starved():
    """With both queues loaded, background requests complete well before
    all demand traffic drains (the 4:1 share, not strict priority)."""
    engine, channel = make_channel()
    order = []
    channel.submit(request(engine, 0, Priority.BACKGROUND, order=order))
    for i in range(1, 40):
        channel.submit(request(engine, i * 64, Priority.DEMAND, order=order))
    engine.run()
    # the background request is not the last to finish
    assert order.index(0) < len(order) - 1


def test_demand_preferred_over_background():
    engine, channel = make_channel()
    order = []
    # fill the pipeline first so the queues actually form
    for i in range(Channel.pipeline_depth):
        channel.submit(request(engine, (100 + i) * 64, Priority.DEMAND,
                               order=order))
    bg = [request(engine, (200 + i) * 64, Priority.BACKGROUND, order=order)
          for i in range(8)]
    dm = [request(engine, (300 + i) * 64, Priority.DEMAND, order=order)
          for i in range(8)]
    for req in bg:
        channel.submit(req)
    for req in dm:
        channel.submit(req)
    engine.run()
    bg_mean = sum(order.index((200 + i) * 64) for i in range(8)) / 8
    dm_mean = sum(order.index((300 + i) * 64) for i in range(8)) / 8
    assert dm_mean < bg_mean


def test_starvation_cap_forces_oldest():
    """An ancient request at the queue head is served even when younger
    row hits are available."""
    engine, channel = make_channel()
    # open row 0 and keep the bus busy
    order = []
    for i in range(Channel.pipeline_depth + 2):
        channel.submit(request(engine, i * 64, order=order))
    # a conflict request that will age past the cap
    old_addr = DDR3_TIMINGS.row_bytes * DDR3_TIMINGS.banks
    channel.submit(request(engine, old_addr, order=order))
    # keep feeding row hits for longer than the cap
    def feed(n):
        if n <= 0:
            return
        channel.submit(request(engine, (50 + n) * 64, order=order))
        engine.schedule(Channel.starvation_cap / 10, feed, n - 1)
    feed(25)
    engine.run()
    assert order.count(old_addr) == 1  # its on_complete fired once
    # it completed before the last few row hits
    assert order.index(old_addr) < len(order) - 1
