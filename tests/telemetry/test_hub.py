"""Unit tests for the telemetry hub: signal kinds, sampling semantics,
ring drop accounting, the optional event tracer, and the engine
attachment."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.telemetry import (TELEMETRY_SCHEMA_VERSION, EventTracer,
                             Telemetry, TimeSeriesRing)


def _hub(window=100):
    return Telemetry(window_cycles=window)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def test_reserved_sample_fields_rejected():
    hub = _hub()
    with pytest.raises(ValueError, match="reserved"):
        hub.gauge("t", lambda: 0.0)
    with pytest.raises(ValueError, match="reserved"):
        hub.meter("dt", lambda: 0.0)


def test_duplicate_registration_rejected():
    hub = _hub()
    hub.gauge("x", lambda: 1.0)
    with pytest.raises(ValueError, match="already registered"):
        hub.meter("x", lambda: 1.0)


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        Telemetry(window_cycles=0)
    with pytest.raises(ValueError):
        Telemetry(window_cycles=-5)


# ----------------------------------------------------------------------
# signal semantics
# ----------------------------------------------------------------------
def test_gauge_sampled_raw():
    hub = _hub()
    box = {"v": 3.0}
    hub.gauge("g", lambda: box["v"])
    assert hub.sample_now()["g"] == 3.0
    box["v"] = 7.0
    assert hub.sample_now()["g"] == 7.0


def test_meter_sampled_as_delta():
    hub = _hub()
    box = {"v": 0}
    hub.meter("m", lambda: box["v"])
    box["v"] = 10
    assert hub.sample_now()["m"] == 10
    box["v"] = 25
    assert hub.sample_now()["m"] == 15


def test_meter_clamps_negative_delta_after_reset():
    """A warmup statistics reset makes the cumulative source jump
    backwards; the meter must report 0 for that window, not a negative
    rate."""
    hub = _hub()
    box = {"v": 100}
    hub.meter("m", lambda: box["v"])
    hub.sample_now()
    box["v"] = 5  # reset + a little new activity
    assert hub.sample_now()["m"] == 0.0
    box["v"] = 12
    assert hub.sample_now()["m"] == 7.0


def test_counter_incr_and_window_delta():
    hub = _hub()
    hub.incr("c")
    hub.incr("c", 4.0)
    assert hub.snapshot()["counters"] == {"c": 5.0}
    assert hub.sample_now()["c"] == 5.0
    hub.incr("c")
    assert hub.sample_now()["c"] == 1.0  # per-window delta
    assert hub.snapshot()["counters"] == {"c": 6.0}  # cumulative


def test_sample_has_time_fields():
    hub = _hub()
    sample = hub.sample_now()
    assert set(sample) == {"t", "dt"}


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------
def test_ring_drops_oldest_half_when_full():
    ring = TimeSeriesRing(capacity=8)
    for i in range(8):
        ring.append({"i": i})
    assert ring.spilled == 4
    assert [s["i"] for s in ring.samples()] == [4, 5, 6, 7]


def test_ring_minimum_capacity():
    with pytest.raises(ValueError):
        TimeSeriesRing(capacity=1)


def test_snapshot_reports_spill_accounting():
    hub = _hub()
    hub.series = TimeSeriesRing(capacity=4)
    for _ in range(6):
        hub.sample_now()
    snap = hub.snapshot()
    # capacity 4 evicts half at samples 4 and 6: 2 + 2 spilled
    assert snap["spilled_samples"] == 4
    assert len(snap["samples"]) + snap["spilled_samples"] == 6
    assert snap["schema"] == TELEMETRY_SCHEMA_VERSION
    assert snap["window_cycles"] == 100


# ----------------------------------------------------------------------
# trace events: only into a tracer the caller passed
# ----------------------------------------------------------------------
def test_hub_without_tracer_records_no_events():
    hub = _hub()
    hub.gauge("g", lambda: 1.0, trace=True)
    hub.instant("lock", cat="lock", way=1)
    assert hub.sample_now()["g"] == 1.0
    assert hub.tracer is None
    assert set(hub.snapshot()) == {"schema", "window_cycles", "samples",
                                   "spilled_samples", "counters"}


def test_hub_with_tracer_emits_instants_and_counter_tracks():
    tracer = EventTracer()
    hub = Telemetry(window_cycles=100, tracer=tracer)
    hub.gauge("g", lambda: 1.0, trace=True)
    hub.gauge("quiet", lambda: 2.0)
    hub.instant("lock", cat="lock", way=1)
    hub.sample_now()
    instant, counter = tracer.events()
    assert (instant["ph"], instant["name"], instant["args"]) == (
        "i", "lock", {"way": 1})
    assert (counter["ph"], counter["args"]) == ("C", {"g": 1.0})
    assert "events" not in hub.snapshot()


# ----------------------------------------------------------------------
# end-of-run drain (final partial window)
# ----------------------------------------------------------------------
class _Clock:
    """Engine stand-in with a hand-settable clock, so the drain tests
    control exactly where the run halts relative to the window."""

    def __init__(self):
        self.now = 0.0

    def schedule_every(self, *args, **kwargs):
        pass  # periodic ticks are driven by hand in these tests


def test_drain_flushes_final_partial_window():
    """A run halting mid-window must not lose the tail of the series."""
    clock = _Clock()
    hub = _hub(window=100)
    hub.meter("m", lambda: clock.now)  # cumulative: grows with time
    hub.attach(clock)
    clock.now = 100.0
    hub.sample_now()  # the periodic tick
    clock.now = 130.0  # run halts 30 cycles into the next window
    sample = hub.drain()
    assert sample is not None
    assert sample["t"] == 130.0
    assert sample["dt"] == 30.0  # the partial window
    assert sample["m"] == 30.0   # activity after the last tick captured
    assert hub.series.samples()[-1] == sample


def test_drain_is_idempotent():
    clock = _Clock()
    hub = _hub(window=100)
    hub.attach(clock)
    clock.now = 130.0
    assert hub.drain() is not None
    assert hub.drain() is None  # nothing new pending
    assert hub.samples_taken == 1


def test_drain_skips_duplicate_on_window_aligned_halt():
    """Halting exactly on a window boundary: the periodic tick already
    sampled this cycle; drain must not append a zero-width duplicate."""
    clock = _Clock()
    hub = _hub(window=100)
    hub.attach(clock)
    clock.now = 100.0
    hub.sample_now()  # the periodic tick lands exactly at the halt time
    assert hub.drain() is None
    assert hub.samples_taken == 1


def test_drain_captures_run_shorter_than_one_window():
    clock = _Clock()
    hub = _hub(window=100)
    hub.attach(clock)
    clock.now = 40.0  # halts before the first periodic tick
    sample = hub.drain()
    assert sample is not None and sample["t"] == 40.0
    assert hub.samples_taken == 1


# ----------------------------------------------------------------------
# engine attachment
# ----------------------------------------------------------------------
def test_attach_samples_periodically():
    engine = Engine()
    hub = _hub(window=10)
    keepalive = {"ticks": 0}

    def work():
        keepalive["ticks"] += 1
        if keepalive["ticks"] < 5:
            engine.schedule(10, work)

    engine.schedule(0, work)
    hub.attach(engine)
    engine.run()
    # sampler fires alongside the workload, then stops with the queue
    assert hub.samples_taken >= 3
    assert all(s["dt"] == 10 for s in hub.series.samples()[1:])


def test_sampler_cannot_keep_engine_alive():
    """With nothing else scheduled the periodic sampler must not
    self-perpetuate (it would mask drained-queue errors)."""
    engine = Engine()
    hub = _hub(window=10)
    hub.attach(engine)
    engine.run()
    assert engine.now <= 10  # one tick at most, then the queue drains


def test_schedule_every_rejects_bad_period():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule_every(0, lambda: None)


def test_schedule_every_while_predicate_stops_chain():
    engine = Engine()
    fired = []
    alive = {"on": True}
    engine.schedule_every(5, lambda: fired.append(engine.now),
                          while_=lambda: alive["on"])

    def stop():
        alive["on"] = False

    # independent work keeps the queue non-empty long enough
    engine.schedule(12, stop)
    engine.schedule(30, lambda: None)
    engine.run()
    assert fired == [5.0, 10.0]  # the 15-cycle tick sees while_ False
