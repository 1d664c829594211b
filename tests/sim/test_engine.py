"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_events_dispatch_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(10, order.append, "late")
    engine.schedule(5, order.append, "early")
    engine.schedule(7.5, order.append, "middle")
    engine.run()
    assert order == ["early", "middle", "late"]
    assert engine.now == 10.0


def test_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in range(5):
        engine.schedule(3.0, order.append, tag)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(42.0, seen.append, "x")
    engine.run()
    assert engine.now == 42.0
    assert seen == ["x"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5.0, lambda: None)


def test_events_can_schedule_more_events():
    engine = Engine()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            engine.schedule(1, chain, depth + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_run_until_horizon_leaves_future_events_queued():
    engine = Engine()
    seen = []
    engine.schedule(5, seen.append, "a")
    engine.schedule(15, seen.append, "b")
    engine.run(until=10)
    assert seen == ["a"]
    assert engine.now == 10
    assert engine.pending == 1
    engine.run()
    assert seen == ["a", "b"]


def test_max_events_watchdog_trips():
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(0, forever)
    with pytest.raises(SimulationError, match="livelock"):
        engine.run(max_events=100)


def test_zero_delay_runs_at_current_time():
    engine = Engine()
    times = []
    engine.schedule(5, lambda: engine.schedule(0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [5.0]


def test_events_dispatched_counter():
    engine = Engine()
    for _ in range(7):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_dispatched == 7


# ---------------------------------------------------------------------------
# edge cases: horizon ties, watchdog, reentrancy
# ---------------------------------------------------------------------------

def test_until_horizon_dispatches_ties_exactly_at_horizon():
    """Events timestamped exactly at ``until`` are *inside* the horizon
    and must all fire, in insertion order; later events stay queued."""
    engine = Engine()
    seen = []
    engine.schedule(10, seen.append, "at-horizon-1")
    engine.schedule(10, seen.append, "at-horizon-2")
    engine.schedule(10.0000001, seen.append, "beyond")
    engine.run(until=10)
    assert seen == ["at-horizon-1", "at-horizon-2"]
    assert engine.now == 10
    assert engine.pending == 1


def test_until_horizon_with_no_events_beyond_leaves_clock_at_horizon():
    engine = Engine()
    seen = []
    engine.schedule(3, seen.append, "a")
    engine.schedule(7, lambda: engine.schedule(5, seen.append, "spawned"))
    engine.run(until=8)
    # the event spawned at t=12 is past the horizon and stays queued
    assert seen == ["a"]
    assert engine.now == 8
    assert engine.pending == 1
    engine.run()
    assert seen == ["a", "spawned"]
    assert engine.now == 12


def test_max_events_watchdog_fires_at_exact_boundary():
    engine = Engine()
    for _ in range(5):
        engine.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=3)
    # the watchdog must release the reentrancy latch so the engine can
    # drain the remainder afterwards
    engine.run()
    assert engine.events_dispatched == 5
    assert engine.pending == 0


def test_max_events_equal_to_queue_size_does_not_trip_early():
    """Unified watchdog semantics: exactly ``max_events`` dispatches are
    allowed, so a queue of exactly that many events completes cleanly —
    the engine raises only when *one more* would have to fire."""
    engine = Engine()
    fired = []
    for tag in range(4):
        engine.schedule(1, fired.append, tag)
    engine.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert engine.pending == 0


def test_max_events_one_below_queue_size_trips():
    """The other side of the boundary: one event too many raises, with
    the allowed ``max_events`` dispatches already done."""
    engine = Engine()
    fired = []
    for tag in range(4):
        engine.schedule(1, fired.append, tag)
    with pytest.raises(SimulationError, match="max_events=3"):
        engine.run(max_events=3)
    assert fired == [0, 1, 2]
    assert engine.pending == 1


def test_system_and_engine_watchdogs_agree_at_boundary():
    """`System.run` and `Engine.run` share the watchdog contract; the
    system-level watchdog must not fire on a run that needs exactly the
    budgeted number of events (regression: the two used to disagree,
    ``> max_events`` vs ``>= max_events``)."""
    from repro.cpu.system import System
    from repro.experiments.runner import SCHEMES
    from repro.sim.config import default_config
    from repro.workloads.spec import workload_specs

    def build():
        config = default_config(scale=0.25)
        setup = SCHEMES["nonm"]
        return System(
            config, scheme_factory=setup.factory,
            workloads=workload_specs("mcf", config), misses_per_core=20,
            alloc_policy=setup.alloc_policy, seed=3)

    # measure the exact event budget, then rerun with precisely it
    probe = build()
    probe.run()
    needed = probe.engine.events_dispatched
    build().run(max_events=needed)  # exactly enough: must not raise
    with pytest.raises(SimulationError, match="max_events"):
        build().run(max_events=needed - 1)


def test_run_is_not_reentrant():
    engine = Engine()
    errors = []

    def nested():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(str(exc))

    engine.schedule(1, nested)
    engine.run()
    assert len(errors) == 1
    assert "reentrant" in errors[0]


# ---------------------------------------------------------------------------
# edge semantics: payload isolation and integer-timestamp preservation
# ---------------------------------------------------------------------------
def test_recycled_entries_do_not_leak_between_events():
    """No event carries a stale callback/args: every dispatch sees
    exactly the payload scheduled for it."""
    engine = Engine()
    seen = []
    # a chain in which each event schedules its successor
    def tick(n):
        seen.append(n)
        if n < 50:
            engine.schedule(1, tick, n + 1)

    engine.schedule(1, tick, 0)
    engine.run()
    assert seen == list(range(51))


def test_integer_timestamps_survive_int_only_chains():
    """The engine never coerces timestamps: an int-anchored chain
    (``schedule_at`` an int, then int delays — ``now`` stays int inside
    the chain) keeps exact integer arithmetic even past 2**53, where
    consecutive integers stop being representable as floats."""
    engine = Engine()
    big = 2 ** 53
    times = []

    def tick():
        times.append(engine.now)
        if len(times) < 3:
            engine.schedule(1, tick)  # int + int: stays int

    engine.schedule_at(big, tick)
    engine.run()
    assert times == [big, big + 1, big + 2]
    assert all(isinstance(t, int) for t in times)
    # the float chain would have collapsed: big+1.0 rounds back to big
    assert float(big) + 1.0 == float(big)


# ---------------------------------------------------------------------------
# horizon and halt/resume semantics: ``System.run`` splits one run into
# a warmup and a steady-state region by halting mid-timestamp and
# resuming with a second ``run``
# ---------------------------------------------------------------------------
def test_horizon_empty_queue_is_infinite():
    """With nothing queued there is no next event to stop at: ``run`` —
    with or without a horizon — returns at once and leaves ``now``
    where it was, before any work and after a drain alike."""
    engine = Engine()
    engine.run(until=100)
    assert (engine.now, engine.events_dispatched, engine.pending) == (0, 0, 0)
    engine.schedule(5, lambda: None)
    engine.run()
    engine.run(until=1_000)
    engine.run()
    assert (engine.now, engine.events_dispatched, engine.pending) == (5, 1, 0)


def _halt_mid_timestamp(bounded):
    engine = Engine()
    seen = []

    def halting(tag):
        seen.append(tag)
        engine.halt()

    engine.schedule(10, seen.append, "a")
    engine.schedule(10, halting, "b")
    engine.schedule(10, seen.append, "c")
    engine.schedule(3, seen.append, "early")
    if bounded:
        engine.run(until=50, max_events=100)
    else:
        engine.run()
    return engine, seen


def test_horizon_reports_earliest_event_and_ties_at_now():
    """``halt`` from inside an event stops the loop right after it, even
    with more work at the same timestamp: the ties at ``now`` stay
    queued and run first on resume, in insertion order — on the
    unbounded fast loop and the horizon/watchdog loop alike."""
    for bounded in (False, True):
        engine, seen = _halt_mid_timestamp(bounded)
        assert seen == ["early", "a", "b"]
        assert (engine.now, engine.pending) == (10, 1)
        engine.schedule(0, seen.append, "d")  # a tie scheduled at now
        engine.run()
        assert seen == ["early", "a", "b", "c", "d"]
        assert engine.now == 10


def test_checkpoint_resume_protocol():
    """A run split by ``halt`` and resumed by a second ``run`` dispatches
    exactly the events of one uninterrupted run, in the same order and
    at the same times, and ``events_dispatched`` counts across the
    split."""
    def build(halt_at):
        engine = Engine()
        log = []

        def tick(n):
            log.append((engine.now, n))
            if n == halt_at:
                engine.halt()
            if n < 40:
                engine.schedule(n % 3, tick, n + 1)
                engine.schedule(n % 5 + 0.5, log.append, (n, "leaf"))

        engine.schedule(0, tick, 0)
        return engine, log

    whole, whole_log = build(None)
    whole.run()
    split, split_log = build(17)
    split.run()
    assert split_log[-1][1] == 17
    halted_after = split.events_dispatched
    assert 0 < halted_after < whole.events_dispatched
    split.run()
    assert split_log == whole_log
    assert split.events_dispatched == whole.events_dispatched
    assert split.now == whole.now


def test_resume_at_rejects_backwards_and_past_horizon():
    """Resuming never rewinds: after a horizon stop, scheduling before
    ``now`` is rejected, events past the horizon stay queued until a
    run reaches them, and a ``halt`` issued while no run is active does
    not cut the next run short."""
    engine = Engine()
    seen = []
    engine.schedule(10, seen.append, "a")
    engine.schedule(20, seen.append, "b")
    engine.run(until=15)
    assert (engine.now, seen, engine.pending) == (15, ["a"], 1)
    with pytest.raises(SimulationError):
        engine.schedule_at(14, seen.append, "rewind")  # backwards
    with pytest.raises(SimulationError):
        engine.schedule(-1, seen.append, "rewind")
    engine.halt()  # no run active: a no-op
    engine.run()
    assert seen == ["a", "b"]
    assert engine.now == 20
