"""Tests for the DES kernel: events, processes, ordering, AnyOf."""

import heapq
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import AnyOf, Event, PriorityLevel, Process, Simulator, SimulationError
from repro.util.validation import ValidationError


class _HeapLane:
    """Stands in for an immediate lane of the reference: :class:`Event`
    appends ``(seq, event)`` to ``sim._lanes[priority]``, and here that
    append goes onto the one heap at the current instant."""

    def __init__(self, sim, priority):
        self.sim = sim
        self.priority = priority

    def append(self, entry):
        seq, event = entry
        heapq.heappush(self.sim._heap, (self.sim._now, self.priority, seq, event))


class _LegacySimulator:
    """The seed's plain-heap scheduler: the reference for firing order.

    Standalone (it shares no scheduling code with :class:`Simulator`):
    every schedule, immediate or future, goes through one binary heap,
    so the order is the ``(time, priority, seq)`` total order by
    construction.  The shipped kernel serves same-instant events from
    immediate lanes and places timeouts inline, and must fire and
    count exactly as this does.  Events, processes and ``AnyOf`` are
    the shipped classes; they reach the scheduler only through
    ``_seq`` and ``_lanes``.
    """

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._lanes = tuple(_HeapLane(self, prio) for prio in PriorityLevel)
        self._seq = 0
        self._timed = 0

    @property
    def now(self):
        return self._now

    def process(self, gen, name="process"):
        return Process(self, gen, name=name)

    def timeout(self, delay, value=None):
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        ev = Event(self)
        ev._triggered = True
        ev._value = value
        self._seq += 1
        entry = (self._now + delay, int(PriorityLevel.NORMAL), self._seq, ev)
        if delay != 0.0:
            self._timed += 1
        heapq.heappush(self._heap, entry)
        return ev

    def _step(self):
        when, _prio, _seq, event = heapq.heappop(self._heap)
        assert when >= self._now, "event scheduled in the past"
        self._now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)
        if not event.ok and not event._defused:
            raise event.value

    def run(self, until=None):
        horizon = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= horizon:
            self._step()
        if until is not None:
            self._now = horizon

    def kernel_counters(self):
        return {
            "scheduled": self._seq,
            "heap_scheduled": self._timed,
            "fast_lane_scheduled": self._seq - self._timed,
            "dispatched": self._seq - len(self._heap),
            "cancelled": 0,
        }


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        seen = []

        def proc():
            yield sim.timeout(2.5)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [2.5]

    def test_timeout_value_passed_to_waiter(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.timeout(1.0, value="hello")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["hello"]

    def test_zero_delay_timeout(self):
        sim = Simulator()
        order = []

        def proc():
            yield sim.timeout(0.0)
            order.append(sim.now)

        sim.process(proc())
        sim.run()
        assert order == [0.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValidationError, match="delay must be >= 0"):
            sim.timeout(float("nan"))
        assert sim._heap == [] and sim.events_scheduled == 0

    def test_infinite_delay_still_scheduled(self):
        sim = Simulator()
        sim.timeout(float("inf"))
        assert sim.peek() == float("inf") and sim.heap_scheduled == 1

    def test_run_until_time(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(5.0)
            fired.append("late")

        sim.process(proc())
        sim.run(until=2.0)
        assert fired == []
        assert sim.now == 2.0
        sim.run()
        assert fired == ["late"]

    def test_peek(self):
        sim = Simulator()
        sim.timeout(3.0)
        assert sim.peek() == 3.0
        sim.run()
        assert sim.peek() == float("inf")


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_priority_beats_schedule_order(self):
        sim = Simulator()
        order = []
        ev_normal = Event(sim)
        ev_urgent = Event(sim)
        ev_normal.callbacks.append(lambda e: order.append("normal"))
        ev_urgent.callbacks.append(lambda e: order.append("urgent"))
        ev_normal.succeed(priority=PriorityLevel.NORMAL)
        ev_urgent.succeed(priority=PriorityLevel.URGENT)
        sim.run()
        assert order == ["urgent", "normal"]

    def test_full_simulation_is_repeatable(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(n):
                for i in range(3):
                    yield sim.timeout(0.5 * (n + 1))
                    log.append((n, sim.now))

            for n in range(4):
                sim.process(worker(n))
            sim.run()
            return log

        assert build_and_run() == build_and_run()


_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
#: ``None`` drains at once; a number stops on an event's instant,
#: between two, before the first or past the last the mixes reach.
_HORIZONS = st.sampled_from([None, 0.0, 0.5, 1.0, 1.75, 2.5, 6.0])
_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("succeed"), st.sampled_from(list(PriorityLevel))),
    st.tuples(st.just("processed"), st.integers(0, 7)),
    st.tuples(st.just("any_of"), _DELAYS),
)


def _plain(value):
    """*value* with each ``AnyOf`` result (keyed by event objects, which
    differ between two runs) replaced by the list of its values."""
    if isinstance(value, dict):
        return [_plain(v) for v in value.values()]
    return value


def _drive(sim, scripts, horizon=None):
    """Run one process per script on *sim*; return everything observable.

    That is the firing order of every event and process step, the
    kernel counters and the clock.  A kernel error ends the run and is
    part of the outcome.  With a *horizon*, the run goes to it first
    (``run(until=horizon)``, the clock logged there), then drains.
    """
    log = []

    def fired(tag):
        return lambda ev: log.append(("fire", sim.now, tag))

    def body(pid, script):
        seen = []
        for i, (op, arg) in enumerate(script):
            tag = (pid, i)
            if op == "timeout":
                ev = sim.timeout(arg, value=tag)
            elif op == "succeed":
                ev = Event(sim)
                ev.succeed(tag, priority=arg)
            elif op == "processed":
                ev = seen[arg % len(seen)] if seen else sim.timeout(0.0, value=tag)
            else:
                members = [sim.timeout(arg, value=tag), sim.timeout(1.0)]
                if seen:
                    members.append(seen[-1])
                ev = AnyOf(sim, members)
            ev.callbacks.append(fired(tag))
            value = yield ev
            log.append(("resumed", sim.now, tag, _plain(value)))
            seen.append(ev)

    for pid, script in enumerate(scripts):
        sim.process(body(pid, script))
    try:
        if horizon is not None:
            sim.run(until=horizon)
            log.append(("horizon", sim.now, sim.kernel_counters()))
        sim.run()
        error = None
    except Exception as exc:  # both kernels must fail alike
        error = re.sub(r" at 0x[0-9a-f]+", "", repr(exc))
    return log, sim.kernel_counters(), sim.now, error


class TestLegacySimulatorFidelity:
    def test_firing_order_matches_optimized_kernel(self):
        def workload(sim, log):
            def worker(sim, tag):
                for i in range(10):
                    yield sim.timeout(0.001 * ((tag + i) % 3))
                    log.append((sim.now, tag, i))

            for tag in range(5):
                sim.process(worker(sim, tag))
            sim.run()

        log_legacy: list = []
        log_current: list = []
        workload(_LegacySimulator(), log_legacy)
        workload(Simulator(), log_current)
        assert log_legacy == log_current

    def test_seq_consumption_identical(self):
        def drive(sim):
            for i in range(50):
                Event(sim).succeed(i)
            sim.timeout(1.0)
            sim.run(until=sim.now)
            return sim._seq

        assert drive(_LegacySimulator()) == drive(Simulator())

    @given(scripts=st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=5),
           horizon=_HORIZONS)
    @settings(max_examples=250, deadline=None)
    def test_random_mixes_match_the_plain_heap(self, scripts, horizon):
        assert _drive(Simulator(), scripts, horizon) == _drive(
            _LegacySimulator(), scripts, horizon
        )


def _ticking(interval, log):
    """A simulator whose tick logs ``("tick", now)`` every *interval*."""
    sim = Simulator()

    def tick():
        log.append(("tick", sim.now))
        return sim.now + interval

    sim._tick_at = interval
    sim._tick = tick
    return sim


class TestTick:
    """The tick observes between events: it schedules none, so a watched
    run is the unwatched one."""

    @staticmethod
    def _steps(sim, log):
        def proc():
            for _ in range(3):
                yield sim.timeout(1.0)
                log.append(("event", sim.now))

        return sim.process(proc())

    def test_fires_between_events_and_never_holds_the_clock(self):
        log = []
        sim = _ticking(0.5, log)
        self._steps(sim, log)
        sim.run()
        # A tick at an event's instant waits for that instant's events.
        assert log == [
            ("tick", 0.5), ("event", 1.0), ("tick", 1.0), ("tick", 1.5),
            ("event", 2.0), ("tick", 2.0), ("tick", 2.5), ("event", 3.0),
        ]
        assert sim.now == 3.0 and sim.events_scheduled == 5

    def test_a_horizon_fires_the_ticks_due_by_it(self):
        ticks = []
        sim = _ticking(0.5, ticks)
        self._steps(sim, [])
        sim.run(until=4.0)
        assert [t for _, t in ticks] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert sim.now == 4.0

    def test_clearing_the_tick_stops_it(self):
        ticks = []
        sim = _ticking(0.5, ticks)
        self._steps(sim, [])
        sim.timeout(1.25).callbacks.append(lambda ev: setattr(sim, "_tick", None))
        sim.run()
        assert [t for _, t in ticks] == [0.5, 1.0] and sim.now == 3.0

    @given(
        scripts=st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=5),
        interval=st.sampled_from([0.25, 0.5, 0.75]),
        horizon=_HORIZONS,
    )
    @settings(max_examples=150, deadline=None)
    def test_random_mixes_run_as_unwatched(self, scripts, interval, horizon):
        ticks: list = []
        outcome = _drive(_ticking(interval, ticks), scripts, horizon)
        assert outcome == _drive(_LegacySimulator(), scripts, horizon)
        assert ticks == sorted(ticks)
        if horizon is not None and outcome[-1] is None:
            # Every tick due by the horizon fired by then (a kernel
            # error ends the ticks with the run).
            due, at = [], interval
            while at <= horizon:
                due.append(at)
                at += interval
            assert [t for _, t in ticks if t <= horizon] == due


class TestEvents:
    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Event(sim).fail("not an exception")  # type: ignore[arg-type]

    def test_failed_event_raises_in_waiter(self):
        sim = Simulator()
        caught = []

        def proc():
            ev = Event(sim)
            ev.fail(RuntimeError("boom"))
            ev.defuse()
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc())
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failed_event_crashes_run(self):
        sim = Simulator()
        Event(sim).fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_waiting_on_already_processed_event(self):
        sim = Simulator()
        got = []
        ev = Event(sim)
        ev.succeed("early")

        def late_waiter():
            yield sim.timeout(1.0)
            v = yield ev
            got.append(v)

        sim.process(late_waiter())
        sim.run()
        assert got == ["early"]


class TestProcesses:
    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc())
        sim.run()
        assert p.value == 42

    def test_process_is_alive(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_yielding_non_event_is_error(self):
        sim = Simulator()

        def bad():
            yield "not an event"  # type: ignore[misc]

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield Events"):
            sim.run()

    def test_process_exception_propagates_to_waiter(self):
        sim = Simulator()
        caught = []

        def crasher():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        def watcher():
            p = sim.process(crasher())
            try:
                yield p
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(watcher())
        sim.run()
        assert caught == ["inner"]

    def test_run_until_process_raises_its_failure(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        sim.process(crasher())
        with pytest.raises(ValueError, match="inner"):
            sim.run(until=2.0)
        assert sim.now == 1.0

    def test_waiting_process_chain(self):
        sim = Simulator()
        order = []

        def child():
            yield sim.timeout(2.0)
            order.append("child")
            return "result"

        def parent():
            v = yield sim.process(child())
            order.append(f"parent:{v}")

        sim.process(parent())
        sim.run()
        assert order == ["child", "parent:result"]


class TestConditions:
    def test_any_of_fires_on_first(self):
        sim = Simulator()
        got = []

        def proc():
            t1 = sim.timeout(1.0, value="fast")
            t2 = sim.timeout(5.0, value="slow")
            result = yield AnyOf(sim, [t1, t2])
            got.append((sim.now, list(result.values())))

        sim.process(proc())
        sim.run()
        assert got == [(1.0, ["fast"])]

    def test_any_of_with_already_processed_event(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed("done")
        got = []

        def proc():
            yield sim.timeout(1.0)
            result = yield AnyOf(sim, [ev, sim.timeout(10.0)])
            got.append(sim.now)
            del result

        sim.process(proc())
        sim.run(until=2.0)
        assert got == [1.0]

    def test_condition_requires_events(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AnyOf(sim, [])


class TestKernelCounters:
    def test_lane_vs_heap_split(self):
        sim = Simulator()
        for _ in range(3):
            sim.timeout(1.0)           # heap: positive delay
        for i in range(5):
            Event(sim).succeed(i)      # fast lane: delay 0
        assert sim.heap_scheduled == 3
        assert sim.fast_lane_scheduled == 5
        assert sim.events_scheduled == 8

    def test_dispatched_counts_only_fired_events(self):
        sim = Simulator()
        sim.timeout(1.0)
        for i in range(4):
            Event(sim).succeed(i)
        assert sim.events_dispatched == 0
        sim.run(until=sim.now)         # drains the 4 immediate events
        assert sim.events_dispatched == 4
        sim.run()
        assert sim.events_dispatched == 5

    def test_kernel_counters_dict_is_consistent(self):
        sim = Simulator()
        sim.timeout(1.0)
        Event(sim).succeed(0)
        sim.run()
        kc = sim.kernel_counters()
        assert kc["scheduled"] == kc["heap_scheduled"] + kc["fast_lane_scheduled"]
        assert kc["dispatched"] == kc["scheduled"]  # everything drained
        assert kc["cancelled"] == 0

    def test_counters_absent_from_timed_loop(self):
        # Dispatch must not maintain a live dispatched counter: the
        # property is derived from _seq and the structure sizes.
        sim = Simulator()
        assert isinstance(type(sim).events_dispatched, property)
        assert isinstance(type(sim).fast_lane_scheduled, property)
