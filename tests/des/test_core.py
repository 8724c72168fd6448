"""Tests for the DES kernel: events, processes, ordering, conditions."""

import heapq
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    PriorityLevel,
    Process,
    Simulator,
    SimulationError,
)
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
    immediate lanes and places timeouts inline, and must fire, count
    and report heap placements exactly as this does.  Events,
    processes and conditions are the shipped classes; they reach the
    scheduler only through ``_seq``, ``_lanes``, ``_cancel_count`` and
    ``_active_process``.
    """

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._lanes = tuple(_HeapLane(self, prio) for prio in PriorityLevel)
        self._seq = 0
        self._timed = 0
        self._cancel_count = 0
        self._active_process = None
        self._sched_hook = None

    @property
    def now(self):
        return self._now

    @property
    def active_process(self):
        return self._active_process

    def event(self):
        return Event(self)

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
            if self._sched_hook is not None:
                self._sched_hook(entry[:3])
        heapq.heappush(self._heap, entry)
        return ev

    def _step(self):
        when, _prio, _seq, event = heapq.heappop(self._heap)
        assert when >= self._now, "event scheduled in the past"
        self._now = when
        event._processed = True
        if event._cancelled:
            return
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
            "cancelled": self._cancel_count,
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
_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("succeed"), st.sampled_from(list(PriorityLevel))),
    st.tuples(st.just("cancel"), _DELAYS),
    st.tuples(st.just("processed"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
)


def _drive(sim, scripts):
    """Run one process per script on *sim*; return everything observable.

    That is the firing order of every event and process step, the
    kernel counters, the ``_sched_hook`` placements and the clock.  A
    kernel error ends the run and is part of the outcome.
    """
    log = []
    placements = []
    sim._sched_hook = placements.append
    procs = []

    def fired(tag):
        return lambda ev: log.append(("fire", sim.now, tag))

    def body(pid, script):
        seen = []
        for i, (op, arg) in enumerate(script):
            tag = (pid, i)
            if op == "timeout":
                ev = sim.timeout(arg, value=tag)
            elif op == "succeed":
                ev = sim.event()
                ev.succeed(tag, priority=arg)
            elif op == "cancel":
                sim.timeout(arg).cancel()
                dead = sim.event()
                dead.succeed()
                dead.cancel()
                ev = sim.timeout(arg, value=tag)
            elif op == "processed":
                ev = seen[arg % len(seen)] if seen else sim.timeout(0.0, value=tag)
            else:
                victim = procs[arg % len(procs)]
                if victim is not sim.active_process and victim.is_alive:
                    victim.interrupt(tag)
                ev = sim.timeout(0.0, value=tag)
            ev.callbacks.append(fired(tag))
            try:
                value = yield ev
            except Interrupt as intr:
                log.append(("interrupted", sim.now, tag, intr.cause))
            else:
                log.append(("resumed", sim.now, tag, value))
                seen.append(ev)

    for pid, script in enumerate(scripts):
        procs.append(sim.process(body(pid, script)))
    try:
        sim.run()
        error = None
    except Exception as exc:  # both kernels must fail alike
        error = re.sub(r" at 0x[0-9a-f]+", "", repr(exc))
    return log, sim.kernel_counters(), placements, sim.now, error


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
                ev = sim.event()
                ev.succeed(i)
            sim.timeout(1.0)
            sim.run(until=sim.now)
            return sim._seq

        assert drive(_LegacySimulator()) == drive(Simulator())

    @given(scripts=st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_random_mixes_match_the_plain_heap(self, scripts):
        assert _drive(Simulator(), scripts) == _drive(_LegacySimulator(), scripts)


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
        assert sim.run(until=p) == 42

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

        p = sim.process(crasher())
        with pytest.raises(ValueError, match="inner"):
            sim.run(until=p)

    def test_run_until_unreachable_event_is_deadlock(self):
        sim = Simulator()
        never = Event(sim)

        def proc():
            yield never

        sim.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=never)

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


class TestInterrupts:
    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        got = []

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                got.append((i.cause, sim.now))

        def attacker(v):
            yield sim.timeout(1.0)
            v.interrupt("stop")

        v = sim.process(victim())
        sim.process(attacker(v))
        sim.run()
        assert got == [("stop", 1.0)]

    def test_interrupt_finished_process_is_error(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self):
        sim = Simulator()
        log = []

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(1.0)
            log.append(sim.now)

        def attacker(v):
            yield sim.timeout(2.0)
            v.interrupt()

        v = sim.process(victim())
        sim.process(attacker(v))
        sim.run()
        assert log == [3.0]


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

    def test_all_of_waits_for_all(self):
        sim = Simulator()
        got = []

        def proc():
            t1 = sim.timeout(1.0, value="a")
            t2 = sim.timeout(5.0, value="b")
            result = yield AllOf(sim, [t1, t2])
            got.append((sim.now, sorted(result.values())))

        sim.process(proc())
        sim.run()
        assert got == [(5.0, ["a", "b"])]

    def test_any_of_with_already_processed_event(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed("done")
        got = []

        def proc():
            yield sim.timeout(1.0)
            result = yield sim.any_of([ev, sim.timeout(10.0)])
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

    def test_cancelled_counter(self):
        sim = Simulator()
        ev = sim.timeout(5.0)
        assert sim.events_cancelled == 0
        ev.cancel()
        assert sim.events_cancelled == 1
        sim.run()

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
