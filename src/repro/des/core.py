"""Core of the discrete-event simulator: events, processes, the clock.

Design notes
------------
The scheduler keeps a total order over pending events by the key
``(time, priority, seq)``.  ``seq`` is a monotonically increasing
tie-breaker, so two events scheduled for the same instant at the same
priority fire in schedule order — this is what makes whole simulations
deterministic.

Two structures back that order (the hot-path split):

* a binary heap of ``(time, seq, event)`` tuples for events scheduled
  in the *future* (``delay > 0``: only :meth:`Simulator.timeout` puts
  one there, always at the ``NORMAL`` level, so the level is not kept),
  and
* two *immediate lanes* — one FIFO deque per priority level — for
  events scheduled at the *current instant* (``delay == 0``: every
  ``succeed``/``fail``, process bootstrap and resume carrier).

Immediate events vastly outnumber timed ones in coupled runs (each
control message triggers a chain of same-instant callbacks), and a
deque append/popleft is O(1) versus the heap's O(log n) — with the
heap holding thousands of pending timeouts, bypassing it for the
same-instant traffic is where the events/sec headroom comes from
(``des.events_per_self_s`` of ``perf/run.py --trace 1``).  Because
every enqueue still consumes one ``seq`` and the dispatch loop compares
``(time, priority, seq)`` across both structures, the firing order is
*bit-identical* to the plain-heap implementation (asserted by the
seed-replay golden tests).

A periodic watcher (streaming telemetry) is a *tick*, not a process:
:meth:`Simulator.run` calls ``_tick`` between two events, when the next
lies past ``_tick_at``, so it schedules nothing and consumes no
``seq`` — a watched run fires the unwatched run's events at the same
times and ends at the same time.

Processes are plain Python generators.  A process yields the event it
wants to wait for; when that event fires, the process is resumed with
the event's value (or the event's exception is thrown into it).  This
mirrors SimPy's programming model, but the kernel carries only what the
runtimes use: no interrupts, and one composite wait, :class:`AnyOf`.
"""

from __future__ import annotations

import heapq
from collections import deque
from enum import IntEnum
from typing import Any, Callable, Generator, Iterable, Optional

from repro.util.validation import require, require_non_negative


class SimulationError(RuntimeError):
    """Raised for kernel-level protocol violations (e.g. double trigger)."""


class PriorityLevel(IntEnum):
    """Relative ordering of events scheduled for the same instant."""

    URGENT = 0
    NORMAL = 1


_new_event = object.__new__
_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class Event:
    """A one-shot occurrence on the virtual timeline.

    An event starts *pending*, becomes *triggered* once it has been
    scheduled with a value (or failure), and *processed* after its
    callbacks have run.  Processes wait on events by yielding them.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_defused",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked with this event when it is processed.
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: A failed event whose exception was delivered to a waiter is
        #: "defused" and will not crash the simulation at process time.
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when ``not ok``)."""
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: PriorityLevel = PriorityLevel.NORMAL) -> "Event":
        """Trigger the event successfully with *value* at the current time."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._lanes[priority].append((seq, self))
        return self

    def fail(self, exc: BaseException, priority: PriorityLevel = PriorityLevel.NORMAL) -> "Event":
        """Trigger the event as failed; waiters receive *exc*."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        require(isinstance(exc, BaseException), "fail() needs an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._lanes[priority].append((seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual delay (built, in one
    call, by :meth:`Simulator.timeout`)."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        raise TypeError("build a Timeout with Simulator.timeout(delay, value)")


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` instances to wait on.  When the
    awaited event fires, the generator resumes with the event's value
    (or the event's exception is thrown in).  A ``return value`` inside
    the generator becomes this process-event's value.
    """

    __slots__ = ("name", "_gen", "_wake")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str = "process",
    ) -> None:
        super().__init__(sim)
        require(hasattr(gen, "send") and hasattr(gen, "throw"), "gen must be a generator")
        self.name = name
        self._gen = gen
        #: ``_resume`` bound once: every wait appends this callback.
        self._wake = self._resume
        # Kick the generator at the current instant.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._wake)
        bootstrap.succeed(None, priority=PriorityLevel.URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def _resume(self, trigger: Event) -> None:
        # Runs once per process step: slots are read directly (the
        # public properties are a call each).
        try:
            if trigger._ok:
                target = self._gen.send(trigger._value)
            else:
                trigger._defused = True
                target = self._gen.throw(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # generator crashed
            self.fail(exc)
            return
        # The kernel's own classes are matched by exact type (no call);
        # anything else pays the isinstance walk.
        if type(target) not in _EVENT_TYPES and not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        sim = self.sim
        if target.sim is not sim:
            raise SimulationError("cannot wait on an event from another Simulator")
        if target._processed:
            # Already fired: resume immediately (same instant) with its value.
            carrier = Event(sim)
            carrier.callbacks.append(self._wake)
            if target._ok:
                carrier.succeed(target._value, priority=PriorityLevel.URGENT)
            else:
                carrier.fail(target._value, priority=PriorityLevel.URGENT)
                carrier.defuse()
            return
        target.callbacks.append(self._wake)


class AnyOf(Event):
    """Fires as soon as any constituent event has fired.

    Its value is a dict mapping the already-fired events to their
    values (there may be more than one if several fire at one instant);
    a failed constituent fails it with that event's exception.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        require(len(self._events) > 0, "AnyOf needs at least one event")
        for ev in self._events:
            if ev._processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self.succeed({e: e._value for e in self._events if e._processed and e._ok})


_EVENT_TYPES = frozenset({Event, Timeout, Process, AnyOf})


class Simulator:
    """The virtual clock and event loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim):
    ...     yield sim.timeout(2.0)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> log
    [2.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Future events (``delay > 0``), ordered by (time, seq); all
        #: are at the ``NORMAL`` level.
        self._heap: list[tuple[float, int, Event]] = []
        #: Immediate lanes: one FIFO of ``(seq, event)`` per priority
        #: level, holding events scheduled for the current instant.
        self._lanes: tuple[deque[tuple[int, Event]], deque[tuple[int, Event]]] = (
            deque(),
            deque(),
        )
        self._seq = 0
        #: Kernel counters (see :meth:`kernel_counters`).  Only the
        #: heap branch of :meth:`timeout` pays for an increment;
        #: everything else is derived from ``_seq`` and the live
        #: structure sizes, so the same-instant fast path carries no
        #: instrumentation cost at all.
        self._heap_scheduled = 0
        #: Optional observer called between events: when the next event
        #: lies past ``_tick_at`` and no same-instant lane is pending,
        #: the dispatch loop sets the clock to ``_tick_at`` and calls it;
        #: it returns the time of the next tick.  A tick schedules no
        #: event and consumes no ``seq``, so watching cannot move the run.
        self._tick: Optional[Callable[[], float]] = None
        self._tick_at = _INF

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- construction helpers -------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after *delay* time units.

        One Python call per timeout — two thirds of all events of a
        coupled run: the check, ``Event.__init__`` and the lane/heap
        placement (module design notes) are inlined here.
        """
        if type(delay) is not float or not delay >= 0.0:
            # ints and float subclasses pass through the helper; a
            # negative, NaN or non-number delay raises there.
            require_non_negative(delay, "delay")
        ev = _new_event(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._triggered = True
        ev._processed = False
        ev._defused = False
        ev.delay = delay
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._lanes[1].append((seq, ev))
        else:
            self._heap_scheduled += 1
            _heappush(self._heap, (self._now + delay, seq, ev))
        return ev

    def process(self, gen: Generator[Event, Any, Any], name: str = "process") -> Process:
        """Start *gen* as a process at the current instant."""
        return Process(self, gen, name=name)

    # -- scheduling ------------------------------------------------------
    def _dispatch(self, horizon: float) -> None:
        """Fire every event due by *horizon*, and every tick due between.

        The kernel's one dispatch loop, selection and firing inline.
        Lane events carry the current time, so the clock moves only on
        a heap pop, with both lanes empty.  The URGENT lane's head
        always fires first (heap events are NORMAL); a heap event at
        the current instant with an earlier seq fires before the NORMAL
        lane's head — the exact total order of the plain-heap
        implementation.  A tick is due when both lanes are empty and
        the heap's head lies past ``_tick_at``; with the heap empty,
        ticks go on only up to a finite *horizon*.  Lanes fire whatever
        the horizon: they are at the current instant.
        """
        lane0, lane1 = self._lanes
        heap = self._heap
        now = self._now
        while True:
            if lane0:
                event = lane0.popleft()[1]
            elif lane1:
                if heap and heap[0][0] == now and heap[0][1] < lane1[0][0]:
                    event = _heappop(heap)[2]
                else:
                    event = lane1.popleft()[1]
            elif heap and heap[0][0] <= horizon and heap[0][0] <= self._tick_at:
                now, _seq, event = _heappop(heap)
                self._now = now
            elif self._tick_at <= horizon and (heap or horizon < _INF):
                tick = self._tick
                if tick is None:  # cleared since it was set
                    self._tick_at = _INF
                else:
                    now = self._now = self._tick_at
                    self._tick_at = tick()
                continue
            else:
                return
            event._processed = True
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for cb in callbacks:
                    cb(event)
            if not event._ok and not event._defused:
                raise event._value

    def run(self, until: float | None = None) -> None:
        """Run the event loop.

        ``until=None`` runs until the schedule drains.  A number runs
        until the clock would pass it (the clock is then advanced
        exactly to it, firing the ticks due up to it).
        """
        if until is None:
            self._dispatch(_INF)
            return
        horizon = float(until)
        require_non_negative(horizon - self._now, "run-until horizon (must be >= now)")
        self._dispatch(horizon)
        self._now = horizon

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when drained)."""
        lane0, lane1 = self._lanes
        if lane0 or lane1:
            return self._now
        return self._heap[0][0] if self._heap else _INF

    # -- observability ---------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Total events ever enqueued (every enqueue consumes one seq)."""
        return self._seq

    @property
    def heap_scheduled(self) -> int:
        """Events that went through the future-event heap."""
        return self._heap_scheduled

    @property
    def fast_lane_scheduled(self) -> int:
        """Events that took the same-instant fast lanes."""
        return self._seq - self._heap_scheduled

    @property
    def events_dispatched(self) -> int:
        """Events popped off the schedule and fired."""
        lane0, lane1 = self._lanes
        return self._seq - len(self._heap) - len(lane0) - len(lane1)

    def kernel_counters(self) -> dict[str, int]:
        """Scheduling counters for :func:`repro.obs.collect.collect_metrics`."""
        return {
            "scheduled": self.events_scheduled,
            "heap_scheduled": self.heap_scheduled,
            "fast_lane_scheduled": self.fast_lane_scheduled,
            "dispatched": self.events_dispatched,
            # The kernel cancels nothing; the key stays because
            # ``repro.report/v1``'s metrics name ``des.events.cancelled``
            # and the recorded fixtures' report digests cover it.
            "cancelled": 0,
        }
