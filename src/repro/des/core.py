"""Core of the discrete-event simulator: events, processes, the clock.

Design notes
------------
The scheduler keeps a total order over pending events by the key
``(time, priority, seq)``.  ``seq`` is a monotonically increasing
tie-breaker, so two events scheduled for the same instant at the same
priority fire in schedule order — this is what makes whole simulations
deterministic.

Two structures back that order (the hot-path split):

* a binary heap of ``(time, priority, seq, event)`` tuples for events
  scheduled in the *future* (``delay > 0``), and
* three *immediate lanes* — one FIFO deque per priority level — for
  events scheduled at the *current instant* (``delay == 0``: every
  ``succeed``/``fail``, process bootstrap and resume carrier).

Immediate events vastly outnumber timed ones in coupled runs (each
control message triggers a chain of same-instant callbacks), and a
deque append/popleft is O(1) versus the heap's O(log n) — with the
heap holding thousands of pending timeouts, bypassing it for the
same-instant traffic is where the events/sec headroom comes from
(``des.events_per_self_s`` of ``perf/run.py --trace 1``).  Because
every enqueue still consumes one ``seq`` and ``_step`` compares
``(time, priority, seq)`` across both structures, the firing order is
*bit-identical* to the plain-heap implementation (asserted by the
seed-replay golden tests).

Cancellation uses tombstones: :meth:`Event.cancel` marks a scheduled
event dead and ``_step`` discards it when popped, without paying for
a heap re-sort or a linear scan.

Processes are plain Python generators.  A process yields the event it
wants to wait for; when that event fires, the process is resumed with
the event's value (or the event's exception is thrown into it).  This
mirrors SimPy's programming model, which is the de-facto idiom for
Python DES code, but the implementation here is self-contained.
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
    LOW = 2


_new_event = object.__new__
_heappush = heapq.heappush


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
        "_cancelled",
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
        #: Tombstone: a cancelled scheduled event is discarded by the
        #: kernel when popped instead of being processed.
        self._cancelled = False

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

    def cancel(self) -> None:
        """Tombstone a triggered-but-unprocessed event.

        The kernel discards the event when it reaches the head of the
        schedule: no callbacks run, and a failure value is not raised.
        Cancelling is how abandoned timers (e.g. the loser of a
        wait-with-timeout race) avoid burdening the event loop.
        Cancelling an already-processed event is an error.
        """
        if self._processed:
            raise SimulationError(f"cannot cancel processed event {self!r}")
        self._cancelled = True
        self.sim._cancel_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual delay (built, in one
    call, by :meth:`Simulator.timeout`)."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        raise TypeError("build a Timeout with Simulator.timeout(delay, value)")


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        The value passed to :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        """The interrupt cause supplied by the interrupter."""
        return self.args[0]


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` instances to wait on.  When the
    awaited event fires, the generator resumes with the event's value
    (or the event's exception is thrown in).  A ``return value`` inside
    the generator becomes this process-event's value.
    """

    __slots__ = ("name", "_gen", "_waiting_on")

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
        self._waiting_on: Optional[Event] = None
        # Kick the generator at the current instant.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(None, priority=PriorityLevel.URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event (the
        event may still fire later, the process just no longer waits).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waited = self._waiting_on
        if waited is not None and self._resume in waited.callbacks:
            waited.callbacks.remove(self._resume)
        self._waiting_on = None
        carrier = Event(self.sim)
        carrier.callbacks.append(self._resume)
        carrier.fail(Interrupt(cause), priority=PriorityLevel.URGENT)
        carrier.defuse()

    # -- engine --------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        # Runs once per process step: slots are read directly (the
        # public properties are a call each) and ``sim`` is looked up once.
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        try:
            if trigger._ok:
                target = self._gen.send(trigger._value)
            else:
                trigger._defused = True
                target = self._gen.throw(trigger._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # generator crashed
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None
        # The kernel's own classes are matched by exact type (no call);
        # anything else pays the isinstance walk.
        if type(target) not in _EVENT_TYPES and not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        if target.sim is not sim:
            raise SimulationError("cannot wait on an event from another Simulator")
        if target._processed:
            # Already fired: resume immediately (same instant) with its value.
            carrier = Event(sim)
            carrier.callbacks.append(self._resume)
            if target._ok:
                carrier.succeed(target._value, priority=PriorityLevel.URGENT)
            else:
                carrier.fail(target._value, priority=PriorityLevel.URGENT)
                carrier.defuse()
            return
        self._waiting_on = target
        target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite waits."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        require(len(self._events) > 0, "condition needs at least one event")
        self._pending = 0
        for ev in self._events:
            if ev._processed:
                self._check(ev)
            else:
                self._pending += 1
                ev.callbacks.append(self._check)
        # Handle the all-already-processed case.
        if not self._triggered and self._pending == 0:
            self._finalize()

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._satisfied(ev):
            self._finalize()

    def _results(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self._events if ev._processed and ev.ok}

    def _finalize(self) -> None:
        if not self._triggered:
            self.succeed(self._results())

    def _satisfied(self, ev: Event) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as any constituent event has fired.

    Its value is a dict mapping the already-fired events to their
    values (there may be more than one if several fire at one instant).
    """

    __slots__ = ()

    def _satisfied(self, ev: Event) -> bool:
        return True


class AllOf(_Condition):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def _satisfied(self, ev: Event) -> bool:
        return self._pending <= 0


_EVENT_TYPES = frozenset({Event, Timeout, Process, AnyOf, AllOf})


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
        #: Future events (``delay > 0``), ordered by (time, prio, seq).
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Immediate lanes: one FIFO of ``(seq, event)`` per priority
        #: level, holding events scheduled for the current instant.
        self._lanes: tuple[deque[tuple[int, Event]], ...] = (
            deque(),
            deque(),
            deque(),
        )
        self._seq = 0
        #: Kernel counters (see :meth:`kernel_counters`).  Only the
        #: heap branch of :meth:`timeout` and ``Event.cancel`` pay for an
        #: increment; everything else is derived from ``_seq`` and the
        #: live structure sizes, so the same-instant fast path carries
        #: no instrumentation cost at all.
        self._heap_scheduled = 0
        self._cancel_count = 0
        self._active_process: Optional[Process] = None
        #: Optional provenance hook called with ``(time, prio, seq)``
        #: for every heap scheduling decision.  The same-instant lane
        #: fast path is deliberately left unhooked — lane order is
        #: fully determined by ``seq``, so heap placements alone pin
        #: down the schedule, and ``des_dispatch`` stays uninstrumented.
        self._sched_hook: Optional[Callable[[tuple[float, int, int]], None]] = None

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- construction helpers -------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

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
        ev._cancelled = False
        ev.delay = delay
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._lanes[1].append((seq, ev))
        else:
            self._heap_scheduled += 1
            entry = (self._now + delay, 1, seq, ev)
            if self._sched_hook is not None:
                # Slice off the event: the provenance log records the
                # placement, never pins the event object in memory.
                self._sched_hook(entry[:3])
            _heappush(self._heap, entry)
        return ev

    def process(self, gen: Generator[Event, Any, Any], name: str = "process") -> Process:
        """Start *gen* as a process at the current instant."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of *events* fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of *events* have fired."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _step(self) -> None:
        """Fire the next event in (time, prio, seq) order.

        The selection is inlined here (no helper call): immediate-lane
        events always carry the current time, so the clock never moves
        while a lane is non-empty — lanes drain before time advances.
        A heap event *at* the current instant with an earlier
        (prio, seq) still fires first, preserving the exact total
        order of the plain-heap implementation.
        """
        lanes = self._lanes
        heap = self._heap
        event: Event | None = None
        for prio in (0, 1, 2):
            lane = lanes[prio]
            if lane:
                if heap:
                    head = heap[0]
                    if head[0] == self._now and (head[1], head[2]) < (
                        prio,
                        lane[0][0],
                    ):
                        event = heapq.heappop(heap)[3]
                        break
                event = lane.popleft()[1]
                break
        else:
            if not heap:
                raise SimulationError("no pending events to step")
            when, _prio, _seq, event = heapq.heappop(heap)
            self._now = when
        if event._cancelled:
            event._processed = True
            return
        event._processed = True
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            for cb in callbacks:
                cb(event)
        if not event._ok and not event._defused:
            raise event._value

    def _has_pending(self) -> bool:
        lanes = self._lanes
        return bool(self._heap or lanes[0] or lanes[1] or lanes[2])

    def run(self, until: float | Event | None = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            ``None`` runs until the schedule drains.  A number runs
            until the clock would pass it (the clock is then advanced
            exactly to it).  An :class:`Event` runs until that event
            has been processed and returns its value.
        """
        if until is None:
            step = self._step
            heap = self._heap
            lane0, lane1, lane2 = self._lanes
            while heap or lane0 or lane1 or lane2:  # _has_pending(), inlined
                step()
            return None
        if isinstance(until, Event):
            sentinel = until
            step = self._step
            while not sentinel._processed:
                if not self._has_pending():
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired "
                        "(deadlock: some process waits forever)"
                    )
                step()
            if not sentinel.ok:
                raise sentinel.value
            return sentinel.value
        horizon = float(until)
        require_non_negative(horizon - self._now, "run-until horizon (must be >= now)")
        lanes = self._lanes
        heap = self._heap
        while (
            lanes[0]
            or lanes[1]
            or lanes[2]
            or (heap and heap[0][0] <= horizon)
        ):
            self._step()
        self._now = horizon
        return None

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when drained)."""
        lanes = self._lanes
        if lanes[0] or lanes[1] or lanes[2]:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

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
        """Events popped off the schedule (fired or tombstone-discarded)."""
        pending = len(self._heap) + sum(len(lane) for lane in self._lanes)
        return self._seq - pending

    @property
    def events_cancelled(self) -> int:
        """Events tombstoned via :meth:`Event.cancel`."""
        return self._cancel_count

    def kernel_counters(self) -> dict[str, int]:
        """Scheduling counters for :func:`repro.obs.collect.collect_metrics`."""
        return {
            "scheduled": self.events_scheduled,
            "heap_scheduled": self.heap_scheduled,
            "fast_lane_scheduled": self.fast_lane_scheduled,
            "dispatched": self.events_dispatched,
            "cancelled": self.events_cancelled,
        }
