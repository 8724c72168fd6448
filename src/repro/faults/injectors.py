"""Per-process fault injectors for both runtimes.

Two families live here:

* **DES generator wrappers** — :func:`inject_main` wraps a user
  ``main(ctx)`` generator with a :class:`ProcessFaultSpec`, adding a
  one-time stall, a multiplicative compute slowdown, and/or a
  fail-stop crash, all in virtual time.  The wrapper drives the inner
  generator manually so values and exceptions pass through unchanged.
* **Live-runtime injectors** — :class:`LiveFaultInjector` is a mailbox
  hook for :class:`repro.vmpi.thread_backend.ThreadWorld` that applies
  a :class:`~repro.faults.plan.FaultPlan` to posted framework messages
  (wall-clock delays via timers), and :func:`live_stalled_main` wraps a
  threaded main with a wall-clock startup stall.

The live injector shares the plan's probabilities but, running on real
threads, cannot promise the DES layer's bit-exact reproducibility: the
draw *sequence* per plane is deterministic, but which message gets
which draw depends on thread interleaving.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Generator, Hashable

from repro.des.core import Event, Interrupt, Timeout
from repro.faults.plan import FaultPlan, classify_plane
from repro.util import tracing
from repro.util.rng import RngRegistry
from repro.util.tracing import Tracer
from repro.util.validation import require

#: A DES ``main(ctx)`` generator function.
MainFn = Callable[[Any], Generator[Event, Any, Any]]


@dataclass(frozen=True)
class ProcessFaultSpec:
    """Faults applied to one simulated process.

    Attributes
    ----------
    stall_at:
        Virtual time at (or after) which the process stalls once for
        ``stall_for`` — the paper's "slowed process" scenario, only as
        a transient spike instead of steady extra load.
    stall_for:
        Duration of the one-time stall.
    slowdown:
        Multiplier applied to every positive timeout the process waits
        on after each resume (``2.0`` makes its compute take twice as
        long).  Must be ``>= 1``.
    crash_at:
        Virtual time at (or after) which the process fail-stops: its
        generator is closed and never resumes.  Streams it exports are
        closed by the framework's normal end-of-process path, so peers
        see clean NO_MATCH answers rather than a hang.
    """

    stall_at: float | None = None
    stall_for: float = 0.0
    slowdown: float = 1.0
    crash_at: float | None = None

    def __post_init__(self) -> None:
        require(self.stall_for >= 0.0, "stall_for must be >= 0")
        require(self.slowdown >= 1.0, "slowdown must be >= 1")

    @property
    def is_noop(self) -> bool:
        """Whether this spec changes nothing."""
        return (
            (self.stall_at is None or self.stall_for == 0.0)
            and self.slowdown == 1.0
            and self.crash_at is None
        )


def inject_main(main: MainFn, spec: ProcessFaultSpec, tracer: Tracer | None = None) -> MainFn:
    """Wrap a DES ``main(ctx)`` generator with *spec*'s process faults.

    The wrapper forwards every yielded event, resumed value and thrown
    exception between the kernel and the inner generator, splicing in
    stall timeouts, slowdown timeouts and the crash cut-off.
    """
    if spec.is_noop:
        return main

    def wrapped(ctx: Any) -> Generator[Event, Any, Any]:
        sim = ctx.sim
        gen = main(ctx)
        stalled = spec.stall_at is None or spec.stall_for == 0.0  # "already done"
        send: Callable[[Any], Event] = gen.send
        value: Any = None
        while True:
            if spec.crash_at is not None and sim.now >= spec.crash_at:
                if tracer is not None and tracer.enabled:
                    tracer.record(tracing.FAULT_CRASH, ctx.who, sim.now)
                gen.close()
                return None
            if not stalled and sim.now >= spec.stall_at:
                stalled = True
                if tracer is not None and tracer.enabled:
                    tracer.record(
                        tracing.FAULT_STALL, ctx.who, sim.now, duration=spec.stall_for
                    )
                yield sim.timeout(spec.stall_for)
            try:
                target = send(value)
            except StopIteration as stop:
                return stop.value
            try:
                value = yield target
                # Stretch the wait the process just completed: the extra
                # (slowdown - 1) share lands after the original event so
                # the event's own value is preserved.
                if (
                    spec.slowdown > 1.0
                    and isinstance(target, Timeout)
                    and target.delay > 0.0
                ):
                    yield sim.timeout(target.delay * (spec.slowdown - 1.0))
                send = gen.send
            except Interrupt as exc:
                send, value = gen.throw, exc

    return wrapped


class LiveFaultInjector:
    """Mailbox-post hook applying a :class:`FaultPlan` on the live runtime.

    Install via ``RunOptions(runtime="live", fault_injector=...)`` (the
    live runtime assigns it to ``ThreadWorld.fault_hook``).  Framework messages posted
    to eligible planes are then dropped, duplicated or delayed; user
    traffic and shutdown sentinels pass through untouched.

    Parameters
    ----------
    plan:
        The chaos configuration.  The plan's virtual-time window is
        ignored here (the live runtime has no virtual clock).
    delay_scale:
        Wall seconds per plan time unit — the live twin of the DES
        scenarios' virtual seconds.  Keep it small; delays run on
        daemon timers.
    """

    def __init__(self, plan: FaultPlan, delay_scale: float = 1.0) -> None:
        require(delay_scale > 0.0, "delay_scale must be > 0")
        self.plan = plan
        self.delay_scale = delay_scale
        self._rngs = RngRegistry(seed=plan.seed)
        self._lock = threading.Lock()
        self._reorder_bound = plan.effective_reorder_delay(0.0)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def __call__(self, world: Any, address: Hashable, msg: Any) -> None:
        """Deliver *msg* to *address*, applying the plan."""
        from repro.core.wire import DataPiece, Shutdown

        plane = classify_plane(address)
        if isinstance(msg, Shutdown) or not self.plan.eligible(plane):
            world.mailbox(address).put(msg)
            return
        assert plane is not None
        with self._lock:  # a stream's block position is not thread-safe
            rng = self._rngs.stream(f"faults/{plane}")
            u_drop = rng.random()
            u_dup = rng.random()
            u_jitter = rng.random()
            u_reorder = rng.random()
            u_hold = rng.random()
        protected = self.plan.protect_data and isinstance(msg, DataPiece)
        if u_drop < self.plan.drop and not protected:
            self.dropped += 1
            return
        delay = u_jitter * self.plan.delay_jitter
        if u_reorder < self.plan.reorder:
            delay += u_hold * self._reorder_bound
        copies = 2 if u_dup < self.plan.dup else 1
        self.duplicated += copies - 1
        box = world.mailbox(address)
        for _ in range(copies):
            if delay > 0.0:
                self.delayed += 1
                timer = threading.Timer(delay * self.delay_scale, box.put, args=(msg,))
                timer.daemon = True
                timer.start()
            else:
                box.put(msg)


def live_stalled_main(
    main: Callable[[Any], Any], stall_for: float, time_scale: float = 1.0
) -> Callable[[Any], Any]:
    """Wrap a live (threaded) main so it sleeps before starting.

    The live analogue of :class:`ProcessFaultSpec.stall_at` at process
    start: peers must cover the stalled process's early requests via
    timeouts and buddy-help degradation.
    """
    require(stall_for >= 0.0, "stall_for must be >= 0")

    def wrapped(ctx: Any) -> Any:
        time.sleep(stall_for * time_scale)
        return main(ctx)

    return wrapped
