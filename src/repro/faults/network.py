"""A :class:`~repro.des.channel.Network` that executes a fault plan.

:class:`FaultyNetwork` is a drop-in replacement for the DES network:
construction-compatible, same ``send`` signature, same counters.  On
top of the base latency/bandwidth/congestion model it applies a
:class:`~repro.faults.plan.FaultPlan` to every message whose
destination is an eligible framework plane:

* **drop** — the message is never handed to the base network; the
  returned delivery event never fires (senders in both runtimes do not
  wait on it).
* **duplicate** — a second, byte-identical copy (same sequence number)
  is handed off right after the original; receivers discard it via
  sequence-number dedup.
* **delay / reorder** — the *handoff* to the base network is postponed
  by the drawn amount, so messages of other endpoint pairs sent in the
  meantime overtake the held one.  Handoffs of the same ``(src, dst)``
  pair are release-clamped so per-pair FIFO is preserved (see the
  ordering contract in :mod:`repro.faults.plan`).

Counters: the base class's ``messages_sent`` / ``bytes_sent`` count
physical handoffs, so duplicated traffic inflates them naturally —
which is exactly what keeps the modelled control-traffic accounting
honest under retransmission.  Dropped messages are counted only in
:class:`FaultStats` (they never load the modelled wire).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.des.channel import Network
from repro.des.core import Event, Simulator
from repro.faults.plan import FaultPlan, classify_plane
from repro.util import tracing
from repro.util.rng import RngRegistry
from repro.util.tracing import NullTracer, Tracer


@dataclass
class FaultStats:
    """What the fault layer actually did during a run."""

    eligible: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    drops_by_plane: dict[str, int] = field(default_factory=dict)

    def note_drop(self, plane: str) -> None:
        """Record one dropped message on *plane*."""
        self.dropped += 1
        self.drops_by_plane[plane] = self.drops_by_plane.get(plane, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict summary for reports."""
        return {
            "eligible": self.eligible,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "drops_by_plane": dict(sorted(self.drops_by_plane.items())),
        }


class FaultyNetwork(Network):
    """The DES network with a deterministic chaos layer in front.

    Parameters
    ----------
    sim, latency, bandwidth, congestion:
        As for :class:`~repro.des.channel.Network`.
    plan:
        The :class:`FaultPlan` to execute.
    tracer:
        Optional tracer receiving ``fault_*`` events (the coupler wires
        its own tracer in; the default records nothing).

    Attributes
    ----------
    victim:
        Optional predicate ``f(src, dst, payload) -> bool`` narrowing
        the plan to specific messages (targeted-loss tests set e.g.
        ``lambda s, d, p: isinstance(p, BuddyMsg)``).  Random draws
        happen *before* the predicate is consulted, so toggling it does
        not shift the decisions made for other messages.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        latency: float = 0.0,
        bandwidth: float = float("inf"),
        congestion: Callable[[int], float] | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(sim, latency=latency, bandwidth=bandwidth, congestion=congestion)
        self.plan = plan
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self.stats = FaultStats()
        self.victim: Callable[[Hashable, Hashable, Any], bool] | None = None
        self._rngs = RngRegistry(seed=plan.seed)
        self._reorder_bound = plan.effective_reorder_delay(latency)
        #: Per-(src, dst) earliest next handoff time (FIFO clamp).
        self._pair_release: dict[tuple[Hashable, Hashable], float] = {}

    # -- the chaos layer -------------------------------------------------
    def send(self, src: Hashable, dst: Hashable, payload: Any, nbytes: int = 0) -> Event:
        """Send with the plan applied (see class docstring)."""
        plane = classify_plane(dst)
        if not self.plan.eligible(plane) or not self.plan.active(self.sim._now):
            return self._handoff(src, dst, payload, nbytes, 0.0)
        assert plane is not None
        # Fixed draw count per eligible send — the determinism contract.
        rng = self._rngs.stream(f"faults/{plane}")
        u_drop = rng.random()
        u_dup = rng.random()
        u_jitter = rng.random()
        u_reorder = rng.random()
        u_hold = rng.random()
        self.stats.eligible += 1

        drop = u_drop < self.plan.drop
        dup = u_dup < self.plan.dup
        jitter = u_jitter * self.plan.delay_jitter
        reordered = u_reorder < self.plan.reorder
        hold = u_hold * self._reorder_bound if reordered else 0.0
        if self.victim is not None and not self.victim(src, dst, payload):
            drop = dup = reordered = False
            jitter = hold = 0.0
        if drop and self._droppable(payload):
            self.stats.note_drop(plane)
            if self.tracer.enabled:
                self._trace(tracing.FAULT_DROP, dst, payload)
            return Event(self.sim)  # never fires: the message is gone

        delay = jitter + hold
        if delay > 0.0:
            self.stats.delayed += 1
            if reordered:
                self.stats.reordered += 1
            if self.tracer.enabled:
                self._trace(tracing.FAULT_DELAY, dst, payload, delay=delay)
        done = self._handoff(src, dst, payload, nbytes, delay)
        if dup:
            # The wire-level duplicate: same payload, same sequence
            # number, handed off right behind the original (the pair
            # clamp keeps it from overtaking).
            self.stats.duplicated += 1
            if self.tracer.enabled:
                self._trace(tracing.FAULT_DUP, dst, payload)
            self._handoff(src, dst, payload, nbytes, delay)
        return done

    # -- internals -------------------------------------------------------
    def _droppable(self, payload: Any) -> bool:
        if not self.plan.protect_data:
            return True
        # Imported lazily so the DES layer stays importable standalone.
        from repro.core.wire import DataPiece

        return not isinstance(payload, DataPiece)

    def _handoff(
        self, src: Hashable, dst: Hashable, payload: Any, nbytes: int, delay: float
    ) -> Event:
        """Hand the message to the base network after *delay*.

        Release times of the same ``(src, dst)`` pair are clamped
        monotonic, so a held-back message also holds back later
        messages of its pair — fault delays never break per-pair FIFO,
        they only let *other* pairs overtake.
        """
        now = self.sim._now
        pair = (src, dst)
        release = max(now + delay, self._pair_release.get(pair, 0.0))
        self._pair_release[pair] = release
        if release <= now:
            return Network.send(self, src, dst, payload, nbytes)
        done = Event(self.sim)
        timer = self.sim.timeout(release - now)

        def _go(_ev: Event) -> None:
            inner = Network.send(self, src, dst, payload, nbytes)

            def _relay(ev: Event) -> None:
                done.succeed(ev.value)

            inner.callbacks.append(_relay)

        timer.callbacks.append(_go)
        return done

    def _trace(self, kind: str, dst: Hashable, payload: Any, **detail: Any) -> None:
        self.tracer.record(
            kind,
            "net",
            self.sim.now,
            msg=type(payload).__name__,
            seq=(None if getattr(payload, "seq", -1) == -1 else payload.seq),
            dst=str(dst),
            **detail,
        )
