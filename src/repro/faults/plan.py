"""Declarative, seeded description of message chaos.

A :class:`FaultPlan` says *what* may happen to framework messages
(drop, duplication, delay, cross-pair reordering), *where* (which
control planes) and *how reproducibly* (a root seed).  The plan itself
is inert data; :class:`repro.faults.network.FaultyNetwork` executes it
on the DES network and
:class:`repro.faults.injectors.LiveFaultInjector` on the threaded
runtime's mailboxes.

Determinism contract
--------------------
For every send whose destination plane is named by the plan (while the
plan's time window is active), the executing layer draws a *fixed
number* of random values from a per-plane named stream derived from
``seed``.  Decisions therefore depend only on the plan and on the
order of sends per plane — two runs of the same scenario with the same
plan inject byte-identical chaos, which is what makes chaos runs
debuggable and the determinism test possible.

Ordering contract
-----------------
Faults never violate per-``(src, dst)`` FIFO: a delayed message holds
back later messages of the same endpoint pair (like a TCP connection
would), so "reordering" means messages of *different* pairs overtaking
each other — answers overtaking requests of other ranks, responses of
different ranks interleaving.  This matches real transports and is
what the protocol's sequence numbers and retransmissions are designed
for; arbitrary per-pair reordering is not modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Hashable, Mapping

from repro.util.validation import require, require_known_keys

#: The framework planes a plan may target (see repro.core.coupler):
#: ``ctl`` carries forwarded requests and buddy-help, ``cpl`` carries
#: import requests, answers and data pieces, ``rep`` carries the
#: rep-to-rep protocol.
FRAMEWORK_PLANES = frozenset({"ctl", "cpl", "rep"})


def classify_plane(address: Hashable) -> str | None:
    """The framework plane of a network *address*, or ``None``.

    Framework addresses are tuples: ``("ctl", program, rank)``,
    ``("cpl", program, rank)`` and ``("rep", program)``.  Application
    (vmpi) addresses ``(program, rank)`` and anything else classify as
    ``None`` — the fault layer never touches user point-to-point or
    collective traffic, whose semantics the verifier already guards.
    """
    if isinstance(address, tuple):
        if len(address) == 3 and address[0] in ("ctl", "cpl"):
            return str(address[0])
        if len(address) == 2 and address[0] == "rep" and isinstance(address[1], str):
            return "rep"
    return None


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible chaos configuration.

    Attributes
    ----------
    seed:
        Root seed of the per-plane fault streams.
    drop:
        Probability that an eligible message is silently lost.
    dup:
        Probability that an eligible message is delivered twice (the
        wire-level duplicate shares the original's sequence number).
    delay_jitter:
        Upper bound of a uniform extra delivery delay (virtual seconds
        on the DES network; scaled wall seconds on the live runtime).
    reorder:
        Probability that an eligible message is additionally held back
        by up to :meth:`effective_reorder_delay`, letting messages of
        *other* endpoint pairs overtake it.
    reorder_delay:
        Upper bound of the reorder hold-back; ``None`` derives
        ``4 * (latency + delay_jitter)`` from the executing network.
    planes:
        Which framework planes are eligible (subset of
        :data:`FRAMEWORK_PLANES`).
    protect_data:
        Exempt :class:`~repro.core.wire.DataPiece` payloads from
        *drops* (duplication and delay still apply).  Default on: data
        pieces are sent exactly once per match, so dropping them models
        payload loss the control protocol alone cannot repair (see
        ``docs/resilience.md``).
    start, stop:
        Virtual-time window in which the plan is active; sends outside
        it pass through untouched (and draw nothing).
    """

    seed: int = 0
    drop: float = 0.0
    dup: float = 0.0
    delay_jitter: float = 0.0
    reorder: float = 0.0
    reorder_delay: float | None = None
    planes: frozenset[str] = FRAMEWORK_PLANES
    protect_data: bool = True
    start: float = 0.0
    stop: float = math.inf

    def __post_init__(self) -> None:
        for name in ("drop", "dup", "reorder"):
            p = getattr(self, name)
            require(0.0 <= p <= 1.0, f"{name} must be a probability in [0, 1], got {p}")
        require(self.delay_jitter >= 0.0, "delay_jitter must be >= 0")
        if self.reorder_delay is not None:
            require(self.reorder_delay >= 0.0, "reorder_delay must be >= 0")
        require(self.start <= self.stop, "fault window start must not exceed stop")
        planes = frozenset(self.planes)
        unknown = planes - FRAMEWORK_PLANES
        require(
            not unknown,
            f"unknown fault planes {sorted(unknown)}; valid planes are "
            f"{sorted(FRAMEWORK_PLANES)}",
        )
        object.__setattr__(self, "planes", planes)

    # -- queries ---------------------------------------------------------
    @property
    def is_noop(self) -> bool:
        """Whether this plan can never alter a message."""
        return (
            self.drop == 0.0
            and self.dup == 0.0
            and self.delay_jitter == 0.0
            and self.reorder == 0.0
        ) or not self.planes

    def eligible(self, plane: str | None) -> bool:
        """Whether messages to *plane* are subject to this plan."""
        return plane is not None and plane in self.planes

    def active(self, now: float) -> bool:
        """Whether the plan's time window covers the instant *now*."""
        return self.start <= now < self.stop

    def effective_reorder_delay(self, latency: float) -> float:
        """The reorder hold-back bound, derived when not set explicitly.

        The default, ``4 * (latency + delay_jitter)``, is long enough
        that a held-back message is realistically overtaken by traffic
        of other endpoint pairs, yet short relative to the
        retransmission timeout derived from the same quantities.
        """
        if self.reorder_delay is not None:
            return self.reorder_delay
        return 4.0 * (max(latency, 0.0) + self.delay_jitter)

    def describe(self) -> dict[str, Any]:
        """A plain-dict summary (for reports and JSON dumps)."""
        return {
            "seed": self.seed,
            "drop": self.drop,
            "dup": self.dup,
            "delay_jitter": self.delay_jitter,
            "reorder": self.reorder,
            "reorder_delay": self.reorder_delay,
            "planes": sorted(self.planes),
            "protect_data": self.protect_data,
            "start": self.start,
            "stop": self.stop,
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`describe` (``planes`` as a list).

        Accepts exactly the plan's own field names and raises
        :class:`ValueError` naming any other key, so a typo in a
        submitted spec or an ``--edit`` file fails the request, not the
        run.
        """
        require_known_keys(obj, (f.name for f in fields(cls)), "fault_plan keys")
        kwargs = dict(obj)
        planes = kwargs.get("planes")
        if planes is not None:
            kwargs["planes"] = frozenset(str(p) for p in planes)
        return cls(**kwargs)
