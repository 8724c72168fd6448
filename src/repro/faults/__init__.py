"""Deterministic fault injection and protocol-resilience tooling.

The coupling protocol (:mod:`repro.core`) is proved correct under
Property 1 *plus* an implicit assumption of reliable, ordered,
eventually-delivered control messages.  This package removes that
assumption in a controlled way:

* :class:`FaultPlan` — a seeded, declarative description of message
  chaos (drop / duplication / delay / cross-pair reordering) applied to
  the framework's control planes;
* :class:`FaultyNetwork` — a drop-in :class:`repro.des.Network`
  subclass that executes a plan deterministically;
* :mod:`repro.faults.injectors` — per-process stall / slowdown / crash
  wrappers for DES generator mains and a mailbox-level injector for the
  live threaded runtime.

The resilience mechanisms that survive the chaos (sequence numbers,
request retransmission, exporter-rep answer caching, idempotent reps)
live with the protocol itself in :mod:`repro.core`; see
``docs/resilience.md`` for the guarantees.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.injectors import LiveFaultInjector, ProcessFaultSpec, inject_main
    from repro.faults.network import FaultyNetwork
    from repro.faults.plan import FaultPlan, classify_plane

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.faults.injectors": ("LiveFaultInjector", "ProcessFaultSpec", "inject_main"),
        "repro.faults.network": ("FaultyNetwork",),
        "repro.faults.plan": ("FaultPlan", "classify_plane"),
    },
)
