"""Discrete-event simulation (DES) kernel.

The reproduction runs the coupled-simulation framework on a virtual
clock so that the timing phenomena the paper measures (per-iteration
export times, catch-up dynamics, congestion effects) are deterministic
and explainable.  The kernel is a compact generator-based simulator in
the style of SimPy:

* :class:`Simulator` owns the event heap and the virtual clock.
* :class:`Event` is a one-shot occurrence with callbacks and a value.
* :class:`Process` wraps a Python generator; the generator *yields*
  events to wait on and may be interrupted.
* :class:`Store` is a FIFO buffer with blocking ``get``/``put`` used as
  process mailboxes.
* :class:`Channel` models message delivery with latency + bandwidth and
  an optional congestion feedback supplied by the cost models.

No wall-clock time is ever consulted; runs with equal seeds are
bit-identical.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.des.channel import Channel, Network
    from repro.des.core import (
        AllOf,
        AnyOf,
        Event,
        Interrupt,
        PriorityLevel,
        Process,
        SimulationError,
        Simulator,
    )
    from repro.des.store import FilterStore, Store, StoreFullError

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.des.channel": ("Channel", "Network"),
        "repro.des.core": (
            "AllOf",
            "AnyOf",
            "Event",
            "Interrupt",
            "PriorityLevel",
            "Process",
            "SimulationError",
            "Simulator",
        ),
        "repro.des.store": ("FilterStore", "Store", "StoreFullError"),
    },
)
