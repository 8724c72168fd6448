"""Discrete-event simulation (DES) kernel.

The reproduction runs the coupled-simulation framework on a virtual
clock so that the timing phenomena the paper measures (per-iteration
export times, catch-up dynamics, congestion effects) are deterministic
and explainable.  The kernel is a compact generator-based simulator in
the style of SimPy, cut to what the runtimes use:

* :class:`Simulator` owns the event heap, two same-instant lanes and
  the virtual clock.
* :class:`Event` is a one-shot occurrence with callbacks and a value;
  :class:`AnyOf` fires with the first of several.
* :class:`Process` wraps a Python generator; the generator *yields*
  events to wait on.
* :class:`Store` is an unbounded FIFO with blocking (and matched)
  ``get``, used as process mailboxes.
* :class:`Network` models message delivery with latency + bandwidth and
  an optional congestion feedback supplied by the cost models.

No wall-clock time is ever consulted; runs with equal seeds are
bit-identical.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.des.channel import Network
    from repro.des.core import (
        AnyOf,
        Event,
        PriorityLevel,
        Process,
        SimulationError,
        Simulator,
    )
    from repro.des.store import Store

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.des.channel": ("Network",),
        "repro.des.core": (
            "AnyOf",
            "Event",
            "PriorityLevel",
            "Process",
            "SimulationError",
            "Simulator",
        ),
        "repro.des.store": ("Store",),
    },
)
