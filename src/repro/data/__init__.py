"""Distributed data descriptors and MxN redistribution.

This package is the reproduction's stand-in for the InterComm /
Meta-Chaos data-movement substrate the paper builds on: it describes
how a global index space is partitioned across the processes of a
parallel program and computes the *communication schedule* — which
(source rank, destination rank) pairs exchange which rectangular
pieces — for transferring a region between two differently-decomposed
programs (the "MxN problem" of the CCA working group cited by the
paper).

Layers:

* :mod:`repro.data.region` -- n-dimensional rectangular index regions
  with intersection/containment algebra.
* :mod:`repro.data.decomposition` -- block and block-cyclic partitions
  of a global shape over a process grid.
* :mod:`repro.data.darray` -- a distributed array: a decomposition plus
  per-rank local NumPy blocks.
* :mod:`repro.data.schedule` -- MxN communication schedules from
  pairwise region intersection.
* :mod:`repro.data.redistribute` -- executing a schedule (pure
  in-memory form plus a form running over ``vmpi`` communicators).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.data.darray import DistributedArray
    from repro.data.decomposition import BlockDecomposition
    from repro.data.region import RectRegion
    from repro.data.schedule import CommSchedule

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.data.darray": ("DistributedArray",),
        "repro.data.decomposition": ("BlockDecomposition",),
        "repro.data.region": ("RectRegion",),
        "repro.data.schedule": ("CommSchedule",),
    },
)
