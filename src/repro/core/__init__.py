"""The coupling framework: the paper's primary contribution.

This package implements the loosely coupled simulation framework of
Wu & Sussman (the InterComm temporal-consistency runtime) together
with the paper's *buddy-help* optimization:

* :mod:`repro.core.config` -- the framework-level configuration file
  (paper Figure 2): program deployment lines plus
  ``exporter.region importer.region POLICY tolerance`` connections.
* :mod:`repro.core.buffers` -- the per-process framework buffer with
  the unnecessary-buffering accounting of Equations (1)-(2).
* :mod:`repro.core.exporter` -- the export-side state machine: buffer /
  skip / send decisions, eviction thresholds, buddy-help knowledge.
* :mod:`repro.core.rep` -- the representative: request fan-out,
  five-case response aggregation, finalization on first definitive
  response, buddy-help dissemination, Property-1 violation detection.
* :mod:`repro.core.importer` -- the import-side state machine.
* :mod:`repro.core.coupler` -- wiring it all into a runnable coupled
  simulation on the DES runtime (programs, agents, reps, data plane).
* :mod:`repro.core.properties` -- offline Property-1 conformance
  checking over recorded operation logs.

Public entry point: :class:`repro.core.coupler.CoupledSimulation`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.coupler import RegionDef

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.coupler": ("RegionDef",),
    },
)
