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
    from repro.core.buffers import BufferManager, BufferStats
    from repro.core.config import (
        ConnectionSpec,
        CouplingConfig,
        ProgramSpec,
        load_config,
        parse_config,
    )
    from repro.core.coupler import CoupledSimulation, ProcessContext, RegionDef
    from repro.core.exceptions import ConfigError, FrameworkError, PropertyViolationError
    from repro.core.exporter import ExportDecision, RegionExportState
    from repro.core.importer import RegionImportState
    from repro.core.live import LiveCoupledSimulation, LiveProcessContext
    from repro.core.properties import OperationLog, check_property1
    from repro.core.rep import ExporterRep, ImporterRep

__all__ = [
    "ConfigError",
    "FrameworkError",
    "PropertyViolationError",
    "ProgramSpec",
    "ConnectionSpec",
    "CouplingConfig",
    "parse_config",
    "load_config",
    "BufferManager",
    "BufferStats",
    "ExportDecision",
    "RegionExportState",
    "ExporterRep",
    "ImporterRep",
    "RegionImportState",
    "CoupledSimulation",
    "ProcessContext",
    "RegionDef",
    "LiveCoupledSimulation",
    "LiveProcessContext",
    "OperationLog",
    "check_property1",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.buffers": ("BufferManager", "BufferStats"),
        "repro.core.config": (
            "ConnectionSpec",
            "CouplingConfig",
            "ProgramSpec",
            "load_config",
            "parse_config",
        ),
        "repro.core.coupler": ("CoupledSimulation", "ProcessContext", "RegionDef"),
        "repro.core.exceptions": ("ConfigError", "FrameworkError", "PropertyViolationError"),
        "repro.core.exporter": ("ExportDecision", "RegionExportState"),
        "repro.core.importer": ("RegionImportState",),
        "repro.core.live": ("LiveCoupledSimulation", "LiveProcessContext"),
        "repro.core.properties": ("OperationLog", "check_property1"),
        "repro.core.rep": ("ExporterRep", "ImporterRep"),
    },
)
