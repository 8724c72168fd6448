"""Collective-semantics verification (static and online).

The paper's buddy-help optimization is sound only because of
Property 1 — every process of a program issues the same collective
export/import sequence — and because the rep's aggregate of per-process
responses stays within the five legal cases (Section 4).  The runtime
detects violations *reactively*; this package proves (or refutes)
collective discipline *proactively*, in three coordinated passes:

* :mod:`repro.analysis.graph` — static analysis of a coupling
  configuration without running it (dangling endpoints, tolerance /
  cadence incompatibilities, import-request deadlock cycles, dead
  buddy-help connections);
* :mod:`repro.analysis.astlint` — an ``ast``-based lint of user
  coupling programs for *rank-dependent* collective operations, the
  static shadow of Property 1;
* :mod:`repro.analysis.sanitizer` — an opt-in fold on a run's event
  spine (either runtime) that turns silent protocol corruption into
  immediate, located failures.

Beyond those source-level passes, the *verification* layer reasons
about executions (exposed as ``repro verify``):

* :mod:`repro.analysis.model` — an explicit-state model checker that
  exhaustively explores every bounded message interleaving and fault
  action of a two-program world through the real protocol
  implementations (rules ``M2xx``), with replayable counterexample
  schedules;
* :mod:`repro.analysis.races` — a vector-clock happens-before race
  detector for the threaded live runtime's shared state (rules
  ``R2xx``), attached via ``RunOptions(race_monitor=...)``.

All passes share the findings model of
:mod:`repro.analysis.report` (severity, rule code, locus, paper-section
citation) with text and JSON renderers, and are exposed on the command
line as ``repro lint`` and ``repro verify``.
"""

from repro.analysis.report import Finding, Report, Severity
from repro.analysis.graph import analyze_config, analyze_config_text
from repro.analysis.astlint import lint_path, lint_source
from repro.analysis.sanitizer import ProtocolSanitizer, SanitizerError
from repro.analysis.model import (
    ModelConfig,
    check,
    check_suite,
    mutation_config,
    replay_schedule,
)
from repro.analysis.races import RaceMonitor, RaceRecord

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "analyze_config",
    "analyze_config_text",
    "lint_path",
    "lint_source",
    "ProtocolSanitizer",
    "SanitizerError",
    "ModelConfig",
    "check",
    "check_suite",
    "mutation_config",
    "replay_schedule",
    "RaceMonitor",
    "RaceRecord",
]
