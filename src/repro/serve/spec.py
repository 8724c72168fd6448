"""Session specifications and states for the coupling service.

A :class:`SessionSpec` is the *wire-safe* description of one coupled
run: a :class:`repro.scenarios.Cell` (a named scenario, plain-data
parameters and a fault plan — exactly one ``repro run`` grid cell) plus
the three fields only serving has.  Specs travel as JSON over the HTTP
surface and into the worker pool, so they hold no callables, sockets or
runtime objects — the worker process rebuilds the real
:class:`~repro.api.options.RunOptions` and :class:`~repro.api.Program`
declarations from the spec alone.  That restriction is what makes a
session submittable from another process (or, later, another host)
without a global coordinator, mirroring how the paper's collective
semantics let exporter and importer programs couple through nothing
but matching declarations.

Session lifecycle::

    queued ──► running ──► done
        │          │  └──► failed
        └──────────┴─────► cancelled

``queued``   accepted by the registry, waiting for a pool worker;
``running``  a worker process picked it up (it reported its pid);
``done``     the run finished and its ``repro.report/v1`` payload is
             retrievable;
``failed``   the run raised (or its worker died);
``cancelled`` removed before it started, or abandoned during drain —
             always with a recorded reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.scenarios import Cell, ScenarioBuild
from repro.util.validation import require

__all__ = [
    "SESSION_STATES",
    "TERMINAL_STATES",
    "SERVE_SCHEMA",
    "SessionSpec",
]

#: Schema tag stamped on every control-surface payload of the server.
SERVE_SCHEMA = "repro.serve/v1"

#: Every state a session can be in, in lifecycle order.
SESSION_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a session never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class SessionSpec(Cell):
    """One served session: a :class:`~repro.scenarios.Cell` (``scenario``
    defaults to ``"demo"``) plus what only serving has.

    Attributes
    ----------
    telemetry_interval:
        Period between ``repro.telemetry/v1`` snapshots of this
        session (virtual seconds on the DES runtime); the snapshots
        move nothing in the session's row.
    label:
        Optional human-readable name echoed in listings, and the name
        of the session's report row (the cell's name when unset).
    provenance:
        Record the session into a ``repro.prov/v2`` provenance log; the
        log text is retrievable at ``GET /sessions/{id}/provenance``
        once the session is done, turning any served run into a
        bit-exactly replayable artifact.
    """

    scenario: str = "demo"
    telemetry_interval: float = 0.05
    label: str | None = None
    provenance: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        interval = self.telemetry_interval
        require(isinstance(interval, (int, float)) and not isinstance(interval, bool)
                and 0 < interval < math.inf, "telemetry_interval must be a finite number > 0")
        require(self.label is None or isinstance(self.label, str),
                "label must be a string or null")
        require(isinstance(self.provenance, bool), "provenance must be a boolean")

    def build(self) -> ScenarioBuild:
        """The cell's build, watched every :attr:`telemetry_interval`."""
        built = super().build()
        options = replace(built.options, telemetry_interval=self.telemetry_interval)
        return replace(built, options=options)
