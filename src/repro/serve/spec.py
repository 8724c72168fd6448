"""Session specifications and states for the coupling service.

A :class:`SessionSpec` is the *wire-safe* description of one coupled
run: a named scenario from :mod:`repro.scenarios` plus plain-data
parameters.  Specs travel as JSON over the HTTP surface and as pickles
into the worker pool, so they hold no callables, sockets or runtime
objects — the worker process rebuilds the real
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

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.faults.plan import FaultPlan
from repro.util.validation import require_known_keys

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
class SessionSpec:
    """Wire-safe description of one coupled session.

    Attributes
    ----------
    scenario:
        Name of a registered scenario (see
        :func:`repro.scenarios.scenario_names`).
    params:
        Scenario-specific parameters (plain JSON data), checked
        against the scenario's table by :func:`repro.scenarios.build`.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` as a plain dict
        (see :meth:`repro.faults.plan.FaultPlan.from_dict`) — per-session chaos is a
        first-class submission input.
    telemetry_interval:
        Period between ``repro.telemetry/v1`` snapshots of this
        session (virtual seconds on the DES runtime).
    label:
        Optional human-readable name echoed in listings and reports.
    provenance:
        Record the session into a ``repro.prov/v1`` provenance log; the
        log text is retrievable at ``GET /sessions/{id}/provenance``
        once the session is done, turning any served run into a
        bit-exactly replayable artifact.
    """

    scenario: str = "demo"
    params: Mapping[str, Any] = field(default_factory=dict)
    fault_plan: Mapping[str, Any] | None = None
    telemetry_interval: float = 0.05
    label: str | None = None
    provenance: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str) or not self.scenario:
            raise ValueError("scenario must be a non-empty string")
        if not isinstance(self.params, Mapping):
            raise ValueError("params must be a mapping")
        object.__setattr__(self, "params", dict(self.params))
        if self.fault_plan is not None:
            if not isinstance(self.fault_plan, Mapping):
                raise ValueError("fault_plan must be a mapping or null")
            object.__setattr__(self, "fault_plan", dict(self.fault_plan))
            FaultPlan.from_dict(self.fault_plan)  # validate eagerly
        if (
            not isinstance(self.telemetry_interval, (int, float))
            or isinstance(self.telemetry_interval, bool)
            or not self.telemetry_interval > 0
        ):
            raise ValueError("telemetry_interval must be a positive number")
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError("label must be a string or null")
        if not isinstance(self.provenance, bool):
            raise ValueError("provenance must be a boolean")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON body of ``POST /sessions``)."""
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "fault_plan": None if self.fault_plan is None else dict(self.fault_plan),
            "telemetry_interval": self.telemetry_interval,
            "label": self.label,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "SessionSpec":
        """Parse and validate a submitted spec; raises ValueError."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"spec must be an object, got {type(obj).__name__}")
        require_known_keys(
            obj, (f.name for f in dataclasses.fields(cls)), "spec keys"
        )
        kwargs = {k: v for k, v in obj.items() if v is not None or k in ("label",)}
        return cls(**kwargs)
