"""From a wire spec to a run: the service's use of :mod:`repro.scenarios`.

Arbitrary ``main`` callables cannot cross the wire, so a session names
a registered scenario plus plain-JSON parameters; the server builds it
once at submit to refuse a bad spec, and the worker process rebuilds
the run from the spec alone.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faults.plan import FaultPlan
from repro.scenarios import ScenarioBuild, build
from repro.serve.spec import SessionSpec

__all__ = ["build_scenario"]


def build_scenario(spec: SessionSpec) -> ScenarioBuild:
    """Build the run for *spec*: scenario + fault plan + telemetry knobs."""
    built = build(spec.scenario, spec.params)
    options = replace(built.options, telemetry_interval=spec.telemetry_interval)
    if spec.fault_plan is not None:
        options = replace(options, fault_plan=FaultPlan.from_dict(spec.fault_plan))
    return replace(built, options=options)
