"""SessionSpec and scenario-registry validation."""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan
from repro.scenarios import scenario_names
from repro.serve.scenarios import build_scenario
from repro.serve.spec import (
    SESSION_STATES,
    TERMINAL_STATES,
    SessionSpec,
)


class TestSessionSpec:
    def test_roundtrip(self):
        spec = SessionSpec(
            scenario="demo",
            params={"exports": 12, "seed": 5},
            fault_plan={"drop": 0.2, "seed": 7},
            telemetry_interval=0.01,
            label="mine",
        )
        again = SessionSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_defaults(self):
        spec = SessionSpec.from_dict({})
        assert spec.scenario == "demo"
        assert spec.params == {}
        assert spec.fault_plan is None
        assert spec.label is None
        assert spec.provenance is False

    def test_provenance_round_trip(self):
        spec = SessionSpec.from_dict({"scenario": "demo", "provenance": True})
        assert spec.provenance is True
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    def test_non_bool_provenance_rejected(self):
        with pytest.raises(ValueError, match="provenance must be a boolean"):
            SessionSpec(scenario="demo", provenance="yes")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SessionSpec.from_dict({"scenario": "demo", "bogus": 1})

    def test_bad_fault_plan_rejected_eagerly(self):
        with pytest.raises(ValueError):
            SessionSpec(scenario="demo", fault_plan={"no_such_knob": 1})

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SessionSpec(scenario="demo", telemetry_interval=0.0)

    def test_null_values_dropped(self):
        spec = SessionSpec.from_dict(
            {"scenario": "demo", "fault_plan": None, "label": None}
        )
        assert spec.fault_plan is None and spec.label is None

    def test_states_contract(self):
        assert set(TERMINAL_STATES) < set(SESSION_STATES)
        assert "running" not in TERMINAL_STATES


class TestFaultPlanFromDict:
    def test_builds_frozen_plan(self):
        plan = FaultPlan.from_dict({"drop": 0.3, "seed": 9, "planes": ["ctl"]})
        assert isinstance(plan, FaultPlan)
        assert plan.drop == 0.3
        assert plan.planes == frozenset({"ctl"})

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown fault_plan"):
            FaultPlan.from_dict({"dropp": 0.3})


class TestScenarios:
    def test_registered_names(self):
        names = scenario_names()
        assert {"demo", "crash", "crash_hard"} <= set(names)

    def test_build_applies_spec_knobs(self):
        spec = SessionSpec(
            scenario="demo",
            fault_plan={"drop": 0.1, "seed": 4},
            telemetry_interval=0.02,
        )
        build = build_scenario(spec)
        assert build.options.fault_plan is not None
        assert build.options.fault_plan.drop == 0.1
        assert build.options.telemetry_interval == 0.02

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario(SessionSpec(scenario="nope"))
