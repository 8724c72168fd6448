"""Tests for the control-plane model checker (``repro.analysis.model``).

The acceptance bar: exhaustively explore a bounded 2-program ×
2-process configuration through the *real* importer/exporter/rep/wire
implementations and the shared ``ProtocolDriver`` around them, visiting
at least 10^4 distinct states, with zero findings on the unmutated
protocol — and a finding as soon as that shared code is broken.
"""

import dataclasses

import pytest

from repro.analysis.model import (
    SCHEMA,
    ModelConfig,
    check,
    check_suite,
    directed_worlds,
    plane_of_channel,
)
from repro.core.protocol import ProtocolDriver
from repro.core.rep import DeliverAnswer

#: 2-program × 2-process world, faults directed at the rep plane only
#: (clean + drop-rep worlds; ~16k summed distinct states in a few
#: seconds — the full default suite is exercised by ``repro verify``).
FAST_BASE = ModelConfig(dup_budget=0, crash_budget=0, fault_planes=("rep",))

#: Minimal world for the POR-equality checks.
TINY = ModelConfig(
    requests=(2.0,),
    exports=(1.5,),
    drop_budget=0,
    dup_budget=0,
    crash_budget=0,
    retransmit_budget=0,
)


@pytest.fixture(scope="module")
def fast_suite():
    return check_suite(FAST_BASE)


class TestExhaustiveExploration:
    def test_clean_protocol_has_zero_findings(self, fast_suite):
        assert fast_suite.clean
        assert fast_suite.report.findings == []
        assert fast_suite.counterexamples == []

    def test_exploration_is_exhaustive_and_large(self, fast_suite):
        assert fast_suite.complete  # no world hit the state cap
        assert fast_suite.total_states >= 10_000
        # Exact: any change to the glue around the state machines that
        # alters the reachable space (a send more or less, another
        # order) moves these.
        assert {
            name: (r.stats["states"], r.stats["transitions"])
            for name, r in fast_suite.worlds
        } == {"clean": (7_196, 17_510), "drop-rep": (9_752, 21_977)}

    def test_world_shape_is_two_by_two(self):
        assert FAST_BASE.nimp == 2 and FAST_BASE.nexp == 2
        worlds = dict(directed_worlds(FAST_BASE))
        assert set(worlds) == {"clean", "drop-rep"}
        assert worlds["clean"].drop_budget == 0
        assert worlds["drop-rep"].drop_budget == 1

    def test_payload_schema(self, fast_suite):
        payload = fast_suite.to_payload()
        assert payload["schema"] == SCHEMA
        assert payload["mode"] == "model-suite"
        assert payload["stats"]["states"] == fast_suite.total_states
        assert payload["stats"]["complete"] is True
        assert [w["name"] for w in payload["worlds"]] == ["clean", "drop-rep"]
        # The state count the CLI reports is the one the acceptance
        # criterion quotes: distinct states actually visited.
        assert payload["stats"]["states"] >= 10_000


class TestSharedDriver:
    def test_defect_in_the_shared_driver_is_found(self, monkeypatch):
        """The checker runs ``ProtocolDriver``, not a copy of it: losing
        rank 1's answer there deadlocks the fault-free world (M201)."""
        execute = ProtocolDriver._execute_directive

        def drop_answer_to_rank_1(self, prog, d, cause=None):
            if not (isinstance(d, DeliverAnswer) and d.rank == 1):
                execute(self, prog, d, cause)

        monkeypatch.setattr(
            ProtocolDriver, "_execute_directive", drop_answer_to_rank_1
        )
        strict = ModelConfig(
            mode="strict", drop_budget=0, dup_budget=0, crash_budget=0,
            retransmit_budget=0,
        )
        result = check(strict)
        assert [f.rule for f in result.report.findings] == ["M201"]
        assert "I.p1@4" in result.report.findings[0].message


class TestPartialOrderReduction:
    def test_por_visits_every_reachable_state(self):
        """Sleep sets prune transitions, never states."""
        with_por = check(TINY, por=True)
        without = check(TINY, por=False)
        assert with_por.stats["states"] == without.stats["states"]
        assert with_por.stats["terminals"] == without.stats["terminals"]
        assert with_por.stats["transitions"] <= without.stats["transitions"]
        assert with_por.stats["sleep_skips"] > 0

    def test_truncated_run_is_flagged(self):
        result = check(TINY, max_states=10)
        assert not result.stats["complete"]
        assert result.stats["states"] == 10


class TestConfigValidation:
    def test_planes_are_validated(self):
        with pytest.raises(Exception, match="fault plane"):
            ModelConfig(fault_planes=("bogus",))

    def test_strict_mode_rejects_drops(self):
        with pytest.raises(Exception):
            ModelConfig(mode="strict", drop_budget=1)

    def test_describe_round_trips_planes(self):
        cfg = dataclasses.replace(FAST_BASE, fault_planes=("cpl",))
        assert tuple(cfg.describe()["fault_planes"]) == ("cpl",)

    def test_plane_of_channel(self):
        assert plane_of_channel("I0", "IR") == "cpl"
        assert plane_of_channel("IR", "ER") == "rep"
        assert plane_of_channel("ER", "E1") == "ctl"
