"""Tests for the control-plane model checker (``repro.analysis.model``).

The acceptance bar: exhaustively explore a bounded 2-program ×
2-process configuration through the *real* importer/exporter/rep/wire
implementations and the shared ``ProtocolDriver`` around them, visiting
at least 10^4 distinct states, with zero findings on the unmutated
protocol — and a finding as soon as that shared code is broken.
"""

import dataclasses
import sys

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
#: (clean + drop-rep + buddy worlds; ~30k summed distinct states in a
#: few seconds — the full default suite is exercised by ``repro verify``).
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
        } == {
            "clean": (7_196, 17_510),
            "drop-rep": (9_752, 21_977),
            "buddy": (12_783, 32_333),
        }

    def test_world_shape_is_two_by_two(self):
        assert FAST_BASE.nimp == 2 and FAST_BASE.nexp == 2
        worlds = dict(directed_worlds(FAST_BASE))
        assert list(worlds) == ["clean", "drop-rep", "buddy"]
        assert worlds["clean"].drop_budget == 0
        assert worlds["drop-rep"].drop_budget == 1

    def test_payload_schema(self, fast_suite):
        payload = fast_suite.to_payload()
        assert payload["schema"] == SCHEMA
        assert payload["mode"] == "model-suite"
        assert payload["stats"]["states"] == fast_suite.total_states
        assert payload["stats"]["complete"] is True
        assert [w["name"] for w in payload["worlds"]] == ["clean", "drop-rep", "buddy"]
        # The state count the CLI reports is the one the acceptance
        # criterion quotes: distinct states actually visited.
        assert payload["stats"]["states"] >= 10_000


class TestBuddyWorld:
    """The one fault-free world where a buddy answer makes a rank skip an
    object *inside* the request's acceptable region."""

    def test_buddy_enabled_skips_are_taken(self, fast_suite):
        skips = {name: r.stats["buddy_skips"] for name, r in fast_suite.worlds}
        assert skips == {"clean": 0, "drop-rep": 0, "buddy": 269}

    def test_no_skip_without_buddy_help(self):
        buddy = dict(directed_worlds(FAST_BASE))["buddy"]
        result = check(dataclasses.replace(buddy, buddy_help=False))
        assert result.clean and result.stats["complete"]
        assert result.stats["buddy_skips"] == 0
        assert (result.stats["states"], result.stats["transitions"]) == (9_417, 22_268)

    def test_script_follows_the_first_requests_region(self):
        """Shifted stamps (what ``perf/workloads/verify.py`` feeds) keep
        two exports strictly inside the region; no region, no world."""
        assert dict(directed_worlds())["buddy"].exports == (1.5, 3.6, 3.8)
        shifted = ModelConfig(requests=(21.0,), exports=(18.5, 20.5))
        exports = dict(directed_worlds(shifted))["buddy"].exports
        assert exports[0] == 18.5 and len(exports) == 3
        assert 20.5 < exports[1] < exports[2] < 21.0
        for base in (
            ModelConfig(buddy_help=False),
            ModelConfig(policy="EXACT", requests=(3.5,)),
        ):
            assert "buddy" not in dict(directed_worlds(base))


class TestCheckerPathCost:
    """A count, not a timing: interpreter calls per explored transition.

    A model state is copy-on-write per component, so a transition
    copies, re-encodes and re-checks the one component its action
    writes.  Wall time cannot be asserted in a unit test; the number of
    calls the interpreter makes can (``TestExportPathCost`` and
    ``TestMatchPathCost`` do the same for their paths) — it repeats
    exactly and moves only when the per-transition path grows.
    """

    #: ≈10% above the measured 110.0 (deep-copying and re-encoding the
    #: whole state on every transition measured 286.4 on the same world).
    CEILING = 120.0

    def test_calls_per_transition_stay_under_the_ceiling(self):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        config = dict(directed_worlds())["clean"]
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = check(config)
        finally:
            sys.setprofile(previous)
        transitions = result.stats["transitions"]
        assert transitions == 17_510
        assert calls / transitions < self.CEILING, (
            f"{calls} calls for {transitions} transitions = "
            f"{calls / transitions:.1f} per transition: the checker's "
            "per-transition path grew (see docs/static_analysis.md, Verification)"
        )


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
