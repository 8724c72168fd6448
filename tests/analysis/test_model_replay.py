"""Counterexample replay: schedules re-execute deterministically.

Every M-rule counterexample the checker produces must replay through
the shared protocol driver, and two replays of the same schedule must
produce byte-identical ``repro.causal/v1`` DAG exports — the schedule
fully determines the run.
"""

import dataclasses

import pytest

from repro.analysis.model import SCHEMA, ModelConfig, replay_schedule
from repro.faults.plan import FaultPlan
from repro.scenarios import build


def _all_counterexamples(*suites):
    out = []
    for suite in suites:
        out.extend(suite.counterexamples)
    return out


class TestReplayDeterminism:
    def test_every_counterexample_replays_byte_identically(
        self, no_dedup_suite, no_answer_cache_suite, no_must_send_suite
    ):
        cexs = _all_counterexamples(
            no_dedup_suite, no_answer_cache_suite, no_must_send_suite
        )
        assert {c["rule"] for c in cexs} == {"M203", "M202", "M206"}
        for cex in cexs:
            first = replay_schedule(cex)
            second = replay_schedule(cex)
            assert first.report.to_json() == second.report.to_json()
            assert first.error == second.error
            assert first.executed == second.executed

    def test_replay_emits_causal_schema(self, no_answer_cache_suite):
        cex = no_answer_cache_suite.counterexamples[0]
        payload = replay_schedule(cex).to_payload()
        assert payload["schema"] == SCHEMA
        assert payload["kind"] == "replay"
        assert payload["causal"]["schema"] == "repro.causal/v1"
        assert payload["causal"]["spans"]


class TestReplayReproducesViolations:
    def test_m203_schedule_raises_through_real_code(self, no_dedup_suite):
        cexs = [c for c in no_dedup_suite.counterexamples if c["rule"] == "M203"]
        result = replay_schedule(cexs[0])
        assert result.error is not None
        assert "timestamps must increase" in result.error

    def test_m202_schedule_ends_unresolved(self, no_answer_cache_suite):
        cexs = [
            c for c in no_answer_cache_suite.counterexamples if c["rule"] == "M202"
        ]
        result = replay_schedule(cexs[0])
        # Livelock evidence is the DAG ending without a resolution,
        # not an exception.
        assert result.error is None
        assert result.executed == len(cexs[0]["actions"])
        assert not result.report.resolutions

    def test_m206_schedule_shows_the_skip(self, no_must_send_suite):
        """Every import resolves; the evidence is the buddy-skip span on
        the matched timestamp."""
        result = replay_schedule(no_must_send_suite.counterexamples[0])
        assert result.error is None
        assert len(result.report.resolutions) == 2
        skips = [s for s in result.report.spans if s.name == "buddy_skip"]
        assert [(s.who, s.attrs["export_ts"]) for s in skips] == [("E.p1", 3.5)]


class TestNoDrift:
    def test_replayed_spans_carry_every_runtime_attribute(
        self, no_dedup_suite, no_answer_cache_suite
    ):
        """A replayed span has every attribute key that all spans of its
        name carry in a DES run: both come from the same driver code."""
        # The demo under faults: its drops make the run retransmit,
        # like the M202 schedule does.
        des_run = build("demo", {"seed": 5}).run(
            causal_trace=True,
            fault_plan=FaultPlan(seed=5, drop=0.1, dup=0.05, delay_jitter=2e-4),
        )
        always: dict[str, set[str]] = {}
        for span in des_run.causal.spans:
            keys = set(span.attrs)
            always[span.name] = always.get(span.name, keys) & keys
        assert {"connection", "request"} <= always["match"]
        replayed = [
            span
            for cex in _all_counterexamples(no_dedup_suite, no_answer_cache_suite)
            for span in replay_schedule(cex).report.spans
        ]
        assert {s.name for s in replayed} >= {"request", "match", "aggregate"}
        for span in replayed:
            assert always[span.name] <= set(span.attrs), span


class TestScheduleValidation:
    def test_config_round_trips(self, no_dedup_suite):
        cex = no_dedup_suite.counterexamples[0]
        cfg = ModelConfig.from_dict(cex["config"])
        assert cfg.describe() == cex["config"]
        # Every field survives, so a counterexample found under another
        # engine replays under it.
        legacy = dataclasses.replace(cfg, match_backend="legacy")
        assert ModelConfig.from_dict(legacy.describe()) == legacy
        with pytest.raises(ValueError, match=r"unknown model config keys \['regoin'\]"):
            ModelConfig.from_dict({**cex["config"], "regoin": "d"})

    def test_bad_schema_rejected(self):
        with pytest.raises(Exception, match="schedule"):
            replay_schedule({"schema": "nope", "kind": "counterexample"})

    def test_bad_kind_rejected(self, no_dedup_suite):
        cex = dict(no_dedup_suite.counterexamples[0])
        cex["kind"] = "replay"
        with pytest.raises(Exception, match="counterexample"):
            replay_schedule(cex)
