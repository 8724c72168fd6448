"""Causal tracing: happens-before DAG, critical paths, stage sums.

The acceptance bar from the paper's perspective: every resolved import
in the buddy-help demo yields a causal chain ``request -> ... ->
complete`` whose per-stage attribution telescopes *exactly* to the
observed resolution latency, and every buddy-enabled skip carries the
lead time the answer arrived ahead of the local decision.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.trace import (
    STAGE_OF,
    CausalLog,
    CausalReport,
    TraceContext,
    build_causal_report,
)
from repro.scenarios import build
from repro.util.validation import ValidationError

GOLDEN = Path(__file__).parents[1] / "golden" / "causal_demo.json"


class TestCausalLog:
    def test_trace_ids_are_first_use_ordered(self):
        log = CausalLog()
        a = log.trace_for("c0", 20.0)
        b = log.trace_for("c0", 40.0)
        assert (a, b) == (0, 1)
        assert log.trace_for("c0", 20.0) == a
        assert log.trace_key(b) == ("c0", 40.0)
        assert log.trace_key(99) is None

    def test_record_returns_context_and_dedupes_parents(self):
        log = CausalLog()
        tid = log.trace_for("c0", 20.0)
        root = log.record(tid, "request", "U.p0", 1.0)
        assert root == TraceContext(trace_id=tid, span_id=0)
        child = log.record(tid, "match", "F.p0", 2.0, parents=(0, 0, 0))
        assert log.spans[child.span_id].parents == (0,)
        assert len(log) == 2


class TestDemoCausalReport:
    def test_every_resolution_has_full_chain(self, causal_result):
        report = causal_result.causal
        assert isinstance(report, CausalReport)
        # 2 U ranks x 2 requests, all resolved.
        assert len(report.resolutions) == 4
        for r in report.resolutions:
            assert r.chain[0] == "request"
            assert r.chain[-1] == "complete"
            for name in ("rep_forward", "fan_out", "match", "aggregate", "answer"):
                assert name in r.chain, (r.who, r.request_ts, r.chain)

    def test_stage_sums_telescope_to_latency(self, causal_result):
        for r in causal_result.causal.resolutions:
            assert r.latency > 0
            assert sum(r.stages.values()) == pytest.approx(r.latency, abs=1e-12)
            assert set(r.stages) <= set(STAGE_OF.values()) | {"wire_transit"}

    def test_aggregate_cases_match_protocol(self, causal_result):
        by_request = {}
        for r in causal_result.causal.resolutions:
            by_request.setdefault(r.request_ts, set()).add(r.case)
        # At 20 the slow F rank is still behind (mixed case); by 40 the
        # buddy answer let it catch up and all ranks match.
        assert by_request[20.0] == {"pending_match"}
        assert by_request[40.0] == {"all_match"}

    def test_buddy_notify_rides_mixed_case_traces(self, causal_result):
        report = causal_result.causal
        notify = [s for s in report.spans if s.name == "buddy_notify"]
        recv = [s for s in report.spans if s.name == "buddy_recv"]
        assert notify and recv
        # Notifications chain off the mixed-case aggregates.
        agg_by_id = {
            s.span_id: s for s in report.spans if s.name == "aggregate"
        }
        for s in notify:
            assert any(p in agg_by_id for p in s.parents)

    def test_buddy_skip_lead_per_skipped_window(self, causal_result):
        report = causal_result.causal
        assert len(report.buddy_skips) == 4
        sim = causal_result.simulation
        slow = sim._programs["F"].contexts[1]
        recorded = {
            (ts, req): lead for ts, req, lead in slow.stats.buddy_lead_times
        }
        assert len(recorded) == 4
        for skip in report.buddy_skips:
            assert skip.who == "F.p1"
            assert skip.lead > 0
            assert recorded[(skip.export_ts, skip.request_ts)] == pytest.approx(
                skip.lead
            )

    def test_edges_and_trace_views(self, causal_result):
        report = causal_result.causal
        ids = {s.span_id for s in report.spans}
        for parent, child in report.edges():
            assert parent in ids and child in ids
            assert parent < child  # record order respects happens-before
        for tid in report.trace_ids:
            spans = report.trace_spans(tid)
            assert spans and all(s.trace_id == tid for s in spans)

    def test_as_dict_schema(self, causal_result):
        payload = causal_result.causal.as_dict()
        assert payload["schema"] == "repro.causal/v1"
        assert len(payload["spans"]) == len(causal_result.causal.spans)
        assert len(payload["resolutions"]) == 4
        assert len(payload["buddy_skips"]) == 4


class TestDeterminismAndGating:
    def test_causal_graph_is_deterministic_across_replays(self, demo_runner):
        a = demo_runner(with_tracer=False, causal_trace=True)
        b = demo_runner(with_tracer=False, causal_trace=True)
        assert a.causal.as_dict() == b.causal.as_dict()

    def test_no_help_run_has_no_buddy_spans(self, demo_runner):
        result = demo_runner(
            buddy_help=False, with_tracer=False, causal_trace=True
        )
        names = {s.name for s in result.causal.spans}
        assert not names & {"buddy_notify", "buddy_recv", "buddy_skip"}
        assert len(result.causal.resolutions) == 4

    def test_causal_off_by_default(self, demo_result):
        assert demo_result.simulation.causal is None
        with pytest.raises(ValidationError, match="causal_trace"):
            demo_result.causal

    def test_build_report_accepts_log_or_sim(self, causal_result):
        direct = build_causal_report(causal_result.simulation.causal)
        assert direct.as_dict() == causal_result.causal.as_dict()
        with pytest.raises(ValidationError):
            build_causal_report(object())


class TestGolden:
    def test_chaos_demo_report_is_byte_identical(self):
        """``repro run demo -p exports=40 -p seed=5 --fault CHAOS --causal``:
        retransmits, cached aggregates and buddy skips, attrs in their
        recorded key order."""
        plan = FaultPlan.from_dict({"seed": 5, "drop": 0.1, "dup": 0.05, "delay_jitter": 2e-4})
        run = build("demo", {"exports": 40, "seed": 5}).run(causal_trace=True, fault_plan=plan)
        assert run.causal.to_json() + "\n" == GOLDEN.read_text(encoding="utf-8")
