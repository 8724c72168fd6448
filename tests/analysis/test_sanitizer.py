"""Tests for the online protocol sanitizer (sanitizer.py)."""

import pytest

from repro.analysis.report import Severity
from repro.analysis.sanitizer import ProtocolSanitizer, SanitizerError
from repro.api import RunOptions
from repro.core.config import parse_config
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exceptions import PropertyViolationError, ProtocolError
from repro.core.rep import BuddyHelp, ExporterRep, ImporterRep
from repro.data.decomposition import BlockDecomposition
from repro.match.result import FinalAnswer, MatchKind, MatchResponse
from repro.util import tracing
from repro.util.tracing import NullTracer, Tracer

CFG = """
F c0 /bin/F 2
U c1 /bin/U 2
#
F.r U.r REGL 2.5
"""

CID = "F.r->U.r"


def sanitizer(strict=True):
    return ProtocolSanitizer(parse_config(CFG), strict=strict)


def match(ts=20.0, m=19.6):
    return MatchResponse(request_ts=ts, kind=MatchKind.MATCH, matched_ts=m,
                         latest_export_ts=21.0)


def no_match(ts=20.0):
    return MatchResponse(request_ts=ts, kind=MatchKind.NO_MATCH,
                         latest_export_ts=25.0)


def pending(ts=20.0):
    return MatchResponse(request_ts=ts, kind=MatchKind.PENDING,
                         latest_export_ts=14.6)


class TestS301IllegalAggregate:
    def wrapped(self, san):
        return san.wrap_rep(ExporterRep("F", nprocs=2, connection_ids=[CID]))

    def test_match_no_match_mixture_trips_strict(self):
        san = sanitizer()
        rep = self.wrapped(san)
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 0, match())
        with pytest.raises(SanitizerError) as exc:
            rep.on_response(CID, 1, no_match())
        assert "S301" in str(exc.value)
        # Every rank's response is listed, properties.py style.
        assert "rank 0: MATCH@19.6" in str(exc.value)
        assert "rank 1: NO_MATCH" in str(exc.value)

    def test_differing_matched_timestamps_trip(self):
        san = sanitizer()
        rep = self.wrapped(san)
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 0, match(m=19.6))
        with pytest.raises(SanitizerError, match="S301"):
            rep.on_response(CID, 1, match(m=18.6))

    def test_report_mode_accumulates_then_rep_raises(self):
        san = sanitizer(strict=False)
        rep = self.wrapped(san)
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 0, match())
        # The sanitizer records the finding; the (unsuppressed) rep
        # still enforces the protocol with its own exception.
        with pytest.raises(PropertyViolationError):
            rep.on_response(CID, 1, no_match())
        s301 = san.report.by_rule("S301")
        assert s301 and s301[0].severity is Severity.ERROR
        assert s301[0].program == "F"
        assert s301[0].connection == CID
        assert "five legal cases" in s301[0].paper

    def test_legal_cases_pass_clean(self):
        san = sanitizer()
        rep = self.wrapped(san)
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 0, pending())
        directives = rep.on_response(CID, 1, match())
        assert any(isinstance(d, BuddyHelp) for d in directives)
        assert len(san.report) == 0

    def test_delegation_preserves_counters(self):
        san = sanitizer()
        rep = self.wrapped(san)
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 1, match())
        assert rep.requests_seen == 1  # __getattr__ delegation
        assert rep.buddy_messages_sent == 1


class TestS302BuddyTargets:
    def test_buddy_to_definitive_rank_trips(self):
        class EvilRep:
            """A rep that 'helps' the rank that just answered."""

            program = "F"

            def on_request(self, cid, ts):
                return []

            def on_response(self, cid, rank, response):
                return [
                    BuddyHelp(
                        rank=rank,
                        connection_id=cid,
                        answer=FinalAnswer(
                            request_ts=response.request_ts,
                            kind=MatchKind.MATCH,
                            matched_ts=response.matched_ts,
                        ),
                    )
                ]

        san = sanitizer()
        rep = san.wrap_rep(EvilRep())
        rep.on_request(CID, 20.0)
        with pytest.raises(SanitizerError) as exc:
            rep.on_response(CID, 0, match())
        assert "S302" in str(exc.value)
        assert "still-PENDING" in str(exc.value)

    def test_correct_buddy_targets_pass(self):
        san = sanitizer()
        rep = san.wrap_rep(ExporterRep("F", nprocs=2, connection_ids=[CID]))
        rep.on_request(CID, 20.0)
        directives = rep.on_response(CID, 0, match())
        helps = [d for d in directives if isinstance(d, BuddyHelp)]
        assert [d.rank for d in helps] == [1]  # only the PENDING rank
        assert len(san.report) == 0


class TestS303SkipJustification:
    def test_skip_without_any_request_trips(self):
        san = sanitizer()
        with pytest.raises(SanitizerError) as exc:
            san.observe_event(
                tracing.EXPORT_SKIP, "F.p0", 10.0, {"region": "r"}
            )
        assert "S303" in str(exc.value)
        assert "silently lost" in str(exc.value)

    def test_request_justifies_skips_below_future_low(self):
        san = sanitizer()
        # REGL 2.5: a request @20 kills everything below 17.5.
        san.observe_event(
            tracing.REQUEST_RECV, "F.p0", None, {"cid": CID, "request": 20.0}
        )
        san.observe_event(tracing.EXPORT_SKIP, "F.p0", 17.0, {"region": "r"})
        assert len(san.report) == 0
        with pytest.raises(SanitizerError, match="S303"):
            san.observe_event(tracing.EXPORT_SKIP, "F.p0", 18.0, {"region": "r"})

    def test_definitive_reply_raises_threshold_to_region_high(self):
        san = sanitizer()
        san.observe_event(
            tracing.REQUEST_RECV, "F.p0", None, {"cid": CID, "request": 20.0}
        )
        san.observe_event(
            tracing.REQUEST_REPLY,
            "F.p0",
            None,
            {"cid": CID, "request": 20.0, "answer": "MATCH"},
        )
        # Disjoint regions: the answer kills everything up to 20.0.
        san.observe_event(tracing.EXPORT_SKIP, "F.p0", 19.9, {"region": "r"})
        assert len(san.report) == 0

    def test_pending_reply_does_not_advance(self):
        san = sanitizer()
        san.observe_event(
            tracing.REQUEST_RECV, "F.p0", None, {"cid": CID, "request": 20.0}
        )
        san.observe_event(
            tracing.REQUEST_REPLY,
            "F.p0",
            None,
            {"cid": CID, "request": 20.0, "answer": "PENDING"},
        )
        with pytest.raises(SanitizerError, match="S303"):
            san.observe_event(tracing.EXPORT_SKIP, "F.p0", 19.0, {"region": "r"})

    def test_buddy_answer_raises_threshold(self):
        san = sanitizer()
        san.observe_event(
            tracing.BUDDY_RECV,
            "F.p1",
            None,
            {"cid": CID, "request": 20.0, "answer": "YES", "match": 19.6},
        )
        san.observe_event(tracing.EXPORT_SKIP, "F.p1", 19.9, {"region": "r"})
        assert len(san.report) == 0

    def test_thresholds_are_per_process(self):
        san = sanitizer()
        san.observe_event(
            tracing.REQUEST_RECV, "F.p0", None, {"cid": CID, "request": 20.0}
        )
        # p1 never saw the request: its skip is unjustified.
        with pytest.raises(SanitizerError, match="S303"):
            san.observe_event(tracing.EXPORT_SKIP, "F.p1", 17.0, {"region": "r"})

    def test_events_without_detail_are_ignored_conservatively(self):
        san = sanitizer()
        san.observe_event(tracing.REQUEST_RECV, "F.p0", None, {"request": 20.0})
        san.observe_event(tracing.EXPORT_SKIP, "F.p0", 17.0, {})  # no region
        assert len(san.report) == 0  # cannot prove a violation: stay silent


class TestSanitizingTracer:
    def test_forwards_to_enabled_inner(self):
        san = sanitizer()
        inner = Tracer()
        wrapped = san.wrap_tracer(inner)
        assert wrapped.enabled
        wrapped.record(
            tracing.REQUEST_RECV, "F.p0", 1.0, cid=CID, request=20.0
        )
        assert len(inner.events) == 1
        assert wrapped.events is inner.events

    def test_observes_even_with_null_inner(self):
        san = sanitizer()
        wrapped = san.wrap_tracer(NullTracer())
        assert wrapped.enabled  # the runtime must emit everything
        wrapped.record(tracing.REQUEST_RECV, "F.p0", 1.0, cid=CID, request=20.0)
        wrapped.record(
            tracing.EXPORT_SKIP, "F.p0", 1.1, timestamp=17.0, region="r"
        )
        assert len(wrapped.events) == 0  # dropped by the NullTracer
        assert san._thresholds[("F.p0", CID)] == pytest.approx(17.5)


def _run_sim(**kwargs):
    def f_main(ctx):
        for k in range(10):
            yield from ctx.export("r", round(1.6 + 2.0 * k, 6))
            yield from ctx.compute(0.001 * (1 + ctx.rank))

    def u_main(ctx):
        for k in range(4):
            yield from ctx.import_("r", 5.0 * (k + 1))
            yield from ctx.compute(0.002)

    cs = CoupledSimulation(CFG, options=RunOptions(**kwargs))
    shape, procs = (8, 8), (2, 1)
    cs.add_program(
        "F", main=f_main, regions={"r": RegionDef(BlockDecomposition(shape, procs))}
    )
    cs.add_program(
        "U", main=u_main, regions={"r": RegionDef(BlockDecomposition(shape, procs))}
    )
    cs.run()
    return cs


class TestEndToEnd:
    def test_clean_run_produces_no_findings(self):
        cs = _run_sim(sanitize="strict", tracer=Tracer())
        assert cs.sanitizer is not None
        assert len(cs.sanitizer.report) == 0
        # The run exercised the skip path, so S303 really was checked.
        assert any(
            e.kind == tracing.EXPORT_SKIP for e in cs.tracer.events
        )

    def test_sanitize_without_tracer_still_checks(self):
        cs = _run_sim(sanitize="strict")
        assert len(cs.sanitizer.report) == 0
        assert len(cs.sanitizer._thresholds) > 0  # the mirror saw events

    def test_disabled_by_default(self):
        cs = _run_sim()
        assert cs.sanitizer is None

    def test_env_var_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cs = CoupledSimulation(CFG)
        assert cs.sanitizer is not None
        assert cs.sanitizer.strict

    def test_env_var_report_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "report")
        cs = CoupledSimulation(CFG)
        assert cs.sanitizer is not None
        assert not cs.sanitizer.strict

    def test_env_var_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert CoupledSimulation(CFG).sanitizer is None

    def test_bad_sanitize_value_rejected(self):
        with pytest.raises(ValueError):
            CoupledSimulation(CFG, options=RunOptions(sanitize="loud"))


class TestS304DuplicateAnswerAgreement:
    def wrapped(self, strict=True):
        s = sanitizer(strict=strict)
        rep = ImporterRep("U", nprocs=2, connection_ids=[CID])
        return s, s.wrap_imp_rep(rep), rep

    def answer(self, m=19.6):
        return FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=m)

    def test_identical_repeat_passes_silently(self):
        s, wrapped, inner = self.wrapped()
        wrapped.on_process_request(CID, 20.0, rank=0)
        wrapped.on_answer(CID, self.answer())
        assert wrapped.on_answer(CID, self.answer()) == []
        assert inner.duplicate_answers == 1
        assert len(s.report) == 0

    def test_disagreeing_repeat_raises_in_strict_mode(self):
        _s, wrapped, _inner = self.wrapped(strict=True)
        wrapped.on_process_request(CID, 20.0, rank=0)
        wrapped.on_answer(CID, self.answer(m=19.6))
        with pytest.raises(SanitizerError, match="S304"):
            wrapped.on_answer(CID, self.answer(m=18.6))

    def test_disagreeing_repeat_reported_in_report_mode(self):
        s, wrapped, _inner = self.wrapped(strict=False)
        wrapped.on_process_request(CID, 20.0, rank=0)
        wrapped.on_answer(CID, self.answer(m=19.6))
        # The sanitizer records the disagreement; the rep itself still
        # refuses to overwrite its answer.
        with pytest.raises(ProtocolError, match="conflicting duplicate"):
            wrapped.on_answer(CID, self.answer(m=18.6))
        findings = [f for f in s.report if f.rule == "S304"]
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert "disagreeing verdicts" in findings[0].message

    def test_proxy_forwards_counters(self):
        _s, wrapped, inner = self.wrapped()
        wrapped.on_process_request(CID, 20.0, rank=0)
        assert wrapped.forwarded_count == inner.forwarded_count == 1
