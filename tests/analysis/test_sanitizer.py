"""Tests for the online protocol sanitizer (sanitizer.py).

The sanitizer is a fold on the event spine: the rule tests hand it the
``ProtocolEvent``s a run announces, in the order the driver announces
them (a rep message is announced before the rep handles it, a rep
directive as it is sent); the end-to-end tests run both runtimes.
"""

import pytest

from repro.analysis.report import Severity
from repro.analysis.sanitizer import ProtocolSanitizer, SanitizerError
from repro.api import Program, RunOptions, run
from repro.core import spine
from repro.core.config import parse_config
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exceptions import PropertyViolationError, ProtocolError
from repro.core.exporter import ExportDecision, ExportOutcome
from repro.core.rep import BuddyHelp, ExporterRep, ImporterRep
from repro.core.spine import ProtocolEvent
from repro.data.decomposition import BlockDecomposition
from repro.faults import FaultPlan
from repro.match.result import FinalAnswer, MatchKind, MatchResponse
from repro.obs.prov import causal_payload, payload_digest, report_payload
from repro.scenarios import build as build_scenario
from repro.util import tracing
from repro.util.tracing import Tracer

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


def announce(san, kind, who, **fields):
    """Hand *san* one event of *kind*, as the driver's spine does."""
    handler = san.handlers().get(kind)
    if handler is not None:
        handler(ProtocolEvent(kind, who, 0.0, cid=CID, **fields))


class DrivenExporterRep:
    """An exporter rep fed as ``ProtocolDriver._rep_handle`` feeds it:
    each response is announced before the rep sees it, and each
    buddy-help directive is announced as it is sent."""

    def __init__(self, san, rep):
        self.san, self.rep = san, rep

    def on_request(self, request_ts):
        return self.rep.on_request(CID, request_ts)

    def on_response(self, rank, response):
        announce(self.san, spine.RESPONSE_RECV, "F.rep",
                 request=response.request_ts, rank=rank, decision=response)
        directives = self.rep.on_response(CID, rank, response)
        for d in directives:
            if isinstance(d, BuddyHelp):
                announce(self.san, spine.BUDDY_SEND, "F.rep",
                         request=d.answer.request_ts, rank=d.rank, decision=d.answer)
        return directives


class DrivenImporterRep:
    """An importer rep whose final answers are announced first."""

    def __init__(self, san, rep):
        self.san, self.rep = san, rep

    def on_answer(self, answer):
        announce(self.san, spine.ANSWER_RECV, "U.rep",
                 request=answer.request_ts, decision=answer)
        return self.rep.on_answer(CID, answer)


class TestS301IllegalAggregate:
    def driven(self, san):
        return DrivenExporterRep(san, ExporterRep("F", nprocs=2, connection_ids=[CID]))

    def test_match_no_match_mixture_trips_strict(self):
        san = sanitizer()
        rep = self.driven(san)
        rep.on_request(20.0)
        rep.on_response(0, match())
        with pytest.raises(SanitizerError) as exc:
            rep.on_response(1, no_match())
        assert "S301" in str(exc.value)
        # Every rank's response is listed, properties.py style.
        assert "rank 0: MATCH@19.6" in str(exc.value)
        assert "rank 1: NO_MATCH" in str(exc.value)

    def test_differing_matched_timestamps_trip(self):
        san = sanitizer()
        rep = self.driven(san)
        rep.on_request(20.0)
        rep.on_response(0, match(m=19.6))
        with pytest.raises(SanitizerError, match="S301"):
            rep.on_response(1, match(m=18.6))

    def test_report_mode_accumulates_then_rep_raises(self):
        san = sanitizer(strict=False)
        rep = self.driven(san)
        rep.on_request(20.0)
        rep.on_response(0, match())
        # The sanitizer records the finding; the (unsuppressed) rep
        # still enforces the protocol with its own exception.
        with pytest.raises(PropertyViolationError):
            rep.on_response(1, no_match())
        s301 = san.report.by_rule("S301")
        assert s301 and s301[0].severity is Severity.ERROR
        assert s301[0].program == "F"
        assert s301[0].connection == CID
        assert "five legal cases" in s301[0].paper

    def test_legal_cases_pass_clean(self):
        san = sanitizer()
        rep = self.driven(san)
        rep.on_request(20.0)
        rep.on_response(0, pending())
        directives = rep.on_response(1, match())
        assert any(isinstance(d, BuddyHelp) for d in directives)
        assert len(san.report) == 0

    def test_delegation_preserves_counters(self):
        # Sanitizing wraps no rep: a sanitized run's exporter reps are
        # the plain state machines and count what an unwatched run's do.
        reps = {}
        for sanitize in (False, "strict"):
            cs = _run_sim(sanitize=sanitize)
            rep = cs._programs["F"].exp_rep
            assert type(rep) is ExporterRep
            reps[sanitize] = (rep.requests_seen, rep.buddy_messages_sent)
        assert reps[False] == reps["strict"]
        assert reps["strict"][0] == 4


class TestS302BuddyTargets:
    def test_buddy_to_definitive_rank_trips(self):
        # A rep that "helps" the rank that just answered.
        san = sanitizer()
        response = match()
        announce(san, spine.RESPONSE_RECV, "F.rep",
                 request=20.0, rank=0, decision=response)
        with pytest.raises(SanitizerError) as exc:
            announce(
                san, spine.BUDDY_SEND, "F.rep", request=20.0, rank=0,
                decision=FinalAnswer(
                    request_ts=20.0, kind=MatchKind.MATCH, matched_ts=19.6
                ),
            )
        assert "S302" in str(exc.value)
        assert "still-PENDING" in str(exc.value)

    def test_correct_buddy_targets_pass(self):
        san = sanitizer()
        rep = DrivenExporterRep(san, ExporterRep("F", nprocs=2, connection_ids=[CID]))
        rep.on_request(20.0)
        directives = rep.on_response(0, match())
        helps = [d for d in directives if isinstance(d, BuddyHelp)]
        assert [d.rank for d in helps] == [1]  # only the PENDING rank
        assert len(san.report) == 0


def skip(san, who, ts, rank=0, program="F", region="r"):
    outcome = ExportOutcome(ExportDecision.SKIP, None, (), (), ())
    handler = san.handlers()[spine.EXPORT]
    handler(ProtocolEvent(spine.EXPORT, who, 0.0, program=program, rank=rank,
                          region=region, ts=ts, decision=outcome))


class TestS303SkipJustification:
    def test_skip_without_any_request_trips(self):
        san = sanitizer()
        with pytest.raises(SanitizerError) as exc:
            skip(san, "F.p0", 10.0)
        assert "S303" in str(exc.value)
        assert "silently lost" in str(exc.value)
        assert exc.value.findings[0].program == "F"
        assert exc.value.findings[0].rank == 0

    def test_request_justifies_skips_below_future_low(self):
        san = sanitizer()
        # REGL 2.5: a request @20 kills everything below 17.5.
        announce(san, spine.REQUEST_RECV, "F.p0", request=20.0, rank=0)
        skip(san, "F.p0", 17.0)
        assert len(san.report) == 0
        with pytest.raises(SanitizerError, match="S303"):
            skip(san, "F.p0", 18.0)

    def test_definitive_reply_raises_threshold_to_region_high(self):
        san = sanitizer()
        announce(san, spine.REQUEST_RECV, "F.p0", request=20.0, rank=0)
        announce(san, spine.MATCH, "F.p0", request=20.0, rank=0, decision=match())
        # Disjoint regions: the answer kills everything up to 20.0.
        skip(san, "F.p0", 19.9)
        assert len(san.report) == 0

    def test_pending_reply_does_not_advance(self):
        san = sanitizer()
        announce(san, spine.REQUEST_RECV, "F.p0", request=20.0, rank=0)
        announce(san, spine.MATCH, "F.p0", request=20.0, rank=0, decision=pending())
        with pytest.raises(SanitizerError, match="S303"):
            skip(san, "F.p0", 19.0)

    def test_buddy_answer_raises_threshold(self):
        san = sanitizer()
        announce(
            san, spine.BUDDY_RECV, "F.p1", request=20.0, rank=1,
            decision=FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=19.6),
        )
        skip(san, "F.p1", 19.9, rank=1)
        assert len(san.report) == 0

    def test_thresholds_are_per_process(self):
        san = sanitizer()
        announce(san, spine.REQUEST_RECV, "F.p0", request=20.0, rank=0)
        # p1 never saw the request: its skip is unjustified.
        with pytest.raises(SanitizerError, match="S303"):
            skip(san, "F.p1", 17.0, rank=1)


def _f_main(ctx):
    for k in range(10):
        yield from ctx.export("r", round(1.6 + 2.0 * k, 6))
        yield from ctx.compute(0.001 * (1 + ctx.rank))


def _u_main(ctx):
    for k in range(4):
        yield from ctx.import_("r", 5.0 * (k + 1))
        yield from ctx.compute(0.002)


def _regions():
    return {"r": RegionDef(BlockDecomposition((8, 8), (2, 1)))}


def _run_sim(**kwargs):
    cs = CoupledSimulation(CFG, options=RunOptions(**kwargs))
    cs.add_program("F", main=_f_main, regions=_regions())
    cs.add_program("U", main=_u_main, regions=_regions())
    cs.run()
    return cs


def _live_f_main(ctx):
    for k in range(10):
        ctx.export("r", round(1.6 + 2.0 * k, 6))
        ctx.compute(0.001 * (1 + ctx.rank))


def _live_u_main(ctx):
    for k in range(4):
        ctx.import_("r", 5.0 * (k + 1))
        ctx.compute(0.002)


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

    @pytest.mark.parametrize("runtime", ["des", "live"])
    def test_sanitize_and_record_operations_on_both_runtimes(self, runtime):
        live = runtime == "live"
        result = run(
            CFG,
            [
                Program("F", main=_live_f_main if live else _f_main, regions=_regions()),
                Program("U", main=_live_u_main if live else _u_main, regions=_regions()),
            ],
            RunOptions(
                runtime=runtime, sanitize="strict", record_operations=True,
                **({"time_scale": 0.01} if live else {}),
            ),
        )
        sim = result.simulation
        assert sim.sanitizer is not None and len(sim.sanitizer.report) == 0
        assert len(sim.sanitizer._thresholds) > 0  # the fold saw the run
        assert result.check_property1() == []
        assert [op.kind for op in sim.operation_log.sequence("U", 0)] == ["import"] * 4

    def test_strict_raises_before_the_rep_on_a_divergent_program(self):
        def divergent(ctx):
            # Rank 1 exports shifted timestamps: NOT collective.
            shift = 0.25 if ctx.rank == 1 else 0.0
            for k in range(10):
                yield from ctx.export("r", round(1.6 + 2.0 * k + shift, 6))
                yield from ctx.compute(0.001)

        cs = CoupledSimulation(CFG, options=RunOptions(sanitize="strict"))
        cs.add_program("F", main=divergent, regions=_regions())
        cs.add_program("U", main=_u_main, regions=_regions())
        with pytest.raises(SanitizerError, match="S301"):
            cs.run()


class TestS304DuplicateAnswerAgreement:
    def driven(self, strict=True):
        s = sanitizer(strict=strict)
        rep = ImporterRep("U", nprocs=2, connection_ids=[CID])
        return s, DrivenImporterRep(s, rep), rep

    def answer(self, m=19.6):
        return FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=m)

    def test_identical_repeat_passes_silently(self):
        s, driven, inner = self.driven()
        inner.on_process_request(CID, 20.0, rank=0)
        driven.on_answer(self.answer())
        assert driven.on_answer(self.answer()) == []
        assert inner.duplicate_answers == 1
        assert len(s.report) == 0

    def test_disagreeing_repeat_raises_in_strict_mode(self):
        _s, driven, inner = self.driven(strict=True)
        inner.on_process_request(CID, 20.0, rank=0)
        driven.on_answer(self.answer(m=19.6))
        with pytest.raises(SanitizerError, match="S304"):
            driven.on_answer(self.answer(m=18.6))
        # Raised before the rep saw the disagreeing answer.
        assert inner.duplicate_answers == 0

    def test_disagreeing_repeat_reported_in_report_mode(self):
        s, driven, inner = self.driven(strict=False)
        inner.on_process_request(CID, 20.0, rank=0)
        driven.on_answer(self.answer(m=19.6))
        # The sanitizer records the disagreement; the rep itself still
        # refuses to overwrite its answer.
        with pytest.raises(ProtocolError, match="conflicting duplicate"):
            driven.on_answer(self.answer(m=18.6))
        findings = [f for f in s.report if f.rule == "S304"]
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert findings[0].program == "U"
        assert "disagreeing verdicts" in findings[0].message

    def test_proxy_forwards_counters(self):
        # Sanitizing wraps no rep: a sanitized run's importer reps are
        # the plain state machines and count what an unwatched run's do.
        reps = {}
        for sanitize in (False, "strict"):
            cs = _run_sim(sanitize=sanitize)
            rep = cs._programs["U"].imp_rep
            assert type(rep) is ImporterRep
            reps[sanitize] = (rep.forwarded_count, rep.duplicate_answers)
        assert reps[False] == reps["strict"]
        assert reps["strict"][0] == 4


def _outputs(result):
    """What a run reports: paper lines, causal digest, report, counters."""
    return (
        tracing.format_trace(result.tracer.events),
        payload_digest(causal_payload(result)),
        report_payload(result),
        result.counters,
    )


class TestSameOutputs:
    """Sanitizing observes a run and changes nothing it reports."""

    @pytest.mark.parametrize("chaos", [False, True], ids=["demo", "chaos"])
    def test_sanitize_leaves_every_output_byte_identical(self, chaos):
        plan = FaultPlan(seed=5, drop=0.1, dup=0.05, delay_jitter=2e-4) if chaos else None
        outputs = {}
        for sanitize in (False, "strict"):
            result = build_scenario("demo", {"seed": 5}).run(
                tracer=Tracer(), causal_trace=True, fault_plan=plan, sanitize=sanitize
            )
            outputs[sanitize] = _outputs(result)
        assert outputs["strict"] == outputs[False]
        lines, _digest, report, counters = outputs["strict"]
        assert lines and report["runs"]
        if chaos:
            assert counters["retransmissions"] > 0

    def test_no_tracer_is_forced_on(self):
        result = build_scenario("demo").run(sanitize="strict")
        sim = result.simulation
        assert [type(f) for f in sim._watch] == [ProtocolSanitizer]
        assert len(result.tracer.events) == 0
        assert sim.sanitizer._thresholds  # the fold saw the run
