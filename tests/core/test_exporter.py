"""Tests for the export-side state machine (buffer/skip/send + buddy-help).

These drive :class:`RegionExportState` directly — no runtime — through
the exact situations of the paper's Section 4.1 and Figures 5/7/8, plus
a property test asserting the framework's safety invariant: *a skipped
export can never be a timestamp some request matches*.
"""

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ConnectionSpec, Endpoint
from repro.core.exceptions import PropertyViolationError
from repro.core.exporter import ExportDecision, RegionExportState
from repro.match.policies import MatchPolicy, PolicyKind
from repro.match.result import FinalAnswer, MatchKind
from repro.match.sorted_engine import SCALAR_BATCH_MAX
from repro.util.validation import ValidationError


def make_state(tolerance=2.5, disjoint=True, kind=PolicyKind.REGL, n_conns=1, **kwargs):
    conns = [
        ConnectionSpec(
            exporter=Endpoint("F", "d"),
            importer=Endpoint(f"U{i}", "d"),
            policy=MatchPolicy(kind, tolerance),
            disjoint_regions=disjoint,
        )
        for i in range(n_conns)
    ]
    return RegionExportState("d", conns, **kwargs), [c.connection_id for c in conns]


def export(st_, ts):
    return st_.on_export(ts, nbytes=8, memcpy_cost=1.0)


class TestUnconnectedRegion:
    def test_exports_are_noops(self):
        state = RegionExportState("d", [])
        out = export(state, 1.0)
        assert out.decision is ExportDecision.NOOP
        assert state.buffer.buffered_count == 0
        assert not state.is_connected

    @pytest.mark.parametrize("n_conns", [0, 1])
    def test_nan_export_is_rejected_by_the_history(self, n_conns):
        # Connected or not: before, only the buffer pool noticed, and
        # an unconnected region (no pool traffic) recorded the NaN.
        state, _ = make_state(n_conns=n_conns)
        with pytest.raises(ValidationError, match="export timestamp must not be NaN"):
            export(state, float("nan"))
        assert len(state.history) == 0
        assert export(state, 1.0).decision is not None  # stream still usable


class TestBlindBuffering:
    def test_everything_buffered_before_any_request(self):
        state, _ = make_state()
        for k in range(10):
            assert export(state, 1.0 + k).decision is ExportDecision.BUFFER
        assert state.buffer.live_count == 10

    def test_request_arrival_evicts_below_region(self):
        """Paper Fig. 5 line 7: remove D@1.6, ..., D@14.6."""
        state, [cid] = make_state(tolerance=2.5)
        for k in range(14):
            export(state, 1.6 + k)  # 1.6 .. 14.6
        out = state.on_request(cid, 20.0)
        assert out.response.kind is MatchKind.PENDING
        evicted = state.collect_evictions()
        assert [e.ts for e in evicted] == [1.6 + k for k in range(14)]
        assert state.buffer.live_count == 0


class TestFastProcessPath:
    def test_request_after_stream_passed_is_immediate_match(self):
        state, [cid] = make_state()
        for k in range(25):
            export(state, 1.6 + k)  # up to 25.6 > 20
        out = state.on_request(cid, 20.0)
        assert out.response.kind is MatchKind.MATCH
        assert out.response.matched_ts == 19.6
        assert out.applied is not None
        assert out.applied.send_now == 19.6  # buffered: transfer now

    def test_no_match_when_region_empty(self):
        state, [cid] = make_state(tolerance=0.1)
        export(state, 10.0)
        export(state, 30.0)
        out = state.on_request(cid, 20.0)
        assert out.response.kind is MatchKind.NO_MATCH
        assert out.applied is not None and out.applied.send_now is None


class TestBuddyHelp:
    def test_buddy_enables_skipping_before_generation(self):
        """Paper Fig. 5: after buddy {D@20, YES, D@19.6}, exports
        15.6..18.6 are skipped and 19.6 is sent."""
        state, [cid] = make_state(tolerance=2.5)
        for k in range(14):
            export(state, 1.6 + k)
        state.on_request(cid, 20.0)
        answer = FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=19.6)
        applied = state.on_buddy_answer(cid, answer)
        assert applied.was_news
        assert applied.send_now is None  # not exported yet
        decisions = [export(state, 1.6 + k).decision for k in range(14, 19)]
        assert decisions == [
            ExportDecision.SKIP,
            ExportDecision.SKIP,
            ExportDecision.SKIP,
            ExportDecision.SKIP,
            ExportDecision.SEND,  # 19.6: the match
        ]
        # Objects past the request are future-unknown again.
        assert export(state, 20.6).decision is ExportDecision.BUFFER

    def test_buddy_no_match_skips_whole_region(self):
        state, [cid] = make_state(tolerance=2.5)
        export(state, 1.6)
        state.on_request(cid, 20.0)
        state.on_buddy_answer(
            cid, FinalAnswer(request_ts=20.0, kind=MatchKind.NO_MATCH)
        )
        # Everything up to the region high (20.0) can never match.  No
        # export of a conformant line lies inside the region: one there
        # refutes the collective NO_MATCH (the next test).
        assert state.connections[cid].skip_threshold == 20.0
        assert export(state, 17.0).decision is ExportDecision.SKIP
        assert export(state, 20.5).decision is ExportDecision.BUFFER

    def test_an_export_in_a_buddy_no_match_region_is_property1(self):
        state, [cid] = make_state(tolerance=2.5)
        export(state, 1.6)
        state.on_request(cid, 20.0)
        state.on_buddy_answer(
            cid, FinalAnswer(request_ts=20.0, kind=MatchKind.NO_MATCH)
        )
        with pytest.raises(PropertyViolationError, match="it exported 18, inside"):
            export(state, 18.0)

    @pytest.mark.parametrize(
        "kind, match, stream, refuting",
        [
            # Closer below the request, before the match is reached.
            (PolicyKind.REGU, 21.6, (20.6, 21.6), 20.6),
            (PolicyKind.REG, 21.6, (18.6, 19.6), 18.6),
            # Closer above the match, after it was sent.
            (PolicyKind.REGL, 18.6, (17.6, 18.6, 19.6), 19.6),
        ],
    )
    def test_an_export_preferred_to_a_buddy_match_is_property1(
        self, kind, match, stream, refuting
    ):
        state, [cid] = make_state(tolerance=2.5, kind=kind)
        export(state, 1.6)
        state.on_buddy_answer(
            cid, FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=match)
        )
        with pytest.raises(PropertyViolationError, match=f"it exported {refuting:g}, closer"):
            for ts in stream:
                export(state, ts)
        assert state.history.latest == refuting

    def test_buddy_for_already_buffered_match_triggers_send(self):
        state, [cid] = make_state()
        for k in range(19):
            export(state, 1.6 + k)  # up to 19.6
        state.on_request(cid, 20.0)  # PENDING: latest 19.6 < 20
        applied = state.on_buddy_answer(
            cid, FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=19.6)
        )
        assert applied.send_now == 19.6

    def test_buddy_skips_are_attributed_to_buddy_help(self):
        # Same shape as Fig. 5: the PENDING-side process only knows
        # future_low(20.0) = 17.5 locally; the buddy answer raises the
        # real threshold to 19.6.  Skips in [17.5, 19.6) are therefore
        # buddy-enabled, and that is exactly what T_ub_no_help charges.
        state, [cid] = make_state(tolerance=2.5)
        for k in range(14):
            export(state, 1.6 + k)
        state.on_request(cid, 20.0)  # local knowledge: skip below 17.5
        state.on_buddy_answer(
            cid, FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=19.6)
        )
        local_skip = export(state, 16.6)  # below future_low: local skip
        buddy_skip = export(state, 18.6)  # only the buddy threshold covers it
        assert local_skip.decision is ExportDecision.SKIP
        assert not local_skip.buddy_skip
        assert buddy_skip.decision is ExportDecision.SKIP
        assert buddy_skip.buddy_skip

    def test_local_knowledge_skips_not_attributed(self):
        # Without any buddy answer every skip is locally justified.
        state, [cid] = make_state(tolerance=2.5)
        state.on_request(cid, 20.0)
        out = export(state, 16.0)  # below future_low(20.0) = 17.5
        assert out.decision is ExportDecision.SKIP
        assert not out.buddy_skip

    def test_conflicting_buddy_answer_raises(self):
        state, [cid] = make_state()
        for k in range(25):
            export(state, 1.6 + k)
        state.on_request(cid, 20.0)  # decides MATCH 19.6 locally
        with pytest.raises(PropertyViolationError, match="conflicting answers"):
            state.on_buddy_answer(
                cid,
                FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=18.6),
            )

    def test_duplicate_buddy_answer_is_idempotent(self):
        state, [cid] = make_state()
        state.on_request(cid, 20.0)
        ans = FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=19.6)
        assert state.on_buddy_answer(cid, ans).was_news
        again = state.on_buddy_answer(cid, ans)
        assert not again.was_news
        assert again.send_now is None


class TestNoBuddyChurn:
    def test_candidate_replacement_figure8(self):
        state, [cid] = make_state(tolerance=5.0)
        for ts in (1.6, 2.6, 3.6):
            export(state, ts)
        state.on_request(cid, 10.0)
        state.collect_evictions()
        assert export(state, 4.6).decision is ExportDecision.SKIP  # below region
        out = export(state, 5.6)
        assert out.decision is ExportDecision.BUFFER
        assert out.replaced == ()
        out = export(state, 6.6)
        assert out.decision is ExportDecision.BUFFER
        assert [e.ts for e in out.replaced] == [5.6]  # churn
        out = export(state, 9.6)
        assert [e.ts for e in out.replaced] == [6.6]
        # 10.6 resolves the request: 9.6 is the match.
        out = export(state, 10.6)
        assert out.decision is ExportDecision.BUFFER
        assert out.post_sends == ((cid, 9.6),)
        assert [r[0] for r in out.new_responses] == [cid]
        assert out.new_responses[0][1].matched_ts == 9.6

    def test_t_ub_accrues_from_churn(self):
        state, [cid] = make_state(tolerance=5.0)
        state.on_request(cid, 10.0)
        for ts in (5.6, 6.6, 7.6, 8.6, 9.6, 10.6):
            export(state, ts)
        # Four replaced candidates at cost 1.0 each.
        assert state.buffer.t_ub() == pytest.approx(4.0)


class TestOpenRequestsSurviveNewThresholds:
    def test_later_request_does_not_kill_earlier_pending_match(self):
        """Regression: request t2's future_low exceeds t1's region, but
        t1 is still open — its in-region exports must be buffered."""
        state, [cid] = make_state(tolerance=2.5)
        state.on_request(cid, 20.0)  # PENDING (nothing exported)
        state.on_request(cid, 40.0)  # PENDING; future_low = 37.5
        out = export(state, 19.6)  # inside [17.5, 20] of the OPEN request
        assert out.decision is ExportDecision.BUFFER
        out = export(state, 20.6)  # decides request 20 -> MATCH 19.6
        assert (cid, 19.6) in out.post_sends
        # Between the two regions: dead, skippable.
        assert export(state, 25.0).decision is ExportDecision.SKIP

    def test_multiple_open_requests_resolved_in_order(self):
        state, [cid] = make_state(tolerance=2.5)
        state.on_request(cid, 20.0)
        state.on_request(cid, 40.0)
        export(state, 19.6)
        # Export 39.6 passes request 20 -> its MATCH resolves here...
        out1 = export(state, 39.6)
        assert [r[1].matched_ts for r in out1.new_responses] == [19.6]
        # ...and export 41.0 passes request 40.
        out2 = export(state, 41.0)
        assert [r[1].matched_ts for r in out2.new_responses] == [39.6]


class TestSweptBacklog:
    """More open requests than the engine's scalar/sweep dispatch line."""

    @pytest.mark.parametrize("kind", [PolicyKind.REGL, PolicyKind.REG])
    def test_backlog_resolves_exactly_as_on_the_reference_engine(self, kind):
        n_open = 5 * SCALAR_BATCH_MAX
        outcomes = {}
        for backend in ("legacy", "sorted"):
            state, [cid] = make_state(
                tolerance=0.75, disjoint=False, kind=kind, match_backend=backend
            )
            export(state, 0.5)
            log = []
            for k in range(n_open):  # all ahead of the stream: PENDING
                out = state.on_request(cid, 10.0 + 0.5 * k)
                assert out.response.kind is MatchKind.PENDING
            assert len(state.connections[cid].open_requests) == n_open
            for k in range(60):  # the stream walks through the backlog
                out = export(state, 9.0 + 0.4 * k)
                assert all(r.is_definitive for _, r in out.new_responses)
                log.append((out, state.collect_evictions()))
            log.append(state.close())
            assert not state.connections[cid].open_requests
            outcomes[backend] = (log, state.connections[cid].answers)
        assert outcomes["sorted"] == outcomes["legacy"]
        resolved = [r for out, _ in outcomes["sorted"][0][:-1] for _, r in out.new_responses]
        assert len(resolved) > SCALAR_BATCH_MAX  # resolved from swept batches
        assert [r.request_ts for r in resolved] == sorted(r.request_ts for r in resolved)


class TestCloseStream:
    def test_close_resolves_open_requests(self):
        state, [cid] = make_state()
        export(state, 19.0)
        state.on_request(cid, 20.0)  # PENDING
        responses, post_sends = state.close()
        assert len(responses) == 1
        assert responses[0][1].kind is MatchKind.MATCH
        assert responses[0][1].matched_ts == 19.0
        assert post_sends == [(cid, 19.0)]

    def test_close_with_no_match(self):
        state, [cid] = make_state(tolerance=0.5)
        export(state, 5.0)
        state.on_request(cid, 20.0)
        responses, post_sends = state.close()
        assert responses[0][1].kind is MatchKind.NO_MATCH
        assert post_sends == []


class TestMultipleConnections:
    def test_skip_requires_unanimity(self):
        state, cids = make_state(n_conns=2)
        for k in range(25):
            export(state, 1.6 + k)
        # Only connection 0 learns its request; connection 1 knows nothing.
        state.on_request(cids[0], 20.0)
        state.collect_evictions()
        # Under connection 0 alone, 10.0 would be evicted/skipped; but
        # connection 1 may still need everything -> keep buffering.
        out = export(state, 26.6)
        assert out.decision is ExportDecision.BUFFER
        # Old entries survive because connection 1's threshold is -inf.
        assert state.buffer.live_count > 0

    def test_send_on_one_connection_wins(self):
        state, cids = make_state(n_conns=2)
        state.on_request(cids[0], 20.0)
        state.on_buddy_answer(
            cids[0],
            FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH, matched_ts=19.6),
        )
        out = export(state, 19.6)
        assert out.decision is ExportDecision.SEND
        assert out.send_connections == (cids[0],)


class TestSkipSafetyProperty:
    @given(
        tol=st.floats(0.5, 6.0, allow_nan=False),
        request_gaps=st.lists(st.floats(7.0, 30.0), min_size=1, max_size=6),
        buddy=st.booleans(),
        interleave=st.integers(2, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_skipped_exports_never_match_any_request(
        self, tol, request_gaps, buddy, interleave
    ):
        """The framework's safety invariant.

        Drive a single process through interleaved exports and requests
        (requests spaced > tol apart, the paper's disjointness regime);
        whenever the engine decides a MATCH, the matched timestamp must
        have been buffered or sent — never skipped.
        """
        state, [cid] = make_state(tolerance=tol)
        requests = []
        acc = 10.0
        for gap in request_gaps:
            acc += max(gap, tol + 0.6)
            requests.append(acc)
        skipped: set[float] = set()
        matched: set[float] = set()

        def check_responses(pairs):
            for _cid, resp in pairs:
                if resp.kind is MatchKind.MATCH:
                    matched.add(resp.matched_ts)

        ts = 0.6
        req_iter = iter(requests)
        next_req = next(req_iter, None)
        for _step in range(160):
            out = state.on_export(ts, 8, 1.0)
            if out.decision is ExportDecision.SKIP:
                skipped.add(ts)
            check_responses(out.new_responses)
            ts += 1.0
            if next_req is not None and _step % interleave == 0:
                ro = state.on_request(cid, next_req)
                if ro.response.kind is MatchKind.MATCH:
                    matched.add(ro.response.matched_ts)
                elif buddy:
                    # Simulate a fast peer: it has seen every export up
                    # to "far future", so its answer is the engine's
                    # eventual verdict; emulate via a clairvoyant peer.
                    low, high = state.connections[cid].policy.region(next_req)
                    cand = [
                        0.6 + k
                        for k in range(200)
                        if low <= 0.6 + k <= high
                    ]
                    if cand:
                        m = max(c for c in cand)
                        ans = FinalAnswer(
                            request_ts=next_req, kind=MatchKind.MATCH, matched_ts=m
                        )
                        state.on_buddy_answer(cid, ans)
                        matched.add(m)
                next_req = next(req_iter, None)
            state.collect_evictions()
        assert not (matched & skipped), (
            f"skipped timestamps {sorted(matched & skipped)} were matched"
        )


class TestWouldSkipIsTheVote:
    """``would_skip`` previews an export for the ``buffer_policy="block"``
    stall; it restates the skip rule of ``vote_export``, so the two copies
    are held to one answer."""

    @given(
        kind=st.sampled_from(list(PolicyKind)),
        tol=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
        n_conns=st.integers(0, 2),
        strict=st.booleans(),
        disjoint=st.booleans(),
        gaps=st.lists(st.integers(1, 4), min_size=10, max_size=40),
        requests=st.lists(
            st.lists(st.integers(1, 12), min_size=1, max_size=8), min_size=2, max_size=2
        ),
        ops=st.lists(
            st.tuples(st.sampled_from(["export", "request", "buddy", "reask"]),
                      st.integers(0, 1)),
            min_size=40, max_size=120,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_would_skip_holds_exactly_when_the_export_skips(
        self, kind, tol, n_conns, strict, disjoint, gaps, requests, ops
    ):
        """Requests, buddy answers and exports interleave in any order;
        every buddy answer is the verdict the whole export stream gives
        (Property 1), and a relaxed-order rank also gets re-asks."""
        tol = 0.0 if kind is PolicyKind.EXACT else tol
        state, cids = make_state(tolerance=tol, kind=kind, disjoint=disjoint,
                                 n_conns=n_conns, strict_order=strict)
        exports, ts = [], 0.0
        for gap in gaps:
            ts += 0.5 * gap
            exports.append(ts)
        policy = MatchPolicy(kind, tol)

        def verdict(r):
            m = policy.select_best(exports, r)
            return FinalAnswer(r, MatchKind.NO_MATCH) if m is None else FinalAnswer(
                r, MatchKind.MATCH, m
            )

        asked = [list(itertools.accumulate(0.5 * q for q in qs)) for qs in requests]
        delivered = [0, 0]
        answered = [0, 0]
        exported = 0
        for op, i in ops:
            if op == "export":
                if exported == len(exports):
                    continue
                ts = exports[exported]
                exported += 1
                preview = state.would_skip(ts)
                state = copy.deepcopy(state)
                decision = export(state, ts).decision
                assert preview == (decision in (ExportDecision.SKIP, ExportDecision.NOOP)), (
                    ts, decision
                )
                continue
            if i >= n_conns:
                continue
            if op == "request" and delivered[i] < len(asked[i]):
                state.on_request(cids[i], asked[i][delivered[i]])
                delivered[i] += 1
            elif op == "buddy" and answered[i] < len(asked[i]):
                state.on_buddy_answer(cids[i], verdict(asked[i][answered[i]]))
                answered[i] += 1
            elif op == "reask" and not strict and delivered[i]:
                state.on_request(cids[i], asked[i][delivered[i] - 1])
