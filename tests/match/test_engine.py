"""Tests for ExportHistory and MatchEngine — Section 3.1 semantics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.match import MATCH_BACKENDS, make_backend
from repro.match.engine import ExportHistory, MatchEngine
from repro.match.policies import MatchPolicy, PolicyKind
from repro.match.result import MatchKind
from repro.util.validation import ValidationError

NAN = float("nan")


def regl(tol=2.5):
    return MatchEngine(MatchPolicy(PolicyKind.REGL, tol))


class TestExportHistory:
    def test_strictly_increasing_enforced(self):
        h = ExportHistory()
        h.add(1.0)
        h.add(2.0)
        with pytest.raises(ValueError, match="must increase"):
            h.add(2.0)
        with pytest.raises(ValueError):
            h.add(1.5)

    def test_latest(self):
        h = ExportHistory()
        assert h.latest == -math.inf
        h.add(3.5)
        assert h.latest == 3.5

    def test_in_interval(self):
        h = ExportHistory()
        for ts in (1.0, 2.0, 3.0, 4.0):
            h.add(ts)
        assert h.in_interval(1.5, 3.5) == [2.0, 3.0]
        assert h.in_interval(2.0, 3.0) == [2.0, 3.0]  # closed interval
        assert h.in_interval(5.0, 9.0) == []

    def test_close_blocks_further_exports(self):
        h = ExportHistory()
        h.add(1.0)
        h.close()
        assert h.closed
        with pytest.raises(ValueError, match="closed"):
            h.add(2.0)

    def test_len_and_all(self):
        h = ExportHistory()
        h.add(1.0)
        h.add(2.0)
        assert len(h) == 2
        assert h.all_timestamps() == [1.0, 2.0]


class TestNanTimestamps:
    """NaN is ordered against nothing: the match layer refuses it."""

    def test_nan_first_export_rejected(self):
        h = ExportHistory()
        with pytest.raises(ValidationError, match="NaN.*nan"):
            h.add(NAN)
        h.add(1.0)  # nothing was recorded: the stream is still usable
        assert h.all_timestamps() == [1.0] and h.latest == 1.0

    def test_nan_later_export_names_the_value(self):
        h = ExportHistory()
        h.add(1.0)
        with pytest.raises(ValidationError, match="NaN.*nan"):
            h.add(NAN)

    def test_minus_inf_is_still_a_legal_first_export(self):
        h = ExportHistory()
        h.add(-math.inf)
        with pytest.raises(ValidationError, match="must increase"):
            h.add(-math.inf)
        h.add(0.0)
        assert len(h) == 2

    @pytest.mark.parametrize("stamps", [[NAN], [NAN, 1.0], [1.0, NAN, 3.0], [1.0, NAN]])
    def test_replace_rejects_nan_anywhere(self, stamps):
        h = ExportHistory()
        h.add(5.0)
        with pytest.raises(ValidationError, match="NaN.*nan"):
            h.replace(stamps)
        assert h.all_timestamps() == [5.0]  # untouched by the failed load

    @pytest.mark.parametrize("backend", MATCH_BACKENDS)
    @pytest.mark.parametrize("strict_order", [True, False])
    def test_nan_request_rejected_in_both_order_modes(self, backend, strict_order):
        eng = make_backend(
            MatchPolicy(PolicyKind.REGL, 1.0), backend, strict_order=strict_order
        )
        eng.record_export(1.0)
        eng.evaluate(0.5)
        for ask in (
            lambda: eng.check_request_order(NAN),
            lambda: eng.evaluate(NAN),
            lambda: eng.evaluate_batch([0.75, NAN], record=True),
            lambda: eng.evaluate_batch([2.0 + k for k in range(50)] + [NAN], record=True),
        ):
            with pytest.raises(ValidationError, match="NaN.*nan"):
                ask()
        assert eng.last_request_ts == 51.0  # the mark never became NaN

    @pytest.mark.parametrize("closed", [False, True])
    def test_unrecorded_nan_request_never_matches(self, closed):
        # record=False skips the order check; a NaN re-evaluation must
        # then agree with the reference: PENDING, or NO_MATCH once closed.
        want = MatchKind.NO_MATCH if closed else MatchKind.PENDING
        for n in (1, 50):
            responses = []
            for backend in MATCH_BACKENDS:
                eng = make_backend(MatchPolicy(PolicyKind.REG, 1.0), backend)
                eng.record_export(1.0)
                if closed:
                    eng.close_stream()
                responses.append(list(eng.evaluate_batch([NAN] * n)))
                responses.append([eng.evaluate(NAN, record=False)])
            for got in responses:
                assert all(r.kind is want and r.matched_ts is None for r in got)


class TestEvaluate:
    def test_pending_until_stream_reaches_request(self):
        e = regl()
        for k in range(14):
            e.record_export(1.6 + k)  # up to 14.6
        r = e.evaluate(20.0)
        assert r.kind is MatchKind.PENDING
        assert r.latest_export_ts == 14.6
        assert r.matched_ts is None

    def test_match_once_decidable(self):
        e = regl()
        for k in range(20):
            e.record_export(1.6 + k)  # up to 20.6 > 20
        r = e.evaluate(20.0)
        assert r.kind is MatchKind.MATCH
        assert r.matched_ts == 19.6

    def test_exact_boundary_is_decidable_and_best(self):
        e = regl()
        e.record_export(17.5)
        e.record_export(20.0)
        r = e.evaluate(20.0)
        assert r.kind is MatchKind.MATCH
        assert r.matched_ts == 20.0

    def test_no_match_when_region_empty(self):
        e = regl(tol=0.5)
        e.record_export(10.0)
        e.record_export(30.0)
        r = e.evaluate(20.0)
        assert r.kind is MatchKind.NO_MATCH

    def test_closed_stream_decides_pending(self):
        e = regl()
        e.record_export(18.0)
        e.close_stream()
        r = e.evaluate(20.0)
        assert r.kind is MatchKind.MATCH
        assert r.matched_ts == 18.0

    def test_closed_stream_no_match(self):
        e = regl(tol=1.0)
        e.record_export(5.0)
        e.close_stream()
        assert e.evaluate(20.0).kind is MatchKind.NO_MATCH

    def test_empty_closed_stream(self):
        e = regl()
        e.close_stream()
        assert e.evaluate(20.0).kind is MatchKind.NO_MATCH

    def test_request_order_enforced(self):
        e = regl()
        e.record_export(100.0)
        e.evaluate(20.0)
        with pytest.raises(ValueError, match="must increase"):
            e.evaluate(20.0)
        with pytest.raises(ValueError):
            e.evaluate(10.0)

    def test_reevaluation_does_not_record(self):
        e = regl()
        e.record_export(10.0)
        assert e.evaluate(20.0).kind is MatchKind.PENDING
        # Slow-path re-evaluation of the same request is allowed.
        e.record_export(19.0)
        e.record_export(21.0)
        r = e.evaluate(20.0, record=False)
        assert r.kind is MatchKind.MATCH
        assert r.matched_ts == 19.0

    def test_shared_history_across_engines(self):
        h = ExportHistory()
        a = MatchEngine(MatchPolicy(PolicyKind.REGL, 2.5), history=h)
        b = MatchEngine(MatchPolicy(PolicyKind.REGU, 2.5), history=h)
        h.add(19.6)
        h.add(20.2)
        ra = a.evaluate(20.0)
        rb = b.evaluate(20.0)
        assert ra.matched_ts == 19.6   # REGL: closest below
        assert rb.matched_ts == 20.2   # REGU: closest above


class TestEngineProperties:
    @given(
        exports=st.lists(
            st.floats(0.1, 100, allow_nan=False), min_size=1, max_size=60, unique=True
        ),
        request=st.floats(0.1, 100, allow_nan=False),
        tol=st.floats(0, 20, allow_nan=False),
        kind=st.sampled_from([PolicyKind.REGL, PolicyKind.REGU, PolicyKind.REG]),
    )
    @settings(max_examples=200, deadline=None)
    def test_definitive_answers_are_stable_under_more_exports(
        self, exports, request, tol, kind
    ):
        """Once decidable, later exports can never change the answer.

        This is the soundness property that makes Property 1 and
        buddy-help correct: a definitive response is final.
        """
        exports = sorted(exports)
        policy = MatchPolicy(kind, tol)
        engine = MatchEngine(policy)
        answered = None
        for i, ts in enumerate(exports):
            engine.record_export(ts)
            r = engine.evaluate(request, record=False)
            if r.is_definitive and answered is None:
                answered = r
            elif answered is not None:
                assert r.kind is answered.kind
                assert r.matched_ts == answered.matched_ts
        del i

    @given(
        exports=st.lists(
            st.floats(0.1, 100, allow_nan=False), min_size=0, max_size=40, unique=True
        ),
        request=st.floats(0.1, 100, allow_nan=False),
        tol=st.floats(0, 10, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_match_is_best_in_region(self, exports, request, tol):
        exports = sorted(exports)
        policy = MatchPolicy(PolicyKind.REGL, tol)
        engine = MatchEngine(policy)
        for ts in exports:
            engine.record_export(ts)
        engine.close_stream()
        r = engine.evaluate(request)
        in_region = [t for t in exports if policy.in_region(t, request)]
        if in_region:
            assert r.kind is MatchKind.MATCH
            assert r.matched_ts == max(in_region)  # REGL: closest to request
        else:
            assert r.kind is MatchKind.NO_MATCH
