"""Tests asserting the ``fig5`` / ``fig7`` runs reproduce the paper's figures."""

from repro.bench.rows import optimal_iteration_of
from repro.bench.traces import (
    scenario_fig5,
    scenario_fig7_with_buddy,
    scenario_fig8_without_buddy,
)
from repro.core.exporter import ExportDecision
from repro.util import tracing


class TestFigure5:
    def test_skip_runs_grow_four_then_seven(self):
        """The paper's headline numbers: 4 memcpys skipped in the first
        window, 7 in the second."""
        s = scenario_fig5()
        skips = [e.timestamp for e in s.events if e.kind == tracing.EXPORT_SKIP]
        first_window = [t for t in skips if t < 20]
        second_window = [t for t in skips if 20 < t < 40]
        assert first_window == [15.6, 16.6, 17.6, 18.6]      # 4 skips
        assert second_window == [32.6, 33.6, 34.6, 35.6, 36.6, 37.6, 38.6]  # 7

    def test_matches_sent(self):
        s = scenario_fig5()
        sends = [e.timestamp for e in s.events if e.kind == tracing.EXPORT_SEND]
        assert sends == [19.6, 39.6]

    def test_initial_exports_all_buffered(self):
        s = scenario_fig5()
        memcpys = [e.timestamp for e in s.events if e.kind == tracing.EXPORT_MEMCPY]
        assert memcpys[:14] == [1.6 + k for k in range(14)]

    def test_pending_reply_carries_latest_export(self):
        s = scenario_fig5()
        replies = [e for e in s.events if e.kind == tracing.REQUEST_RECV]
        assert [e.detail["request"] for e in replies] == [20.0, 40.0]
        reply_events = [e for e in s.events if e.kind == tracing.REQUEST_REPLY]
        assert reply_events[0].detail["answer"] == "PENDING"
        assert reply_events[0].detail["latest"] == 14.6

    def test_eviction_below_region(self):
        s = scenario_fig5()
        removes = [e for e in s.events if e.kind == tracing.BUFFER_REMOVE]
        ranged = [e for e in removes if "low" in e.detail]
        assert ranged[0].detail == {"low": 1.6, "high": 14.6}

    def test_rendered_lines_match_paper_notation(self):
        text = scenario_fig5().rendered(numbered=False)
        assert "export D@1.6, call memcpy." in text
        assert "reply {D@20, PENDING, D@14.6}." in text
        assert "receive buddy-help {D@20, YES, D@19.6}." in text
        assert "export D@15.6, skip memcpy." in text
        assert "send D@19.6 out." in text
        assert "remove D@1.6, ..., D@14.6." in text


class TestFigure7:
    def test_all_in_region_non_matches_skipped(self):
        s = scenario_fig7_with_buddy()
        assert s.skip_count() == 5  # 4.6, 5.6, 6.6, 7.6, 8.6
        skips = [e.timestamp for e in s.events if e.kind == tracing.EXPORT_SKIP]
        assert skips == [4.6, 5.6, 6.6, 7.6, 8.6]

    def test_match_and_following_export_buffered(self):
        s = scenario_fig7_with_buddy()
        memcpys = [e.timestamp for e in s.events if e.kind == tracing.EXPORT_MEMCPY]
        assert memcpys == [1.6, 2.6, 3.6, 9.6, 10.6]

    def test_no_in_region_churn(self):
        """With buddy-help, T_i = 0: no in-region buffer was wasted."""
        s = scenario_fig7_with_buddy()
        assert s.t_ub == 0.0


class TestFigure8:
    def test_below_region_still_skipped(self):
        s = scenario_fig8_without_buddy()
        skips = [e.timestamp for e in s.events if e.kind == tracing.EXPORT_SKIP]
        assert skips == [4.6]

    def test_in_region_buffer_and_replace_churn(self):
        s = scenario_fig8_without_buddy()
        memcpys = [e.timestamp for e in s.events if e.kind == tracing.EXPORT_MEMCPY]
        # 5.6..9.6 all buffered as successive candidates, plus 10.6.
        assert memcpys == [1.6, 2.6, 3.6, 5.6, 6.6, 7.6, 8.6, 9.6, 10.6]
        removes = [
            e.timestamp
            for e in s.events
            if e.kind == tracing.BUFFER_REMOVE and "low" not in e.detail
        ]
        assert removes == [5.6, 6.6, 7.6, 8.6]

    def test_match_found_only_after_leaving_region(self):
        s = scenario_fig8_without_buddy()
        sends = [e for e in s.events if e.kind == tracing.EXPORT_SEND]
        assert [e.timestamp for e in sends] == [9.6]
        # p_s finds the match at the 10.6 export: the send is its next line
        # (one unit memcpy later), then the slow-path MATCH reply.
        lines = s.rendered(numbered=False).splitlines()
        at = lines.index("export D@10.6, call memcpy.")
        assert lines[at + 1 : at + 3] == [
            "send D@9.6 out.", "reply {D@10, MATCH, D@10.6}."
        ]

    def test_t_ub_positive_without_buddy(self):
        """Eq. 1: four wasted in-region memcpys (5.6..8.6) at unit cost."""
        s = scenario_fig8_without_buddy()
        assert s.t_ub == 4.0


class TestBuddyVsNoBuddyComparison:
    def test_buddy_eliminates_exactly_the_churn(self):
        with_b = scenario_fig7_with_buddy()
        without = scenario_fig8_without_buddy()
        assert with_b.memcpy_count() < without.memcpy_count()
        assert with_b.skip_count() > without.skip_count()
        saved = without.memcpy_count() - with_b.memcpy_count()
        assert saved == 4  # the four churned candidates


class TestOptimalStatePredicate:
    """Figure 6's optimal state, as :func:`optimal_iteration_of` defines it:
    no export after the returned index is blindly buffered."""

    def _records(self, decisions):
        class R:
            def __init__(self, i, d):
                self.ts, self.decision = 1.6 + i, d

        return [R(i, d) for i, d in enumerate(decisions)]

    def test_pure_skip_send_tail_is_optimal(self):
        recs = self._records(
            [ExportDecision.BUFFER] * 5
            + [ExportDecision.SKIP] * 18
            + [ExportDecision.SEND]
            + [ExportDecision.SKIP] * 1
        )
        assert optimal_iteration_of(recs) == 5

    def test_buffer_in_tail_is_not_optimal(self):
        recs = self._records(
            [ExportDecision.SKIP] * 10
            + [ExportDecision.BUFFER]
            + [ExportDecision.SKIP] * 9
        )
        assert optimal_iteration_of(recs) == 11
        # A window that ends on the blind buffer never reaches the state.
        assert optimal_iteration_of(recs, cutoff_ts=recs[10].ts) is None

    def test_empty_records(self):
        assert optimal_iteration_of([]) is None
