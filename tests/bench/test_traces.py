"""Tests asserting the ``fig5`` / ``fig7`` runs reproduce the paper's figures.

Each figure is ``p_s.trace`` of a ``repro run --trace`` row: numbered
lines in the paper's notation, read here as the figures are read.
"""

import re
from functools import cache

from repro.bench.rows import memcpy_count, optimal_iteration_of, run_row
from repro.core.exporter import ExportDecision
from repro.scenarios import build


@cache
def _p_s(scenario: str, buddy_help: bool = True) -> dict:
    """``p_s``'s block of a traced row (shared by the tests: do not mutate)."""
    params = {} if buddy_help else {"buddy_help": False}
    return run_row(scenario, build(scenario, params), trace=True)["p_s"]


def figure5() -> dict:
    return _p_s("fig5")


def figure7() -> dict:
    return _p_s("fig7")


def figure8() -> dict:
    return _p_s("fig7", buddy_help=False)


def lines(ps: dict) -> list[str]:
    """The trace without its line numbers."""
    return [line.split("  ", 2)[-1] for line in ps["trace"]]


def stamps(text: list[str], pattern: str) -> list[float]:
    """The ``D@t`` of every line of *text* matching *pattern* (group 1 is ``t``)."""
    return [float(m.group(1)) for m in map(re.compile(pattern).fullmatch, text) if m]


SKIP = r"export D@([\d.]+), skip memcpy\."
MEMCPY = r"export D@([\d.]+), call memcpy\."
SEND = r"send D@([\d.]+) out\."


class TestFigure5:
    def test_skip_runs_grow_four_then_seven(self):
        """The paper's headline numbers: 4 memcpys skipped in the first
        window, 7 in the second."""
        skips = stamps(lines(figure5()), SKIP)
        first_window = [t for t in skips if t < 20]
        second_window = [t for t in skips if 20 < t < 40]
        assert first_window == [15.6, 16.6, 17.6, 18.6]      # 4 skips
        assert second_window == [32.6, 33.6, 34.6, 35.6, 36.6, 37.6, 38.6]  # 7

    def test_matches_sent(self):
        assert stamps(lines(figure5()), SEND) == [19.6, 39.6]

    def test_initial_exports_all_buffered(self):
        memcpys = stamps(lines(figure5()), MEMCPY)
        assert memcpys[:14] == [1.6 + k for k in range(14)]

    def test_pending_reply_carries_latest_export(self):
        s = figure5()
        assert stamps(lines(s), r"receive request for D@([\d.]+)\.") == [20.0, 40.0]
        replies = [line for line in lines(s) if line.startswith("reply ")]
        assert replies[0] == "reply {D@20, PENDING, D@14.6}."

    def test_eviction_below_region(self):
        ranged = [line for line in lines(figure5()) if ", ..., " in line]
        assert ranged[0] == "remove D@1.6, ..., D@14.6."

    def test_rendered_lines_match_paper_notation(self):
        text = "\n".join(lines(figure5()))
        assert "export D@1.6, call memcpy." in text
        assert "reply {D@20, PENDING, D@14.6}." in text
        assert "receive buddy-help {D@20, YES, D@19.6}." in text
        assert "export D@15.6, skip memcpy." in text
        assert "send D@19.6 out." in text
        assert "remove D@1.6, ..., D@14.6." in text


class TestFigure7:
    def test_all_in_region_non_matches_skipped(self):
        s = figure7()
        assert s["decisions"]["skip"] == 5  # 4.6, 5.6, 6.6, 7.6, 8.6
        assert stamps(lines(s), SKIP) == [4.6, 5.6, 6.6, 7.6, 8.6]

    def test_match_and_following_export_buffered(self):
        assert stamps(lines(figure7()), MEMCPY) == [1.6, 2.6, 3.6, 9.6, 10.6]

    def test_no_in_region_churn(self):
        """With buddy-help, T_i = 0: no in-region buffer was wasted."""
        assert figure7()["t_ub"] == 0.0


class TestFigure8:
    def test_below_region_still_skipped(self):
        assert stamps(lines(figure8()), SKIP) == [4.6]

    def test_in_region_buffer_and_replace_churn(self):
        s = figure8()
        # 5.6..9.6 all buffered as successive candidates, plus 10.6.
        assert stamps(lines(s), MEMCPY) == [1.6, 2.6, 3.6, 5.6, 6.6, 7.6, 8.6, 9.6, 10.6]
        # The candidate churn: every single remove before the match is sent
        # (after it, the sent 9.6 itself is freed).
        text = lines(s)
        churn = text[: text.index("send D@9.6 out.")]
        assert stamps(churn, r"remove D@([\d.]+)\.") == [5.6, 6.6, 7.6, 8.6]

    def test_match_found_only_after_leaving_region(self):
        s = figure8()
        assert stamps(lines(s), SEND) == [9.6]
        # p_s finds the match at the 10.6 export: the send is its next line
        # (one unit memcpy later), then the slow-path MATCH reply.
        text = lines(s)
        at = text.index("export D@10.6, call memcpy.")
        assert text[at + 1 : at + 3] == [
            "send D@9.6 out.", "reply {D@10, MATCH, D@10.6}."
        ]

    def test_t_ub_positive_without_buddy(self):
        """Eq. 1: four wasted in-region memcpys (5.6..8.6) at unit cost."""
        assert figure8()["t_ub"] == 4.0


class TestBuddyVsNoBuddyComparison:
    def test_buddy_eliminates_exactly_the_churn(self):
        with_b = figure7()["decisions"]
        without = figure8()["decisions"]
        assert memcpy_count(with_b) < memcpy_count(without)
        assert with_b["skip"] > without["skip"]
        saved = memcpy_count(without) - memcpy_count(with_b)
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
