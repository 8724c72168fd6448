"""Mutation self-tests for the model checker.

Each fixture deliberately breaks one protocol mechanism; the checker
must rediscover the resulting failure with the expected M-rule and a
replayable counterexample schedule.  This is the evidence that the
checker checks the *real* code: a mutation of the implementation
changes the verdict.
"""

from repro.analysis.model import MUTATIONS, SCHEMA, mutation_config


def _rules(suite):
    return sorted({f.rule for f in suite.report.findings})


class TestNoDedup:
    """Sequence-number dedup disabled -> duplicate delivery reaches the
    rep state machines and violates the monotone-timestamp protocol
    contract (M203: the aggregation left its five legal cases)."""

    def test_caught_with_expected_rule(self, no_dedup_suite):
        assert not no_dedup_suite.clean
        assert "M203" in _rules(no_dedup_suite)

    def test_counterexample_is_well_formed(self, no_dedup_suite):
        cexs = [c for c in no_dedup_suite.counterexamples if c["rule"] == "M203"]
        assert cexs, "no M203 counterexample schedule"
        cex = cexs[0]
        assert cex["schema"] == SCHEMA
        assert cex["kind"] == "counterexample"
        assert len(cex["actions"]) > 0
        assert cex["config"]["mutate"] == "no_dedup"
        assert cex["world"].startswith("dup")


class TestNoAnswerCache:
    """Rep answer cache skipped -> a retransmitted request whose answer
    was already finalized goes unanswered forever (M202 livelock)."""

    def test_caught_with_expected_rule(self, no_answer_cache_suite):
        assert not no_answer_cache_suite.clean
        assert "M202" in _rules(no_answer_cache_suite)

    def test_counterexample_is_well_formed(self, no_answer_cache_suite):
        cexs = [
            c for c in no_answer_cache_suite.counterexamples if c["rule"] == "M202"
        ]
        assert cexs, "no M202 counterexample schedule"
        cex = cexs[0]
        assert cex["schema"] == SCHEMA
        assert cex["kind"] == "counterexample"
        assert cex["config"]["mutate"] == "no_answer_cache"
        assert cex["world"].startswith("drop")


class TestNoMustSend:
    """A buddy-learned match left out of ``must_send`` -> the slow rank
    skips the very object the collective matched.  No import blocks and
    no call raises, so nothing but M206 can see it."""

    def test_caught_with_exactly_the_expected_rule(self, no_must_send_suite):
        assert _rules(no_must_send_suite) == ["M206"]
        hits = {name: r.stats["rule_hits"] for name, r in no_must_send_suite.worlds}
        # The canonical form covers the ledger's sent set (was_sent()
        # outlives freeing): terminal states that differ only in whether
        # a freed match was sent are told apart, 4 -> 8 and 6 -> 12 hits.
        assert hits == {"clean": {"M206": 8}, "buddy": {"M206": 12}}
        counts = {
            name: (r.stats["states"], r.stats["transitions"])
            for name, r in no_must_send_suite.worlds
        }
        assert counts == {"clean": (7_604, 18_042), "buddy": (13_395, 33_131)}

    def test_counterexample_is_well_formed(self, no_must_send_suite):
        (cex,) = no_must_send_suite.counterexamples
        assert cex["schema"] == SCHEMA
        assert cex["kind"] == "counterexample"
        assert cex["rule"] == "M206"
        assert cex["config"]["mutate"] == "no_must_send"
        assert cex["world"] == "clean"
        assert "E.p1@3.5" in cex["message"]
        # A slow rank hears the answer, then skips the match: the
        # schedule ends in that rank's exports and close.
        assert cex["actions"][-3:] == [["export", 1], ["export", 1], ["close", 1]]


class TestMutationRegistry:
    def test_known_mutations(self):
        assert MUTATIONS == ("no_dedup", "no_answer_cache", "no_must_send")

    def test_mutation_worlds_target_the_rep_plane(self):
        for name in MUTATIONS:
            assert mutation_config(name).fault_planes == ("rep",)
