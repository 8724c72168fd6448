"""Resilience behaviour of the rep state machines and the full DES loop.

Unit half: the ``strict_order=False`` retransmission branches of
:class:`ExporterRep` and the repeat-ask re-drive of
:class:`ImporterRep`.  Integration half: spurious retransmissions and
total buddy-message loss must leave the final answers byte-identical
to a fault-free run.
"""

from typing import Any, Generator

import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, ProcessContext, RegionDef
from repro.core.rep import (
    AnswerImporter,
    DeliverAnswer,
    ExporterRep,
    ForwardRequest,
    ForwardToExporter,
    ImporterRep,
)
from repro.core.wire import BuddyMsg
from repro.data.decomposition import BlockDecomposition
from repro.faults import FaultPlan
from repro.match.result import FinalAnswer, MatchKind, MatchResponse

CID = "E.d->I.d"


def match(ts=20.0, m=19.6, latest=21.0):
    return MatchResponse(
        request_ts=ts, kind=MatchKind.MATCH, matched_ts=m, latest_export_ts=latest
    )


def no_match(ts=20.0):
    return MatchResponse(request_ts=ts, kind=MatchKind.NO_MATCH, latest_export_ts=30.0)


def pending(ts=20.0, latest=14.6):
    return MatchResponse(request_ts=ts, kind=MatchKind.PENDING, latest_export_ts=latest)


class TestExporterRepRetransmission:
    def relaxed(self, nprocs=3):
        return ExporterRep("E", nprocs=nprocs, connection_ids=[CID], strict_order=False)

    def test_finalized_match_reanswers_and_redrives_all_ranks(self):
        rep = self.relaxed()
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 0, match())
        directives = rep.on_request(CID, 20.0)  # retransmission
        answers = [d for d in directives if isinstance(d, AnswerImporter)]
        forwards = [d for d in directives if isinstance(d, ForwardRequest)]
        assert len(answers) == 1
        assert answers[0].answer == rep.answer_for(CID, 20.0)
        # MATCH: the pieces may have been lost too, so every rank is
        # re-driven (agents re-send idempotently; importers dedup).
        assert sorted(f.rank for f in forwards) == [0, 1, 2]
        assert rep.duplicate_requests == 1
        assert rep.cached_answers_served == 1

    def test_finalized_no_match_reanswers_from_cache_only(self):
        rep = self.relaxed()
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 0, no_match())
        directives = rep.on_request(CID, 20.0)
        assert len(directives) == 1
        assert isinstance(directives[0], AnswerImporter)
        assert directives[0].answer.kind is MatchKind.NO_MATCH

    def test_open_duplicate_redrives_all_still_pending_ranks(self):
        # While a request is open every response so far is PENDING
        # (the first definitive one finalizes it — Property 1), so a
        # duplicate re-forwards to the whole program.
        rep = self.relaxed(nprocs=3)
        rep.on_request(CID, 20.0)
        rep.on_response(CID, 1, pending())
        directives = rep.on_request(CID, 20.0)
        assert all(isinstance(d, ForwardRequest) for d in directives)
        assert sorted(d.rank for d in directives) == [0, 1, 2]
        assert not any(isinstance(d, AnswerImporter) for d in directives)

    def test_relaxed_mode_still_counts_fresh_requests_once(self):
        rep = self.relaxed()
        rep.on_request(CID, 20.0)
        rep.on_request(CID, 20.0)
        rep.on_request(CID, 22.0)
        assert rep.requests_seen == 2
        assert rep.duplicate_requests == 1


class TestImporterRepRetransmission:
    def test_repeat_ask_while_waiting_redrives_request(self):
        rep = ImporterRep("I", nprocs=2, connection_ids=[CID])
        first = rep.on_process_request(CID, 20.0, rank=0)
        assert [type(d) for d in first] == [ForwardToExporter]
        again = rep.on_process_request(CID, 20.0, rank=0)  # retransmission
        assert [type(d) for d in again] == [ForwardToExporter]
        assert rep.duplicate_asks == 1
        assert rep.forwarded_count == 1  # still one logical request

    def test_late_first_ask_does_not_redrive(self):
        rep = ImporterRep("I", nprocs=2, connection_ids=[CID])
        rep.on_process_request(CID, 20.0, rank=0)
        late = rep.on_process_request(CID, 20.0, rank=1)  # first ask by rank 1
        assert late == []
        assert rep.duplicate_asks == 0

    def test_repeat_ask_after_answer_redrives_for_lost_pieces(self):
        # The rank has the answer but re-asks: its data pieces were
        # lost.  The rep must re-drive the exporter side *and* re-serve
        # the answer.
        rep = ImporterRep("I", nprocs=2, connection_ids=[CID])
        rep.on_process_request(CID, 20.0, rank=0)
        rep.on_answer(CID, FinalAnswer(request_ts=20.0, kind=MatchKind.MATCH,
                                       matched_ts=19.6))
        again = rep.on_process_request(CID, 20.0, rank=0)
        assert [type(d) for d in again] == [ForwardToExporter, DeliverAnswer]


# ---------------------------------------------------------------------------
# integration: the full DES loop
# ---------------------------------------------------------------------------

def run_scenario(exports=16, requests=6, victim=None, **cs_kwargs):
    """A small E(2) → I(2) run; returns (answers, cs)."""
    shape = (32, 32)
    config = (
        "E c0 /bin/E 2\n"
        "I c1 /bin/I 2\n"
        "#\n"
        "E.d I.d REGL 2.5\n"
    )
    answers: dict[int, list] = {}

    def e_main(ctx: ProcessContext) -> Generator[Any, Any, None]:
        scale = 2.0 if ctx.rank == 1 else 1.0
        for k in range(exports):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(2e-3 * scale)

    def i_main(ctx: ProcessContext) -> Generator[Any, Any, None]:
        got = []
        for j in range(1, requests + 1):
            yield from ctx.compute(5e-4)
            ts = 2.0 * j
            m, _block = yield from ctx.import_("d", ts)
            got.append((ts, m))
        answers[ctx.rank] = got

    cs = CoupledSimulation(config, options=RunOptions(seed=0, **cs_kwargs))
    cs.add_program(
        "E", main=e_main, regions={"d": RegionDef(BlockDecomposition(shape, (2, 1)))}
    )
    cs.add_program(
        "I", main=i_main, regions={"d": RegionDef(BlockDecomposition(shape, (1, 2)))}
    )
    if victim is not None:
        cs.world.network.victim = victim
    cs.run()
    return answers, cs


class TestFullLoopResilience:
    def test_spurious_retransmissions_do_not_change_answers(self):
        baseline, _ = run_scenario()
        # An absurdly small timeout fires long before any genuine
        # answer can arrive, so every request is retransmitted — the
        # dedup chain must absorb all of it.
        answers, cs = run_scenario(retransmit_timeout=1e-4)
        assert answers == baseline
        assert cs.retransmissions > 0
        imp_rep = cs._programs["I"].imp_rep
        exp_rep = cs._programs["E"].exp_rep
        assert imp_rep.duplicate_asks > 0
        assert exp_rep.duplicate_requests > 0

    def test_total_buddy_loss_degrades_gracefully(self):
        baseline, base_cs = run_scenario()
        base_skips = base_cs.context("E", 1).stats.decisions().get("skip", 0)
        assert base_skips > 0  # the slow rank does benefit from buddy help
        answers, cs = run_scenario(
            fault_plan=FaultPlan(seed=5, drop=1.0),
            victim=lambda src, dst, p: isinstance(p, BuddyMsg),
        )
        assert answers == baseline
        dropped = cs.world.network.stats.dropped
        assert dropped > 0
        # Without buddy help the slow rank cannot skip dead timestamps:
        # correctness holds, only the buffering economics degrade.
        skips = cs.context("E", 1).stats.decisions().get("skip", 0)
        assert skips <= base_skips
        t_ub = cs.buffer_stats("E", 1, "d").t_ub
        base_t_ub = base_cs.buffer_stats("E", 1, "d").t_ub
        assert t_ub >= base_t_ub

    @pytest.mark.parametrize("drop", [0.1, 0.3])
    def test_control_plane_drops_recover_byte_identical(self, drop):
        baseline, _ = run_scenario()
        plan = FaultPlan(seed=11, drop=drop, dup=0.1, delay_jitter=5e-5, reorder=0.1)
        answers, cs = run_scenario(fault_plan=plan)
        assert answers == baseline
        assert cs.world.network.stats.dropped > 0
