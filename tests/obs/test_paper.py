"""The paper quantities: Eq. 1–2 T_ub, buddy savings, PENDING latency.

The headline assertion of the layer lives here: the with-help run's
*measured counterfactual* (`t_ub_no_help_estimate`) equals the T_ub of
an actual buddy-help-off run of the same scenario — the Figure 7 vs.
Figure 8 comparison, measured instead of modelled.
"""

import pytest

import repro
from repro.core.coupler import RegionDef
from repro.data import BlockDecomposition
from repro.obs.paper import compute_paper_metrics
from repro.util import tracing
from repro.util.tracing import Tracer, format_trace


class TestTubAccounting:
    def test_matches_buffer_ledgers(self, demo_result):
        paper = demo_result.paper_metrics
        ledger_total = sum(
            demo_result.buffer_stats("F", rank, "d").t_ub for rank in (0, 1)
        )
        assert paper.t_ub_total == pytest.approx(ledger_total)
        assert paper.t_ub_total == pytest.approx(sum(paper.t_ub_by_rank.values()))

    def test_windows_sum_to_total(self, demo_result):
        paper = demo_result.paper_metrics
        assert sum(paper.t_by_window.values()) == pytest.approx(paper.t_ub_total)


class TestBuddySavings:
    def test_positive_saving_with_help(self, demo_result):
        paper = demo_result.paper_metrics
        assert paper.buddy_helps_sent > 0
        assert paper.buddy_answers_received > 0
        assert paper.buddy_skips > 0
        assert paper.t_ub_saving > 0

    def test_counterfactual_matches_real_no_help_run(
        self, demo_result, demo_result_nohelp
    ):
        with_help = demo_result.paper_metrics
        without = demo_result_nohelp.paper_metrics
        assert with_help.t_ub_total < without.t_ub_total
        assert with_help.t_ub_no_help_estimate == pytest.approx(without.t_ub_total)

    def test_no_help_run_reports_no_savings(self, demo_result_nohelp):
        paper = demo_result_nohelp.paper_metrics
        assert paper.buddy_saved_total == 0.0
        assert paper.t_ub_saving == 0.0
        assert paper.t_ub_no_help_estimate == pytest.approx(paper.t_ub_total)


class TestLagAndPending:
    def test_slowest_lag_identifies_the_slow_program(self, demo_result):
        paper = demo_result.paper_metrics
        # F has a 4x-slow rank; U's ranks run identical loops.
        assert paper.slowest_lag_by_program["F"] > 0.0
        assert paper.slowest_lag_by_program["U"] == pytest.approx(0.0, abs=1e-12)

    def test_pending_latency_from_trace(self, demo_result):
        # A tracer watched this run; the latency still comes from the
        # importers' records, so watching cannot move it.
        assert demo_result.tracer is not None
        latencies = [
            rec.answered_at - rec.issued_at
            for prog in demo_result.simulation._programs.values()
            for ctx in prog.contexts
            for ist in ctx.import_states.values()
            for rec in ist.records
        ]
        paper = compute_paper_metrics(demo_result.simulation)
        assert paper.pending_resolution_source == "import_records"
        assert paper.pending_resolution == {
            "count": float(len(latencies)),
            "mean": pytest.approx(sum(latencies) / len(latencies)),
            "max": max(latencies),
        }

    def test_two_connections_sharing_a_pending_request(self):
        """End to end: G's request at 20 stays PENDING three times as
        long as F's, and its resolution waits for G's own finalize."""
        tracer = Tracer()
        config = (
            "F c0 /bin/F 1\nG c0 /bin/G 1\nU c1 /bin/U 1\n#\n"
            "F.d U.a REGL 2.5\nG.d U.b REGL 2.5\n"
        )

        def exporter(step):
            def main(ctx):
                for k in range(30):
                    yield from ctx.export("d", 1.6 + k)
                    yield from ctx.compute(step)
            return main

        def importer(ctx):
            yield from ctx.compute(0.001)
            a, b = ctx.import_begin("a", 20.0), ctx.import_begin("b", 20.0)
            yield from ctx.import_wait(a)
            yield from ctx.import_wait(b)

        def regions(*names):
            return {name: RegionDef(BlockDecomposition((8, 8), (1, 1))) for name in names}

        result = repro.run(
            config,
            [
                repro.Program("F", main=exporter(0.001), regions=regions("d")),
                repro.Program("G", main=exporter(0.003), regions=regions("d")),
                repro.Program("U", main=importer, regions=regions("a", "b")),
            ],
            repro.RunOptions(tracer=tracer, causal_trace=True),
        )
        recv = {e.detail["cid"]: e.time for e in tracer.filter(tracing.REQUEST_RECV)}
        final = {e.detail["cid"]: e.time for e in tracer.filter(tracing.REP_FINALIZE)}
        assert set(recv) == set(final) == {"F.d->U.a", "G.d->U.b"}
        assert final["G.d->U.b"] - recv["G.d->U.b"] > 2 * (final["F.d->U.a"] - recv["F.d->U.a"])
        # Each connection's request resolves on its own finalize: G's later.
        resolved = {r.connection_id: r.resolved_at for r in result.causal.resolutions}
        assert set(resolved) == {"F.d->U.a", "G.d->U.b"}
        assert resolved["G.d->U.b"] > resolved["F.d->U.a"]
        assert resolved["G.d->U.b"] >= final["G.d->U.b"]
        # The paper line of a finalize does not name the connection.
        assert format_trace(tracer.filter(tracing.REP_FINALIZE), numbered=False) == (
            "rep finalize {D@20, MATCH}.\nrep finalize {D@20, MATCH}."
        )

    def test_pending_latency_without_a_tracer(self, demo_result_nohelp):
        paper = compute_paper_metrics(demo_result_nohelp.simulation)
        assert paper.pending_resolution_source == "import_records"
        assert paper.pending_resolution["count"] >= 1


class TestSerialization:
    def test_as_dict_is_json_shaped(self, demo_result):
        import json

        d = demo_result.paper_metrics.as_dict()
        json.dumps(d)  # must not raise
        assert d["t_ub_total"] >= 0.0
        assert "t_ub_saving" in d

    def test_render_uses_paper_notation(self, demo_result):
        out = demo_result.paper_metrics.render()
        assert "T_ub" in out
        assert "Eq. 2" in out
