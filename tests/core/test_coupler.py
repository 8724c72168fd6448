"""End-to-end tests of CoupledSimulation on the DES runtime."""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exceptions import ConfigError
from repro.core.exporter import ExportDecision
from repro.core.live import LiveCoupledSimulation
from repro.costs import FAST_TEST
from repro.data.decomposition import BlockDecomposition
from repro.util import tracing
from repro.util.tracing import Tracer

TWO_BY_TWO = """
F c0 /bin/F 2
U c1 /bin/U 2
#
F.field U.field REGL 2.5
"""


def build_basic(buddy=True, f_slow=3.0, exports=60, requests=(20.0, 40.0, 60.0),
                with_data=True, tracer=None, seed=0):
    """A small F(2 ranks, rank 1 slow) -> U(2 ranks) coupling."""
    results = {}

    def f_main(ctx):
        scale = f_slow if ctx.rank == 1 else 1.0
        shape = ctx.local_region("field").shape
        for k in range(exports):
            ts = 1.6 + k
            data = np.full(shape, ts) if with_data else None
            yield from ctx.export("field", ts, data=data)
            yield from ctx.compute(0.001 * scale)

    def u_main(ctx):
        got = []
        for ts in requests:
            yield from ctx.compute(0.0005)
            m, block = yield from ctx.import_("field", ts)
            got.append((ts, m, None if block is None else float(block.mean())))
        results[ctx.rank] = got

    cs = CoupledSimulation(
        TWO_BY_TWO,
        options=RunOptions(
            preset=FAST_TEST,
            buddy_help=buddy,
            tracer=tracer,
            seed=seed,
        ),
    )
    cs.add_program("F", main=f_main,
                   regions={"field": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    cs.add_program("U", main=u_main,
                   regions={"field": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    return cs, results


class TestDataPlane:
    def test_matched_data_arrives_correctly(self):
        cs, results = build_basic()
        cs.run()
        assert set(results) == {0, 1}
        assert results[0] == results[1]  # collective: same answers everywhere
        for ts, m, mean in results[0]:
            assert m == pytest.approx(ts - 0.4)  # REGL: closest below
            assert mean == pytest.approx(m)      # payload content preserved

    def test_cost_only_mode_returns_no_block(self):
        cs, results = build_basic(with_data=False)
        cs.run()
        for _ts, m, mean in results[0]:
            assert m is not None
            assert mean is None

    def test_no_match_path(self):
        # Requests far beyond anything exported with a tiny stream.
        cs, results = build_basic(exports=3, requests=(50.0,))
        cs.run()
        assert results[0] == [(50.0, None, None)]

    def test_redistribution_2x1_to_1x2(self):
        """Each U rank's column block must be stitched from both F rows."""
        collected = {}

        def f_main(ctx):
            shape = ctx.local_region("field").shape
            lo = ctx.local_region("field").lo
            data = np.fromfunction(
                lambda i, j: (i + lo[0]) * 100 + (j + lo[1]), shape
            )
            yield from ctx.export("field", 10.0, data=data)

        def u_main(ctx):
            yield from ctx.compute(0.01)
            m, block = yield from ctx.import_("field", 10.0)
            collected[ctx.rank] = (m, block)

        cs = CoupledSimulation(TWO_BY_TWO, options=RunOptions(preset=FAST_TEST))
        cs.add_program("F", main=f_main,
                       regions={"field": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        cs.add_program("U", main=u_main,
                       regions={"field": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
        cs.run()
        expected = np.fromfunction(lambda i, j: i * 100 + j, (8, 8))
        got = np.hstack([collected[0][1], collected[1][1]])
        np.testing.assert_array_equal(got, expected)


class TestBuddyHelpBehaviour:
    def test_slow_rank_skips_with_buddy(self):
        cs, _ = build_basic(buddy=True)
        cs.run()
        slow = cs.context("F", 1).stats.decisions()
        fast = cs.context("F", 0).stats.decisions()
        # The slow rank benefits from buddy-help; the fast rank may
        # still skip below-region exports (request knowledge alone),
        # but the slow rank skips strictly more.
        assert slow.get("skip", 0) > 30
        assert slow.get("skip", 0) > fast.get("skip", 0)
        rep = cs._programs["F"].exp_rep
        assert rep is not None and rep.buddy_messages_sent > 0

    def test_no_buddy_means_more_buffering(self):
        cs_on, _ = build_basic(buddy=True)
        cs_on.run()
        cs_off, _ = build_basic(buddy=False)
        cs_off.run()
        on = cs_on.buffer_stats("F", 1, "field")
        off = cs_off.buffer_stats("F", 1, "field")
        assert off.buffered_count > on.buffered_count
        assert off.unnecessary_total_time >= on.unnecessary_total_time
        rep_off = cs_off._programs["F"].exp_rep
        assert rep_off is not None and rep_off.buddy_messages_sent == 0

    def test_results_identical_with_and_without_buddy(self):
        """Buddy-help is a pure optimization: answers must not change."""
        cs_on, res_on = build_basic(buddy=True)
        cs_on.run()
        cs_off, res_off = build_basic(buddy=False)
        cs_off.run()
        assert res_on == res_off

    def test_sends_equal_matches_on_both_ranks(self):
        cs, results = build_basic()
        cs.run()
        n_matches = len(results[0])
        for rank in (0, 1):
            stats = cs.buffer_stats("F", rank, "field")
            assert stats.sent_count == n_matches


class TestTracing:
    def test_trace_records_protocol_events(self):
        tracer = Tracer()
        cs, _ = build_basic(tracer=tracer)
        cs.run()
        kinds = tracer.kinds()
        assert tracing.EXPORT_MEMCPY in kinds
        assert tracing.EXPORT_SKIP in kinds
        assert tracing.REQUEST_RECV in kinds
        assert tracing.BUDDY_SEND in kinds
        assert tracing.BUDDY_RECV in kinds
        assert tracing.IMPORT_REQUEST in kinds
        assert tracing.IMPORT_COMPLETE in kinds
        assert tracing.REP_FINALIZE in kinds

    def test_buddy_messages_target_slow_rank(self):
        tracer = Tracer()
        cs, _ = build_basic(tracer=tracer)
        cs.run()
        recvs = tracer.filter(kind=tracing.BUDDY_RECV)
        assert recvs and all(e.who == "F.p1" for e in recvs)


class TestStatsAndSeries:
    def test_export_series_shape(self):
        cs, _ = build_basic(exports=40, requests=(20.0,))
        cs.run()
        series = cs.export_series("F", 1)
        assert len(series) == 40
        assert all(c >= 0 for c in series)

    def test_export_records_monotone_time(self):
        cs, _ = build_basic()
        cs.run()
        recs = cs.context("F", 1).stats.export_records
        ats = [r.at for r in recs]
        assert ats == sorted(ats)

    def test_decisions_sum_to_exports(self):
        cs, _ = build_basic(exports=50)
        cs.run()
        assert sum(cs.context("F", 0).stats.decisions().values()) == 50


#: Both runtimes resolve connections through the one shared resolver, so
#: a wrong coupling fails with the same message on either.
BOTH_RUNTIMES = pytest.mark.parametrize(
    "runtime_cls", [CoupledSimulation, LiveCoupledSimulation], ids=["des", "live"]
)


class TestSetupErrors:
    def test_program_not_in_config_needs_nprocs(self):
        cs = CoupledSimulation(TWO_BY_TWO, options=RunOptions(preset=FAST_TEST))
        with pytest.raises(ConfigError, match="pass nprocs"):
            cs.add_program("GHOST")

    @BOTH_RUNTIMES
    def test_missing_program_detected_at_run(self, runtime_cls):
        cs = runtime_cls(TWO_BY_TWO)
        cs.add_program("F", regions={"field": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        with pytest.raises(ConfigError, match="never added"):
            cs.run()

    def test_missing_region_declaration_detected(self):
        cs = CoupledSimulation(TWO_BY_TWO, options=RunOptions(preset=FAST_TEST))
        cs.add_program("F", regions={"wrong_name": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        cs.add_program("U", regions={"field": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
        with pytest.raises(ConfigError, match="does not declare region"):
            cs.run()

    @BOTH_RUNTIMES
    def test_global_shape_mismatch_detected(self, runtime_cls):
        cs = runtime_cls(TWO_BY_TWO)
        cs.add_program("F", regions={"field": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        cs.add_program("U", regions={"field": RegionDef(BlockDecomposition((16, 16), (1, 2)))})
        with pytest.raises(
            ConfigError, match=r"global shape \(8, 8\) != importer global shape \(16, 16\)"
        ):
            cs.run()

    def test_decomp_rank_count_mismatch(self):
        cs = CoupledSimulation(TWO_BY_TWO, options=RunOptions(preset=FAST_TEST))
        with pytest.raises(ValueError, match="decomposition is over"):
            cs.add_program(
                "F", regions={"field": RegionDef(BlockDecomposition((8, 8), (4, 1)))}
            )

    def test_duplicate_add_program(self):
        cs = CoupledSimulation(TWO_BY_TWO, options=RunOptions(preset=FAST_TEST))
        cs.add_program("F", regions={"field": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        with pytest.raises(ValueError, match="already added"):
            cs.add_program("F")


class TestMultipleImporters:
    CONFIG = """
    E c0 /bin/E 2
    A c1 /bin/A 2
    B c1 /bin/B 2
    #
    E.d A.d REGL 2.5
    E.d B.d REGU 2.5
    """

    def test_one_region_two_connections_different_policies(self):
        got = {}

        def e_main(ctx):
            shape = ctx.local_region("d").shape
            for k in range(30):
                ts = 1.0 + k
                yield from ctx.export("d", ts, data=np.full(shape, ts))
                yield from ctx.compute(0.0001)

        def imp_main(ctx):
            yield from ctx.compute(0.01)
            m, block = yield from ctx.import_("d", 10.5)
            got[(ctx.program, ctx.rank)] = (m, None if block is None else float(block.mean()))

        cs = CoupledSimulation(self.CONFIG, options=RunOptions(preset=FAST_TEST))
        dec2 = BlockDecomposition((4, 4), (2, 1))
        cs.add_program("E", main=e_main, regions={"d": RegionDef(dec2)})
        cs.add_program("A", main=imp_main, regions={"d": RegionDef(dec2)})
        cs.add_program("B", main=imp_main, regions={"d": RegionDef(dec2)})
        cs.run()
        # REGL 2.5 on [8.0, 10.5]: best is 10.0; REGU on [10.5, 13.0]: 11.0.
        assert got[("A", 0)] == (10.0, 10.0)
        assert got[("B", 0)] == (11.0, 11.0)
        assert got[("A", 0)] == got[("A", 1)]
        assert got[("B", 0)] == got[("B", 1)]


class TestDeterminism:
    def test_identical_runs_bitwise_equal_series(self):
        cs1, _ = build_basic(seed=5)
        cs1.run()
        cs2, _ = build_basic(seed=5)
        cs2.run()
        assert cs1.export_series("F", 1) == cs2.export_series("F", 1)
        assert cs1.sim.now == cs2.sim.now
