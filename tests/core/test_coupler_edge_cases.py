"""Coupler edge cases: EXACT policy, multiple exported regions,
post-close requests, and miscellaneous paths not covered elsewhere."""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition


def make_sim(config, **kw):
    return CoupledSimulation(config, options=RunOptions(preset=FAST_TEST, seed=0, **kw))


class TestExactPolicy:
    CONFIG = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d EXACT\n"

    def test_exact_match_hit_and_miss(self):
        got = {}

        def e_main(ctx):
            for k in range(30):
                yield from ctx.export("d", float(k))
                yield from ctx.compute(0.0002)

        def i_main(ctx):
            yield from ctx.compute(0.001)
            hit = yield from ctx.import_("d", 7.0)
            miss = yield from ctx.import_("d", 7.5)
            got[ctx.rank] = (hit[0], miss[0])

        cs = make_sim(self.CONFIG)
        dec = BlockDecomposition((4, 4), (2, 1))
        deci = BlockDecomposition((4, 4), (1, 2))
        cs.add_program("E", main=e_main, regions={"d": RegionDef(dec)})
        cs.add_program("I", main=i_main, regions={"d": RegionDef(deci)})
        cs.run()
        assert got[0] == (7.0, None)
        assert got[1] == (7.0, None)


class TestTwoExportedRegions:
    CONFIG = """
    E c0 /bin/E 2
    A c1 /bin/A 2
    B c1 /bin/B 2
    #
    E.temp A.temp REGL 1.5
    E.vel  B.vel  REGL 1.5
    """

    def test_independent_regions_independent_state(self):
        got = {}

        def e_main(ctx):
            tshape = ctx.local_region("temp").shape
            vshape = ctx.local_region("vel").shape
            for k in range(25):
                ts = 1.0 + k
                yield from ctx.export("temp", ts, data=np.full(tshape, ts))
                # vel exports on a different cadence (every other step).
                if k % 2 == 0:
                    yield from ctx.export("vel", ts, data=np.full(vshape, -ts))
                yield from ctx.compute(0.0003)

        def a_main(ctx):
            yield from ctx.compute(0.002)
            m, block = yield from ctx.import_("temp", 10.2)
            got[("A", ctx.rank)] = (m, float(block.mean()))

        def b_main(ctx):
            yield from ctx.compute(0.002)
            m, block = yield from ctx.import_("vel", 10.2)
            got[("B", ctx.rank)] = (m, float(block.mean()))

        cs = make_sim(self.CONFIG)
        dec = BlockDecomposition((4, 4), (2, 1))
        deci = BlockDecomposition((4, 4), (1, 2))
        cs.add_program(
            "E", main=e_main,
            regions={"temp": RegionDef(dec), "vel": RegionDef(dec)},
        )
        cs.add_program("A", main=a_main, regions={"temp": RegionDef(deci)})
        cs.add_program("B", main=b_main, regions={"vel": RegionDef(deci)})
        cs.run()
        # temp exports every 1.0: best in [8.7, 10.2] is 10.0.
        assert got[("A", 0)] == (10.0, pytest.approx(10.0))
        # vel exports every 2.0 (odd timestamps 1,3,5..): best is 9.0.
        assert got[("B", 0)] == (9.0, pytest.approx(-9.0))
        # Separate buffers per region.
        temp_stats = cs.buffer_stats("E", 0, "temp")
        vel_stats = cs.buffer_stats("E", 0, "vel")
        assert temp_stats.buffered_count > vel_stats.buffered_count


class TestPostCloseRequests:
    CONFIG = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"

    def test_request_after_exporter_finished_still_served(self):
        """The exporter main ends long before the importer asks; the
        buffered data and the close-path answers must still satisfy the
        request (the agent outlives the application main)."""
        got = {}

        def e_main(ctx):
            shape = ctx.local_region("d").shape
            for k in range(30):
                ts = 1.0 + k
                yield from ctx.export("d", ts, data=np.full(shape, ts))
            # ends immediately — no compute at all

        def i_main(ctx):
            yield from ctx.compute(0.05)  # ask long after E finished
            m, block = yield from ctx.import_("d", 20.0)
            got[ctx.rank] = (m, float(block.mean()))

        cs = make_sim(self.CONFIG)
        cs.add_program("E", main=e_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (2, 1)))})
        cs.add_program("I", main=i_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        cs.run()
        assert got[0] == (20.0, pytest.approx(20.0))
        assert got[1] == got[0]

    def test_pending_at_close_resolved_by_close(self):
        """The importer asks for a timestamp beyond the stream end; the
        close-path evaluation answers it (MATCH on the stream's last
        in-region export)."""
        got = {}

        def e_main(ctx):
            shape = ctx.local_region("d").shape
            for k in range(20):
                ts = 1.0 + k  # last export at 20.0
                yield from ctx.export("d", ts, data=np.full(shape, ts))
                yield from ctx.compute(0.002)

        def i_main(ctx):
            m, block = yield from ctx.import_("d", 21.0)  # region [18.5, 21]
            got[ctx.rank] = (m, float(block.mean()))

        cs = make_sim(self.CONFIG)
        cs.add_program("E", main=e_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (2, 1)))})
        cs.add_program("I", main=i_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        cs.run()
        assert got[0] == (20.0, pytest.approx(20.0))


class TestMiscPaths:
    CONFIG = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"

    def test_export_unknown_region_rejected(self):
        failures = []

        def e_main(ctx):
            try:
                yield from ctx.export("nope", 1.0)
            except ValueError:
                failures.append(ctx.rank)

        cs = make_sim(self.CONFIG)
        cs.add_program("E", main=e_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (2, 1)))})
        cs.add_program("I",
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        cs.run()
        assert sorted(failures) == [0, 1]

    def test_import_unknown_region_rejected(self):
        failures = []

        def i_main(ctx):
            try:
                yield from ctx.import_("nope", 1.0)
            except ValueError:
                failures.append(ctx.rank)

        cs = make_sim(self.CONFIG)
        cs.add_program("E",
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (2, 1)))})
        cs.add_program("I", main=i_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        cs.run()
        assert sorted(failures) == [0, 1]

    def test_export_wrong_block_shape_rejected(self):
        failures = []

        def e_main(ctx):
            try:
                yield from ctx.export("d", 1.0, data=np.zeros((99, 99)))
            except ValueError:
                failures.append(ctx.rank)

        cs = make_sim(self.CONFIG)
        cs.add_program("E", main=e_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (2, 1)))})
        cs.add_program("I",
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        cs.run()
        assert sorted(failures) == [0, 1]

    def test_start_without_run_then_manual_clock(self):
        reached = []

        def e_main(ctx):
            yield from ctx.compute(1.0)
            reached.append(ctx.rank)

        cs = make_sim(self.CONFIG)
        cs.add_program("E", main=e_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (2, 1)))})
        cs.add_program("I",
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        cs.start()
        cs.sim.run(until=0.5)
        assert reached == []
        cs.sim.run()
        assert sorted(reached) == [0, 1]

    def test_intra_program_collectives_coexist_with_coupling(self):
        """ctx.comm collectives and framework traffic share mailboxes
        without interference."""
        from repro.vmpi import SUM

        sums = {}

        def e_main(ctx):
            shape = ctx.local_region("d").shape
            for k in range(10):
                ts = 1.0 + k
                yield from ctx.export("d", ts, data=np.full(shape, ts))
                total = yield from ctx.comm.allreduce(ctx.rank + k, SUM)
                yield from ctx.compute(0.0002)
            sums[ctx.rank] = total

        def i_main(ctx):
            yield from ctx.compute(0.005)
            yield from ctx.import_("d", 5.0)

        cs = make_sim(self.CONFIG)
        cs.add_program("E", main=e_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (2, 1)))})
        cs.add_program("I", main=i_main,
                       regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        cs.run()
        assert sums[0] == sums[1] == (0 + 9) + (1 + 9)
