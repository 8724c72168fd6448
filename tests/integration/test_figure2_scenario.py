"""The paper's exact Figure-2 configuration, run end-to-end.

Four programs with the paper's process counts (P0: 16, P1: 8, P2: 32,
P4: 4) and its three connections — one exported region feeding two
importers under different policies (REGL 0.2 / REG 0.1), plus a second
region under REGU 0.3.  60 processes, 3 reps, 3 MxN schedules, all on
the virtual clock.
"""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition

PAPER_CONFIG = """
P0 cluster0 /home/meou/bin/P0 16
P1 cluster1 /home/meou/bin/P1 8
P2 cluster1 /home/meou/bin/P2 32
P4 cluster1 /home/meou/bin/P4 4
#
P0.r1 P1.r1 REGL 0.2
P0.r1 P2.r3 REG 0.1
P0.r2 P4.r2 REGU 0.3
"""

SHAPE = (32, 32)


@pytest.fixture(scope="module")
def completed_run():
    answers = {"P1": {}, "P2": {}, "P4": {}}

    def p0_main(ctx):
        r1_shape = ctx.local_region("r1").shape
        r2_shape = ctx.local_region("r2").shape
        for k in range(40):
            ts = round(0.25 * (k + 1), 6)
            yield from ctx.export("r1", ts, data=np.full(r1_shape, ts))
            yield from ctx.export("r2", ts, data=np.full(r2_shape, -ts))
            yield from ctx.compute(0.0004)

    def importer(program, region, request_ts):
        def main(ctx):
            yield from ctx.compute(0.002)
            m, block = yield from ctx.import_(region, request_ts)
            answers[program][ctx.rank] = (
                m, None if block is None else float(block.mean())
            )

        return main

    cs = CoupledSimulation(PAPER_CONFIG, options=RunOptions(preset=FAST_TEST, seed=0))
    cs.add_program(
        "P0", main=p0_main,
        regions={
            "r1": RegionDef(BlockDecomposition(SHAPE, (4, 4))),
            "r2": RegionDef(BlockDecomposition(SHAPE, (4, 4))),
        },
    )
    cs.add_program(
        "P1", main=importer("P1", "r1", 5.0),
        regions={"r1": RegionDef(BlockDecomposition(SHAPE, (8, 1)))},
    )
    cs.add_program(
        "P2", main=importer("P2", "r3", 5.03),
        regions={"r3": RegionDef(BlockDecomposition(SHAPE, (8, 4)))},
    )
    cs.add_program(
        "P4", main=importer("P4", "r2", 5.1),
        regions={"r2": RegionDef(BlockDecomposition(SHAPE, (2, 2)))},
    )
    cs.run()
    return cs, answers


class TestFigure2Scenario:
    def test_all_60_processes_complete(self, completed_run):
        _cs, answers = completed_run
        assert len(answers["P1"]) == 8
        assert len(answers["P2"]) == 32
        assert len(answers["P4"]) == 4

    def test_policies_match_differently(self, completed_run):
        _cs, answers = completed_run
        # P1, REGL 0.2 @5.0: region [4.8, 5.0] -> exact 5.0 exists.
        assert all(v == (5.0, 5.0) for v in answers["P1"].values())
        # P2, REG 0.1 @5.03: region [4.93, 5.13] -> closest is 5.0.
        assert all(v == (5.0, 5.0) for v in answers["P2"].values())
        # P4, REGU 0.3 @5.1: region [5.1, 5.4] -> closest above is 5.25.
        assert all(v == (5.25, -5.25) for v in answers["P4"].values())

    def test_one_region_served_two_importers(self, completed_run):
        cs, _ = completed_run
        # Every P0 rank transferred r1 twice (P1 and P2 connections
        # may share the matched timestamp: one buffered object, one
        # send mark) and r2 once.
        for rank in range(16):
            r1 = cs.buffer_stats("P0", rank, "r1")
            r2 = cs.buffer_stats("P0", rank, "r2")
            assert r1.sent_count >= 1
            assert r2.sent_count == 1

    def test_property1_across_all_programs(self, completed_run):
        cs, answers = completed_run
        # All ranks of each importer saw identical answers.
        for program, ranks in answers.items():
            assert len(set(ranks.values())) == 1, program
        del cs
