"""Tests for sub-region (section) coupling.

The paper's regions are "shared boundaries or the overlapped regions
between physical models" — a connection transfers only the intersection
of the two sides' declared sections, not the whole array.
"""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exceptions import ConfigError
from repro.core.live import LiveCoupledSimulation
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition, RectRegion

CONFIG = """
E c0 /bin/E 2
I c1 /bin/I 2
#
E.d I.d REGL 2.5
"""

SHAPE = (8, 8)


def build(exp_section=None, imp_section=None):
    got = {}

    def e_main(ctx):
        local = ctx.local_region("d")
        data = np.fromfunction(
            lambda i, j: (i + local.lo[0]) * 10 + (j + local.lo[1]), local.shape
        )
        yield from ctx.export("d", 5.0, data=data)

    def i_main(ctx):
        yield from ctx.compute(0.01)
        m, block = yield from ctx.import_("d", 5.0)
        got[ctx.rank] = (m, block)

    cs = CoupledSimulation(CONFIG, options=RunOptions(preset=FAST_TEST, seed=0))
    cs.add_program(
        "E", main=e_main,
        regions={"d": RegionDef(BlockDecomposition(SHAPE, (2, 1)), section=exp_section)},
    )
    cs.add_program(
        "I", main=i_main,
        regions={"d": RegionDef(BlockDecomposition(SHAPE, (1, 2)), section=imp_section)},
    )
    return cs, got


def expected_full():
    return np.fromfunction(lambda i, j: i * 10 + j, SHAPE)


class TestSectionTransfers:
    def test_default_sections_transfer_everything(self):
        cs, got = build()
        cs.run()
        full = np.hstack([got[0][1], got[1][1]])
        np.testing.assert_array_equal(full, expected_full())

    def test_exporter_section_limits_transfer(self):
        section = RectRegion((2, 2), (6, 6))
        cs, got = build(exp_section=section)
        cs.run()
        full = np.hstack([got[0][1], got[1][1]])
        want = np.zeros(SHAPE)
        want[2:6, 2:6] = expected_full()[2:6, 2:6]
        np.testing.assert_array_equal(full, want)

    def test_intersection_of_both_sections(self):
        cs, got = build(
            exp_section=RectRegion((0, 0), (8, 5)),
            imp_section=RectRegion((3, 2), (8, 8)),
        )
        cs.run()
        full = np.hstack([got[0][1], got[1][1]])
        want = np.zeros(SHAPE)
        want[3:8, 2:5] = expected_full()[3:8, 2:5]
        np.testing.assert_array_equal(full, want)

    def test_schedule_traffic_shrinks_with_section(self):
        cs_full, _ = build()
        cs_full.start()
        cs_part, _ = build(exp_section=RectRegion((0, 0), (2, 2)))
        cs_part.start()
        cid = "E.d->I.d"
        full_elems = cs_full._connections[cid].schedule.total_elements
        part_elems = cs_part._connections[cid].schedule.total_elements
        assert part_elems == 4
        assert full_elems == 64

    def test_rank_outside_section_still_collective(self):
        """An importer rank whose block misses the section entirely still
        participates in the collective import and gets a zero block."""
        section = RectRegion((0, 0), (8, 3))  # only importer rank 0's cols
        cs, got = build(imp_section=section)
        cs.run()
        # Importer rank 1 owns cols 4..7: no pieces.
        m1, block1 = got[1]
        assert m1 == 5.0
        np.testing.assert_array_equal(block1, np.zeros((8, 4)))
        # Rank 0 owns cols 0..3; section covers cols 0..2.
        m0, block0 = got[0]
        want = np.zeros((8, 4))
        want[:, :3] = expected_full()[:, :3]
        np.testing.assert_array_equal(block0, want)

    @pytest.mark.parametrize(
        "runtime_cls", [CoupledSimulation, LiveCoupledSimulation], ids=["des", "live"]
    )
    def test_disjoint_sections_rejected_early(self, runtime_cls):
        sim = runtime_cls(CONFIG)
        for name, grid, section in (
            ("E", (2, 1), RectRegion((0, 0), (2, 2))),
            ("I", (1, 2), RectRegion((6, 6), (8, 8))),
        ):
            sim.add_program(
                name,
                regions={"d": RegionDef(BlockDecomposition(SHAPE, grid), section=section)},
            )
        with pytest.raises(
            ConfigError, match="do not overlap — nothing would ever be transferred"
        ):
            sim.run()


class TestLiveSections:
    def test_live_runtime_respects_sections(self):
        got = {}

        def e_main(ctx):
            local = ctx.local_region("d")
            data = np.fromfunction(
                lambda i, j: (i + local.lo[0]) * 10 + (j + local.lo[1]), local.shape
            )
            ctx.export("d", 5.0, data=data)

        def i_main(ctx):
            ctx.compute(0.01)
            m, block = ctx.import_("d", 5.0)
            got[ctx.rank] = (m, block)

        sim = LiveCoupledSimulation(
            CONFIG, options=RunOptions(runtime="live", default_timeout=15.0)
        )
        section = RectRegion((2, 2), (6, 6))
        sim.add_program(
            "E", main=e_main,
            regions={"d": RegionDef(BlockDecomposition(SHAPE, (2, 1)), section=section)},
        )
        sim.add_program(
            "I", main=i_main,
            regions={"d": RegionDef(BlockDecomposition(SHAPE, (1, 2)))},
        )
        sim.run(join_timeout=30.0)
        full = np.hstack([got[0][1], got[1][1]])
        want = np.zeros(SHAPE)
        want[2:6, 2:6] = expected_full()[2:6, 2:6]
        np.testing.assert_array_equal(full, want)
