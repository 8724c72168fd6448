"""Three-program pipeline: A exports to B, B transforms and exports to C.

Exercises a program that is *simultaneously* importer and exporter —
its rep holds both roles, its processes run both state machines — which
is how real multi-physics chains (e.g. ocean → coupler → atmosphere)
are built on such frameworks.
"""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition

CONFIG = """
A c0 /bin/A 2
B c1 /bin/B 2
C c2 /bin/C 2
#
A.raw B.raw REGL 2.5
B.cooked C.cooked REGL 2.5
"""

SHAPE = (8, 8)


def build():
    got = {}

    def a_main(ctx):
        shape = ctx.local_region("raw").shape
        for k in range(40):
            ts = 1.0 + k
            yield from ctx.export("raw", ts, data=np.full(shape, ts))
            yield from ctx.compute(0.001)

    def b_main(ctx):
        # Import raw data, transform (double it), re-export under its
        # own timestamp line.
        for j in range(1, 3):
            yield from ctx.compute(0.004)
            m, block = yield from ctx.import_("raw", 10.0 * j)
            assert m is not None
            yield from ctx.export("cooked", m, data=2.0 * block)
        # Keep exporting a little so C's second request can resolve
        # without waiting for stream close.
        yield from ctx.compute(0.001)

    def c_main(ctx):
        vals = []
        for j in range(1, 3):
            yield from ctx.compute(0.008)
            m, block = yield from ctx.import_("cooked", 10.0 * j)
            vals.append((10.0 * j, m, float(block.mean())))
        got[ctx.rank] = vals

    cs = CoupledSimulation(CONFIG, options=RunOptions(preset=FAST_TEST, seed=0))
    d_rows = BlockDecomposition(SHAPE, (2, 1))
    d_cols = BlockDecomposition(SHAPE, (1, 2))
    cs.add_program("A", main=a_main, regions={"raw": RegionDef(d_rows)})
    cs.add_program(
        "B", main=b_main,
        regions={"raw": RegionDef(d_cols), "cooked": RegionDef(d_cols)},
    )
    cs.add_program("C", main=c_main, regions={"cooked": RegionDef(d_rows)})
    return cs, got


class TestPipeline:
    def test_data_flows_through_both_hops(self):
        cs, got = build()
        cs.run()
        assert set(got) == {0, 1}
        assert got[0] == got[1]
        for want, m, mean in got[0]:
            # A's match for B's request `want` is want - 0.?; B re-exports
            # under the matched timestamp; C's REGL match finds it.
            assert m is not None
            assert abs(m - want) <= 2.5
            assert mean == pytest.approx(2.0 * m)  # B's transform applied

    def test_middle_program_has_both_reps(self):
        cs, _ = build()
        cs.run()
        b = cs._programs["B"]
        assert b.exp_rep is not None
        assert b.imp_rep is not None
        # B both received requests (as exporter) and forwarded them
        # (as importer).
        assert b.exp_rep.requests_seen == 2
        assert b.imp_rep.forwarded_count == 2

    def test_middle_program_buffers_and_sends(self):
        cs, _ = build()
        cs.run()
        stats = cs.buffer_stats("B", 0, "cooked")
        assert stats.sent_count == 2
