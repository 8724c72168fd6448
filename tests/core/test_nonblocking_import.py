"""Tests for non-blocking imports (import_begin / import_wait).

The paper's Section 6 names non-blocking data transfers as the enabler
for letting fast processes run ahead; the importer-side analogue is
posting the request early and collecting the data after computing.
"""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition

CONFIG = """
F c0 /bin/F 2
U c1 /bin/U 2
#
F.d U.d REGL 2.5
"""


def build(u_main, exports=60, f_sleep=0.001):
    def f_main(ctx):
        shape = ctx.local_region("d").shape
        for k in range(exports):
            ts = 1.6 + k
            yield from ctx.export("d", ts, data=np.full(shape, ts))
            yield from ctx.compute(f_sleep)

    cs = CoupledSimulation(CONFIG, options=RunOptions(preset=FAST_TEST, seed=0))
    cs.add_program("F", main=f_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    cs.add_program("U", main=u_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    return cs


class TestNonBlockingImport:
    def test_begin_then_wait_equals_blocking(self):
        got = {}

        def u_main(ctx):
            yield from ctx.compute(0.01)
            handle = ctx.import_begin("d", 20.0)
            yield from ctx.compute(0.005)  # overlap
            m, block = yield from ctx.import_wait(handle)
            got[ctx.rank] = (m, float(block.mean()))

        cs = build(u_main)
        cs.run()
        assert got[0] == got[1] == (19.6, pytest.approx(19.6))

    def test_overlap_reduces_wall_time(self):
        """Posting before compute lets the transfer overlap the compute."""
        times = {}

        def u_blocking(ctx):
            yield from ctx.compute(0.05)
            yield from ctx.import_("d", 20.0)
            times[("blocking", ctx.rank)] = ctx.sim.now

        def u_overlapped(ctx):
            handle = ctx.import_begin("d", 20.0)
            yield from ctx.compute(0.05)
            yield from ctx.import_wait(handle)
            times[("overlapped", ctx.rank)] = ctx.sim.now

        cs1 = build(u_blocking)
        cs1.run()
        cs2 = build(u_overlapped)
        cs2.run()
        assert times[("overlapped", 0)] < times[("blocking", 0)]

    def test_multiple_outstanding_handles(self):
        got = {}

        def u_main(ctx):
            yield from ctx.compute(0.01)
            h1 = ctx.import_begin("d", 20.0)
            h2 = ctx.import_begin("d", 40.0)
            m2, _ = yield from ctx.import_wait(h2)
            m1, _ = yield from ctx.import_wait(h1)
            got[ctx.rank] = (m1, m2)

        cs = build(u_main)
        cs.run()
        assert got[0] == got[1] == (19.6, 39.6)

    def test_double_wait_rejected(self):
        failures = []

        def u_main(ctx):
            yield from ctx.compute(0.01)
            handle = ctx.import_begin("d", 20.0)
            yield from ctx.import_wait(handle)
            try:
                yield from ctx.import_wait(handle)
            except ValueError as exc:
                failures.append(str(exc))

        cs = build(u_main)
        cs.run()
        assert len(failures) == 2
        assert "already completed" in failures[0]

    def test_request_order_still_enforced_at_begin(self):
        failures = []

        def u_main(ctx):
            yield from ctx.compute(0.01)
            ctx.import_begin("d", 20.0)
            try:
                ctx.import_begin("d", 10.0)
            except ValueError:
                failures.append(ctx.rank)
            # Drain the first request so the run terminates cleanly.
            # (The second request never reached the rep.)
            handle = ctx.import_states["d"].records[0]
            del handle

        cs = build(u_main)
        cs.run()
        assert sorted(failures) == [0, 1]

    def test_no_match_through_handle(self):
        got = {}

        def u_main(ctx):
            yield from ctx.compute(0.01)
            handle = ctx.import_begin("d", 500.0)  # far beyond the stream
            m, block = yield from ctx.import_wait(handle)
            got[ctx.rank] = (m, block)

        cs = build(u_main, exports=5)
        cs.run()
        assert got[0] == (None, None)
