"""Tests for finite buffer space (paper Section 6 future work).

Two policies: ``"error"`` (default: exceeding the capacity raises) and
``"block"`` (backpressure: the exporter stalls until eviction frees
space).  With buddy-help, the slow exporter needs dramatically less
buffer — the optimization also bounds memory, not just time.
"""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exceptions import FrameworkError
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition

CONFIG = """
E c0 /bin/E 2
I c1 /bin/I 2
#
E.d I.d REGL 2.5
"""

BLOCK_BYTES = 4 * 8 * 8  # (8,8) global, (2,1) decomp -> 4x8 float64 blocks


def build(capacity=None, policy="error", buddy=True, exports=60,
          importer_sleep=0.0005, exporter_sleep=0.001, requests=None):
    done = {}
    n_requests = requests or 3

    def e_main(ctx):
        scale = 3.0 if ctx.rank == 1 else 1.0
        for k in range(exports):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(exporter_sleep * scale)
        done[("E", ctx.rank)] = True

    def i_main(ctx):
        for j in range(1, n_requests + 1):
            yield from ctx.compute(importer_sleep)
            yield from ctx.import_("d", 20.0 * j)
        done[("I", ctx.rank)] = True

    cs = CoupledSimulation(
        CONFIG,
        options=RunOptions(
            preset=FAST_TEST,
            buddy_help=buddy,
            buffer_capacity_bytes=capacity,
            buffer_policy=policy,
        ),
    )
    cs.add_program("E", main=e_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    cs.add_program("I", main=i_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    return cs, done


class TestErrorPolicy:
    def test_unbounded_by_default(self):
        cs, done = build()
        cs.run()
        assert len(done) == 4

    def test_exceeding_capacity_raises(self):
        # Room for only 3 blocks; an exporter far ahead of the importer
        # must buffer many more than that.
        cs, _ = build(capacity=3 * BLOCK_BYTES, policy="error",
                      importer_sleep=0.05)
        with pytest.raises(FrameworkError, match="capacity exceeded"):
            cs.run()

    def test_large_capacity_is_harmless(self):
        cs, done = build(capacity=1000 * BLOCK_BYTES, policy="error")
        cs.run()
        assert len(done) == 4


class TestBlockPolicy:
    def test_backpressure_completes_where_error_fails(self):
        # The same tight capacity, but exports stall instead of failing:
        # the importer's requests eventually evict dead entries.
        cs, done = build(capacity=25 * BLOCK_BYTES, policy="block",
                         importer_sleep=0.01)
        cs.run()
        assert len(done) == 4
        stalls = cs.context("E", 0).stats.backpressure_time
        assert stalls > 0.0

    def test_no_stall_when_capacity_suffices(self):
        cs, done = build(capacity=1000 * BLOCK_BYTES, policy="block")
        cs.run()
        assert len(done) == 4
        assert cs.context("E", 0).stats.backpressure_time == 0.0

    def test_buddy_help_reduces_required_buffer(self):
        """With buddy-help the slow rank skips most buffering, so a
        tight buffer causes much less stalling than without it."""
        cs_on, done_on = build(capacity=30 * BLOCK_BYTES, policy="block",
                               buddy=True, importer_sleep=0.002)
        cs_on.run()
        cs_off, done_off = build(capacity=30 * BLOCK_BYTES, policy="block",
                                 buddy=False, importer_sleep=0.002)
        cs_off.run()
        assert len(done_on) == len(done_off) == 4
        slow_on = cs_on.context("E", 1).stats.backpressure_time
        slow_off = cs_off.context("E", 1).stats.backpressure_time
        assert slow_on <= slow_off

    @pytest.mark.parametrize("policy", ["error", "block"])
    def test_export_larger_than_capacity_raises(self, policy):
        """One block can never fit: no eviction makes room for it, so
        "block" must fail like "error" does instead of polling forever
        (bounded by ``until`` so the former hang shows as a failure)."""
        cs, done = build(capacity=BLOCK_BYTES - 1, policy=policy)
        with pytest.raises(FrameworkError, match="capacity exceeded"):
            cs.run(until=1.0)
        assert not done

    def test_export_of_exactly_the_capacity_fits(self):
        cs, done = build(capacity=BLOCK_BYTES, policy="block", exports=3,
                         requests=1, importer_sleep=0.0001)
        cs.run(until=5.0)
        assert len(done) == 4

    def test_peak_usage_respects_capacity(self):
        cap = 25 * BLOCK_BYTES
        cs, _ = build(capacity=cap, policy="block", importer_sleep=0.01)
        cs.run()
        for rank in (0, 1):
            assert cs.buffer_stats("E", rank, "d").peak_bytes <= cap

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="buffer_policy"):
            CoupledSimulation(CONFIG, options=RunOptions(buffer_policy="bogus"))
