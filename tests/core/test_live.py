"""Tests for the live (threaded, wall-clock) coupling runtime.

These are behavioural, not timing-sensitive: the protocol outcomes
(matched timestamps, delivered data, Property-1 symmetry, buddy-help
skip counts under forced skew) must mirror the DES runtime.
"""

import time

import numpy as np
import pytest

import repro
from repro.api import RunOptions
from repro.core.coupler import RegionDef
from repro.core.exceptions import ConfigError, PropertyViolationError
from repro.core.live import LiveCoupledSimulation
from repro.data import BlockDecomposition

CONFIG = """
F c0 /bin/F 2
U c1 /bin/U 2
#
F.d U.d REGL 2.5
"""


def build(buddy=True, slow=4.0, exports=40, requests=(20.0, 40.0),
          f_sleep=0.001, u_sleep=0.002, with_data=True, tracer=None):
    results = {}

    def f_main(ctx):
        scale = slow if ctx.rank == 1 else 1.0
        shape = ctx.local_region("d").shape
        for k in range(exports):
            ts = 1.6 + k
            data = np.full(shape, ts) if with_data else None
            ctx.export("d", ts, data=data)
            ctx.compute(f_sleep * scale)

    def u_main(ctx):
        got = []
        for want in requests:
            ctx.compute(u_sleep)
            m, block = ctx.import_("d", want)
            got.append((want, m, None if block is None else float(block.mean())))
        results[ctx.rank] = got

    sim = LiveCoupledSimulation(
        CONFIG,
        options=RunOptions(
            runtime="live", buddy_help=buddy, default_timeout=20.0, tracer=tracer
        ),
    )
    sim.add_program("F", main=f_main,
                    regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    sim.add_program("U", main=u_main,
                    regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    return sim, results


class TestLiveProtocol:
    def test_matches_and_data(self):
        sim, results = build()
        sim.run(join_timeout=60.0)
        assert set(results) == {0, 1}
        assert results[0] == results[1]  # collective symmetry
        for want, m, mean in results[0]:
            assert m == pytest.approx(want - 0.4)
            assert mean == pytest.approx(m)

    def test_cost_only_mode(self):
        sim, results = build(with_data=False)
        sim.run(join_timeout=60.0)
        for _want, m, mean in results[0]:
            assert m is not None and mean is None

    def test_buddy_help_skips_on_slow_rank(self):
        sim, _ = build(buddy=True, slow=6.0)
        sim.run(join_timeout=60.0)
        slow = sim.context("F", 1).stats.decisions()
        assert slow.get("skip", 0) > 10

    def test_no_buddy_buffers_more(self):
        sim_on, _ = build(buddy=True, slow=6.0)
        sim_on.run(join_timeout=60.0)
        sim_off, _ = build(buddy=False, slow=6.0)
        sim_off.run(join_timeout=60.0)
        on = sim_on.buffer_stats("F", 1, "d")
        off = sim_off.buffer_stats("F", 1, "d")
        assert on.buffered_count <= off.buffered_count

    def test_wire_counters_count_the_run(self):
        """The shared send path counts live traffic too: exactly the
        six counter keys on both runtimes, and data bytes equal what
        importers received."""
        sim, results = build()
        sim.run(join_timeout=60.0)
        schedule = sim._connections["F.d->U.d"].schedule
        piece_bytes = [
            item.region.size * 8 for rank in (0, 1) for item in schedule.recvs_for(rank)
        ]
        matches = len(results[0])
        counters = sim.run_counters()
        assert set(counters) == set(_run_on("des").counters) == {
            "ctl_messages", "ctl_bytes", "data_messages", "data_bytes",
            "retransmissions", "dup_discards",
        }
        assert counters["data_bytes"] == matches * sum(piece_bytes) == 2 * 8 * 8 * 8
        assert counters["data_messages"] == matches * len(piece_bytes)
        assert counters["ctl_bytes"] == 64 * counters["ctl_messages"] > 0

    def test_trace_is_on_the_run_clock_with_the_des_event_kinds(self):
        """Tracer events share the causal spans' run-relative epoch and
        cover the rep/agent events the DES runtime records."""
        from repro.util import tracing

        tracer = tracing.Tracer()
        sim, _ = build(tracer=tracer)
        sim.run(join_timeout=60.0)
        end = sim.elapsed()
        assert tracer.events
        assert all(0.0 <= e.time <= end for e in tracer.events)
        assert {
            tracing.REQUEST_RECV, tracing.REQUEST_REPLY, tracing.REP_FINALIZE,
            tracing.BUDDY_SEND, tracing.EXPORT_SEND,
        } <= tracer.kinds()

    def test_export_records_wall_time(self):
        sim, _ = build()
        sim.run(join_timeout=60.0)
        recs = sim.context("F", 0).stats.export_records
        assert len(recs) == 40
        assert all(r.cost >= 0 and 0 <= r.at <= sim.elapsed() for r in recs)

    def test_buffer_cost_ledger_uses_measured_times(self):
        sim, _ = build()
        sim.run(join_timeout=60.0)
        stats = sim.buffer_stats("F", 0, "d")
        assert stats.total_memcpy_time > 0.0  # real copies took real time


# One program body for both runtimes: ``step`` adapts a context call to
# ``yield from`` — the DES call already is a generator, the blocking
# live call is wrapped in one that returns its value without yielding.
def _exporter(ctx, step):
    scale = 4.0 if ctx.rank == 1 else 1.0
    for k in range(40):
        yield from step(ctx.export("d", 1.6 + k))
        yield from step(ctx.compute(0.001 * scale))


def _importer(ctx, step):
    for want in (20.0, 40.0, 100.0):  # the last lies past the final export
        yield from step(ctx.compute(0.002))
        yield from step(ctx.import_("d", want))


def _returned(value):
    return value
    yield  # pragma: no cover - makes this a generator


def _run_on(runtime, **options):
    if runtime == "des":
        def bind(body):
            return lambda ctx: body(ctx, lambda gen: gen)
    else:
        def bind(body):
            return lambda ctx: [None for _ in body(ctx, _returned)]
    return repro.run(
        CONFIG,
        [
            repro.Program("F", main=bind(_exporter),
                          regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))}),
            repro.Program("U", main=bind(_importer),
                          regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))}),
        ],
        RunOptions(runtime=runtime, **options),
    )


@pytest.mark.parametrize(
    "options",
    [{}, {"retransmit_timeout": 0.05}],
    ids=["plain", "resilient"],
)
def test_runtimes_make_identical_decisions(options):
    """Same config and program bodies on the DES and on threads: the
    *decisions* agree even though the timings differ."""
    des, live = _run_on("des", **options), _run_on("live", **options)

    def decisions(result, rank):
        records = result.context("U", rank).import_states["d"].records
        return [
            (r.request_ts, r.answer.kind, r.answer.matched_ts) for r in records
        ]

    for rank in (0, 1):
        assert decisions(live, rank) == decisions(des, rank)
        assert [str(k) for _ts, k, _m in decisions(des, rank)] == [
            "MATCH", "MATCH", "NO_MATCH"
        ]
    assert set(live.counters) == set(des.counters)


def test_live_runtime_applies_the_fault_plan():
    """``fault_plan`` drives the live mailbox hook: lost messages are
    retransmitted and every importer gets the fault-free answers."""
    from repro.faults import FaultPlan

    def answers(result):
        return [
            (r.request_ts, r.answer.kind, r.answer.matched_ts)
            for rank in (0, 1)
            for r in result.context("U", rank).import_states["d"].records
        ]

    # Seed 1337's first draw drops on each of the ctl, cpl and rep planes,
    # so whichever message opens a plane is lost and must be re-asked.
    faulty = _run_on("live", fault_plan=FaultPlan(seed=1337, drop=0.1))
    assert answers(faulty) == answers(_run_on("live"))
    assert faulty.counters["retransmissions"] > 0


class TestLivePropertyViolations:
    @pytest.mark.parametrize("buddy_help", [True, False])
    def test_divergent_live_program_raises(self, buddy_help):
        """Ranks exporting different timestamp lines must be caught by
        the rep even under real-thread nondeterminism, and the first
        error ends the run at once: the threads blocked on a receive
        do not wait out ``default_timeout``."""

        def e_main(ctx):
            shift = 0.5 if ctx.rank == 1 else 0.0
            for k in range(30):
                ctx.export("d", 1.6 + k + shift)
                ctx.compute(0.001)

        def i_main(ctx):
            ctx.compute(0.01)
            ctx.import_("d", 20.0)

        sim = LiveCoupledSimulation(
            CONFIG,
            options=RunOptions(runtime="live", buddy_help=buddy_help, default_timeout=10.0),
        )
        sim.add_program("F", main=e_main,
                        regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        sim.add_program("U", main=i_main,
                        regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
        start = time.perf_counter()
        with pytest.raises(RuntimeError) as exc_info:
            sim.run(join_timeout=20.0)
        assert time.perf_counter() - start <= 0.5
        # Whichever rank meets the divergence first, the rep or rank 0
        # told to send the collective's MATCH/19.1, names Property 1.
        cause = exc_info.value.__cause__
        assert type(cause) is PropertyViolationError
        assert "19.1" in str(cause) and "19.6" in str(cause)
        assert "Property 1 violated" in str(cause)

    def test_import_timeout_surfaces(self):
        """An importer waiting on an exporter that is alive but silent
        times out with a diagnosable error instead of hanging.

        (If the exporter simply *finished*, the close path would answer
        NO_MATCH — the timeout only matters while it is still running.)
        """
        from repro.vmpi.thread_backend import MailboxTimeout

        def e_main(ctx):
            ctx.compute(1.5)  # busy far longer than the import timeout

        def i_main(ctx):
            try:
                ctx.import_("d", 20.0, timeout=0.3)
            except MailboxTimeout:
                raise RuntimeError("diagnosed-timeout") from None

        sim = LiveCoupledSimulation(
            CONFIG, options=RunOptions(runtime="live", default_timeout=5.0)
        )
        sim.add_program("F", main=e_main,
                        regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        sim.add_program("U", main=i_main,
                        regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
        with pytest.raises(RuntimeError, match="diagnosed-timeout"):
            sim.run(join_timeout=20.0)


class TestLiveSetupErrors:
    def test_missing_program(self):
        sim = LiveCoupledSimulation(CONFIG)
        sim.add_program("F", regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        with pytest.raises(ConfigError, match="never added"):
            sim.run()

    def test_unknown_program_needs_nprocs(self):
        sim = LiveCoupledSimulation(CONFIG)
        with pytest.raises(ConfigError, match="pass nprocs"):
            sim.add_program("GHOST")

    def test_shape_mismatch(self):
        sim = LiveCoupledSimulation(CONFIG)
        sim.add_program("F", regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        sim.add_program("U", regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 2)))})
        with pytest.raises(ConfigError, match="global shape"):
            sim.run()

    def test_worker_exception_surfaces(self):
        def bad_main(ctx):
            raise ValueError("application bug")

        sim = LiveCoupledSimulation(
            CONFIG, options=RunOptions(runtime="live", default_timeout=5.0)
        )
        sim.add_program("F", main=bad_main,
                        regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        sim.add_program("U",
                        regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
        with pytest.raises(RuntimeError, match="application bug"):
            sim.run(join_timeout=10.0)
