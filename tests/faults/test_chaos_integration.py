"""End-to-end chaos determinism, the resilience sweep, and the CLI."""

import json

from repro.api import RunOptions
from repro.bench.resilience import run_once, run_resilience_sweep
from repro.cli import main
from repro.core.coupler import CoupledSimulation, ProcessContext, RegionDef
from repro.data.decomposition import BlockDecomposition
from repro.faults import FaultPlan
from repro.util.tracing import Tracer


def traced_run(seed):
    """One small chaos run; returns (trace, fault stats, final time)."""
    config = (
        "E c0 /bin/E 2\n"
        "I c1 /bin/I 2\n"
        "#\n"
        "E.d I.d REGL 2.5\n"
    )
    shape = (16, 16)

    def e_main(ctx: ProcessContext):
        for k in range(10):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(2e-3)

    def i_main(ctx: ProcessContext):
        for j in range(1, 4):
            yield from ctx.compute(5e-4)
            yield from ctx.import_("d", 2.0 * j)

    tracer = Tracer()
    plan = FaultPlan(seed=seed, drop=0.2, dup=0.1, delay_jitter=5e-5, reorder=0.1)
    cs = CoupledSimulation(
        config, options=RunOptions(seed=0, fault_plan=plan, tracer=tracer)
    )
    cs.add_program(
        "E", main=e_main, regions={"d": RegionDef(BlockDecomposition(shape, (2, 1)))}
    )
    cs.add_program(
        "I", main=i_main, regions={"d": RegionDef(BlockDecomposition(shape, (1, 2)))}
    )
    cs.run()
    trace = [(e.kind, e.who, e.time, e.timestamp, e.detail) for e in tracer.events]
    return trace, cs.world.network.stats.as_dict(), cs.sim.now


class TestChaosDeterminism:
    def test_same_seed_reproduces_the_run_exactly(self):
        trace_a, stats_a, end_a = traced_run(seed=11)
        trace_b, stats_b, end_b = traced_run(seed=11)
        assert trace_a == trace_b
        assert stats_a == stats_b
        assert end_a == end_b
        assert stats_a["dropped"] > 0  # the chaos actually fired

    def test_different_seed_changes_the_chaos(self):
        trace_a, stats_a, _ = traced_run(seed=11)
        trace_c, stats_c, _ = traced_run(seed=12)
        assert (trace_a, stats_a) != (trace_c, stats_c)


class TestResilienceSweep:
    def test_small_sweep_is_answer_consistent(self):
        sweep = run_resilience_sweep(
            drop_rates=(0.0, 0.2), exports=16, requests=6, seed=7
        )
        assert len(sweep.runs) == 3  # baseline + two chaos runs
        assert sweep.answers_consistent
        chaos = sweep.runs[-1]
        assert chaos.fault_stats is not None
        assert chaos.fault_stats["dropped"] > 0
        assert chaos.retransmissions > 0

    def test_run_once_reports_the_ledgers(self):
        r = run_once(None, exports=16, requests=6)
        assert r.fault_stats is None
        assert r.mean_answer_latency > 0.0
        assert len(r.answers) == 2
        assert all(len(log) == 6 for log in r.answers.values())


def chaos_argv(exports, requests, seed, *drops):
    """``repro run`` of the resilience scenario: fault-free, then one plan per drop."""
    argv = ["run", "resilience", "-p", f"exports={exports}", "-p", f"requests={requests}",
            "--fault", "null"]
    for drop in drops:
        plan = {"seed": seed, "drop": drop, "dup": 0.1, "delay_jitter": 5e-5, "reorder": 0.1}
        argv += ["--fault", json.dumps(plan)]
    return argv


class TestChaosCli:
    def test_chaos_subcommand_passes_and_reports(self, capsys):
        rc = main(chaos_argv(13, 6, 7, 0.2))
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault=1" in out
        assert "OK: every faulted cell reproduced its fault-free answers" in out

    def test_chaos_accepts_multiple_drop_rates(self, capsys):
        rc = main(chaos_argv(9, 4, 3, 0.0, 0.1))
        assert rc == 0
