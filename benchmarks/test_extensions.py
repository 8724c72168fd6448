"""Benchmarks for the paper's Section-6 future-work items, implemented
here as extensions:

* finite buffer space — throughput vs. capacity under backpressure,
  with buddy-help on/off (buddy-help bounds *memory*, not just time);
* non-blocking imports — overlapping the framework round-trip with
  importer compute.
"""

import numpy as np

from conftest import emit
from repro.api import RunOptions
from repro.bench.reporting import format_table
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition

CONFIG = """
E c0 /bin/E 2
I c1 /bin/I 2
#
E.d I.d REGL 2.5
"""

BLOCK_BYTES = 4 * 8 * 8


def _run_finite(capacity_blocks, buddy):
    def e_main(ctx):
        scale = 3.0 if ctx.rank == 1 else 1.0
        for k in range(200):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(0.001 * scale)

    def i_main(ctx):
        for j in range(1, 11):
            yield from ctx.compute(0.002)
            yield from ctx.import_("d", 20.0 * j)

    cs = CoupledSimulation(
        CONFIG,
        options=RunOptions(
            preset=FAST_TEST,
            buddy_help=buddy,
            buffer_capacity_bytes=capacity_blocks * BLOCK_BYTES,
            buffer_policy="block",
        ),
    )
    cs.add_program("E", main=e_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    cs.add_program("I", main=i_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    cs.run()
    slow = cs.context("E", 1)
    return {
        "sim_time": cs.sim.now,
        "stall": slow.stats.backpressure_time,
        "peak": cs.buffer_stats("E", 1, "d").peak_bytes,
    }


def test_finite_buffer_capacity_sweep(benchmark):
    def sweep():
        out = {}
        for cap in (25, 50, 100, 10_000):
            for buddy in (True, False):
                out[(cap, buddy)] = _run_finite(cap, buddy)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for (cap, buddy), r in sorted(results.items()):
        rows.append([
            cap if cap < 10_000 else "inf",
            "on" if buddy else "off",
            f"{r['sim_time']:.3f}",
            f"{r['stall'] * 1e3:.2f}",
            r["peak"] // BLOCK_BYTES,
        ])
    emit(
        "Extension: finite buffer space (backpressure), capacity sweep",
        format_table(
            ["capacity (blocks)", "buddy", "run time s", "p_s stall ms", "peak blocks"],
            rows,
        ),
    )
    # Backpressure must preserve completion and monotonically shrink
    # stalls as capacity grows.
    for buddy in (True, False):
        stalls = [results[(c, buddy)]["stall"] for c in (25, 50, 100, 10_000)]
        assert stalls[-1] == 0.0
        assert stalls[0] >= stalls[-1]
    benchmark.extra_info["paper"] = "Section 6: 'performance effects of finite buffer space'"


def test_nonblocking_import_overlap(benchmark):
    def run(mode):
        finish = {}

        def e_main(ctx):
            for k in range(80):
                yield from ctx.export("d", 1.6 + k)
                yield from ctx.compute(0.002)

        def i_main(ctx):
            for j in range(1, 4):
                if mode == "blocking":
                    yield from ctx.compute(0.03)
                    yield from ctx.import_("d", 20.0 * j)
                else:
                    handle = ctx.import_begin("d", 20.0 * j)
                    yield from ctx.compute(0.03)
                    yield from ctx.import_wait(handle)
            finish[ctx.rank] = ctx.sim.now

        cs = CoupledSimulation(CONFIG, options=RunOptions(preset=FAST_TEST))
        cs.add_program("E", main=e_main,
                       regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
        cs.add_program("I", main=i_main,
                       regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
        cs.run()
        return max(finish.values())

    def both():
        return run("blocking"), run("overlap")

    blocking, overlap = benchmark.pedantic(both, rounds=1, iterations=1)
    emit(
        "Extension: non-blocking imports (request/compute overlap)",
        format_table(
            ["mode", "importer finish time (s)"],
            [["blocking", f"{blocking:.4f}"], ["overlapped", f"{overlap:.4f}"]],
        ),
    )
    assert overlap < blocking
    benchmark.extra_info["speedup"] = blocking / overlap
    benchmark.extra_info["paper"] = "Section 6: non-blocking data transfers"
