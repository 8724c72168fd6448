"""Ablation benchmarks beyond the paper's figures.

These probe the design choices DESIGN.md calls out:

* tolerance sweep — the paper's remark that the benefit depends on the
  ratio of acceptable-region size to request inter-arrival time;
* ``disjoint_regions`` on/off — the provably-safe conservative mode
  buffers more but must produce identical answers;
* match-policy comparison (REGL / REGU / REG) on one workload.
"""

import numpy as np
import pytest

from conftest import emit
from repro.api import RunOptions
from repro.bench.reporting import format_table
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.costs import FAST_TEST
from repro.data.decomposition import BlockDecomposition


def _coupled(policy_line, buddy=True, exports=240, request_period=20.0,
             requests=None, slow=4.0):
    config = f"E c0 /bin/E 2\nI c1 /bin/I 2\n#\n{policy_line}\n"
    n_requests = requests or int((1.6 + exports - 1) // request_period)
    answers = {}

    def e_main(ctx):
        scale = slow if ctx.rank == 1 else 1.0
        for k in range(exports):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(0.0005 * scale)

    def i_main(ctx):
        got = []
        for j in range(1, n_requests + 1):
            yield from ctx.compute(0.0002)
            m, _ = yield from ctx.import_("d", request_period * j)
            got.append(m)
        answers[ctx.rank] = got

    cs = CoupledSimulation(
        config, options=RunOptions(preset=FAST_TEST, buddy_help=buddy, seed=11)
    )
    dec = BlockDecomposition((8, 8), (2, 1))
    deci = BlockDecomposition((8, 8), (1, 2))
    cs.add_program("E", main=e_main, regions={"d": RegionDef(dec)})
    cs.add_program("I", main=i_main, regions={"d": RegionDef(deci)})
    cs.run()
    return cs, answers


def test_tolerance_sweep(benchmark):
    """Wider acceptable regions -> more skippable exports per window."""

    def sweep():
        out = {}
        for tol in (0.5, 2.5, 5.0, 10.0):
            cs, _ = _coupled(f"E.d I.d REGL {tol}")
            out[tol] = cs.context("E", 1).stats.decisions()
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [tol, d.get("skip", 0), d.get("buffer", 0), d.get("send", 0)]
        for tol, d in sorted(results.items())
    ]
    emit(
        "Ablation: tolerance sweep (REGL, slow exporter, buddy on)",
        format_table(["tolerance", "skips", "buffers", "sends"], rows),
    )
    skips = [d.get("skip", 0) for _tol, d in sorted(results.items())]
    assert skips == sorted(skips)  # monotone in tolerance
    benchmark.extra_info["paper"] = (
        "benefit grows with region-size / inter-arrival ratio (Section 5)"
    )


def test_disjoint_vs_conservative_mode(benchmark):
    """The `overlapping` connection flag: same answers, more buffering."""

    def run_pair():
        cs_d, ans_d = _coupled("E.d I.d REGL 2.5")
        cs_c, ans_c = _coupled("E.d I.d REGL 2.5 overlapping")
        return (cs_d, ans_d), (cs_c, ans_c)

    (cs_d, ans_d), (cs_c, ans_c) = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert ans_d == ans_c  # correctness is mode-independent
    dis = cs_d.context("E", 1).stats.decisions()
    con = cs_c.context("E", 1).stats.decisions()
    emit(
        "Ablation: disjoint-regions assumption vs conservative mode",
        format_table(
            ["mode", "skips", "buffers"],
            [
                ["disjoint (paper)", dis.get("skip", 0), dis.get("buffer", 0)],
                ["conservative", con.get("skip", 0), con.get("buffer", 0)],
            ],
        ),
    )
    assert dis.get("skip", 0) >= con.get("skip", 0)


def test_policy_comparison(benchmark):
    """REGL/REGU/REG matched timestamps on the same stream."""

    def sweep():
        out = {}
        for pol in ("REGL 2.5", "REGU 2.5", "REG 2.5"):
            _cs, answers = _coupled(f"E.d I.d {pol}", requests=5)
            out[pol] = answers[0]
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[pol, *ms] for pol, ms in sorted(results.items())]
    emit(
        "Ablation: match-policy comparison (requests at 20..100)",
        format_table(["policy", "m@20", "m@40", "m@60", "m@80", "m@100"], rows),
    )
    # REGL matches just below, REGU just above, REG whichever is closer.
    assert results["REGL 2.5"][0] == pytest.approx(19.6)
    assert results["REGU 2.5"][0] == pytest.approx(20.6)
    assert results["REG 2.5"][0] in (pytest.approx(19.6), pytest.approx(20.6))
    for pol, ms in results.items():
        assert all(m is not None for m in ms), pol


def test_section_transfer_traffic(benchmark):
    """Region sections shrink the data plane: coupling a boundary strip
    moves a fraction of the elements the whole-field coupling moves."""
    from repro.data import RectRegion
    from repro.data.decomposition import BlockDecomposition
    from repro.data.schedule import CommSchedule

    shape = (1024, 1024)
    src = BlockDecomposition(shape, (2, 2))
    dst = BlockDecomposition(shape, (16, 1))

    def build_all():
        return {
            "full field": CommSchedule.build(src, dst),
            "boundary strip (4 rows)": CommSchedule.build(
                src, dst, RectRegion((0, 0), (4, 1024))
            ),
            "interior window": CommSchedule.build(
                src, dst, RectRegion((384, 384), (640, 640))
            ),
        }

    schedules = benchmark.pedantic(build_all, rounds=1, iterations=1)
    rows = [
        [name, s.total_elements, s.message_count(),
         f"{s.total_elements / (1024 * 1024):.4f}"]
        for name, s in schedules.items()
    ]
    emit(
        "Ablation: transfer traffic by coupled section (4 -> 16 ranks)",
        format_table(["section", "elements", "messages", "fraction"], rows),
    )
    assert schedules["boundary strip (4 rows)"].total_elements == 4 * 1024
    assert all(s.is_complete() for s in schedules.values())


def test_buffer_peak_memory(benchmark):
    """Buddy-help also bounds buffer occupancy, not just time."""

    def run_pair():
        cs_on, _ = _coupled("E.d I.d REGL 2.5", buddy=True)
        cs_off, _ = _coupled("E.d I.d REGL 2.5", buddy=False)
        return cs_on, cs_off

    cs_on, cs_off = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    on = cs_on.buffer_stats("E", 1, "d")
    off = cs_off.buffer_stats("E", 1, "d")
    emit(
        "Ablation: peak buffered bytes of p_s, buddy on/off",
        format_table(
            ["buddy", "peak bytes", "buffered objects"],
            [["on", on.peak_bytes, on.buffered_count],
             ["off", off.peak_bytes, off.buffered_count]],
        ),
    )
    assert on.buffered_count <= off.buffered_count
