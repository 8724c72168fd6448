#!/usr/bin/env python
"""Live coupled diffusion on real threads.

The same coupling pattern as ``coupled_diffusion.py`` but with the
*live* runtime (:class:`repro.LiveCoupledSimulation`): eight real
OS threads (2×2 solver ranks + 2×2 source ranks, plus framework agents
and reps) exchanging a heat source field through the buddy-help
framework at wall-clock time, solving ``u_t = ∇²u + f``.

The source program is deliberately skewed (its last rank sleeps twice
as long per step), so buddy-help messages really flow — the run prints
the slow rank's skip statistics at the end, plus a terminal heatmap of
the final temperature field.

Run:  python examples/live_coupled_heat.py
"""

import numpy as np

import repro
from repro.apps.forcing import evaluate_on_region, rotating_source
from repro.apps.heat import HeatSolver2D
from repro.core import RegionDef
from repro.data import BlockDecomposition, DistributedArray

SHAPE = (48, 48)
DT = 0.2
STEPS = 60
IMPORT_EVERY = 10
SOURCE_DT = 0.5

CONFIG = """
SRC  c0 /bin/source 4
HEAT c1 /bin/heat 4
#
SRC.q HEAT.q REGL 1.5
"""

from repro.util.render import heatmap  # noqa: E402

FIELD = rotating_source(domain=(48.0, 48.0), period=20.0, sigma=5.0, amplitude=4.0)


def src_main(ctx):
    region = ctx.local_region("q")
    n_exports = int(STEPS * DT / SOURCE_DT) + 8
    sleep = 0.004 if ctx.rank == 3 else 0.002  # rank 3 is p_s
    for k in range(n_exports):
        t = round(SOURCE_DT * (k + 1), 6)
        ctx.export("q", t, data=evaluate_on_region(FIELD, t, region))
        ctx.compute(sleep)


def make_heat_main(results):
    decomp = BlockDecomposition(SHAPE, (2, 2))

    def heat_main(ctx):
        solver = HeatSolver2D(decomp, ctx.rank, dt=DT)
        solver.set_initial(lambda X, Y: np.zeros_like(X))
        forcing = np.zeros(solver.u.local.shape)
        for step in range(STEPS):
            if step % IMPORT_EVERY == 0:
                want = round(solver.time + IMPORT_EVERY * DT, 6)
                matched, block = ctx.import_("q", want)
                if block is not None:
                    forcing = block
                if ctx.rank == 0:
                    print(f"  heat wanted q@{want:<5} -> matched q@{matched}")
            solver.step_blocking(ctx.comm, forcing=forcing)
        results[ctx.rank] = solver.u

    return heat_main


def main():
    results = {}
    dec = BlockDecomposition(SHAPE, (2, 2))
    # build() rather than run(): the live runtime's join_timeout knob is
    # only reachable on the simulation handle itself.
    sim = repro.build(
        CONFIG,
        [
            repro.Program("SRC", main=src_main, regions={"q": RegionDef(dec)}),
            repro.Program(
                "HEAT", main=make_heat_main(results), regions={"q": RegionDef(dec)}
            ),
        ],
        repro.RunOptions(runtime="live", buddy_help=True, default_timeout=30.0),
    )
    print("Running live coupled diffusion on 8 application threads ...")
    sim.run(join_timeout=120.0)

    full = DistributedArray.assemble([results[r] for r in range(4)])
    print("\nFinal temperature field:")
    print(heatmap(full))
    print(f"\ntotal heat: {float(full.sum()):.3f}   peak: {float(full.max()):.3f}")

    slow = sim.context("SRC", 3)
    print(f"\nslow source rank p3 decisions: {slow.stats.decisions()}")
    st = sim.buffer_stats("SRC", 3, "q")
    print(f"p3 buffer ledger: buffered={st.buffered_count} sent={st.sent_count} "
          f"freed-unsent={st.freed_unsent_count} "
          f"measured memcpy time={st.total_memcpy_time * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
