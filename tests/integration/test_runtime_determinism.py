"""Determinism of the full coupled runtime under random parameters.

Whatever the workload, two runs with equal seeds must be bit-identical
— series, buffer ledgers, final clock.  This is what makes the
Figure-4 experiments reproducible measurements rather than samples.
"""

from hypothesis import given, settings, strategies as st

from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition
from repro.vmpi import SUM, DesWorld, plan_allreduce, plan_allgather, simulate_plans

CONFIG = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"


def run_once(seed, e_sleep, i_sleep, exports, n_requests):
    def e_main(ctx):
        scale = 3.0 if ctx.rank == 1 else 1.0
        for k in range(exports):
            yield from ctx.export("d", 1.0 + k)
            yield from ctx.compute_elements(1000, scale=scale * e_sleep)

    def i_main(ctx):
        for j in range(1, n_requests + 1):
            yield from ctx.compute_elements(1000, scale=i_sleep)
            yield from ctx.import_("d", 10.0 * j)

    from repro.costs.models import ComputeCostModel, MemoryCostModel, NetworkCostModel
    from repro.costs.presets import ClusterPreset

    preset = ClusterPreset(
        name="jittered",
        memory=MemoryCostModel(setup_time=1e-6, bandwidth=1e10, jitter=0.05),
        network=NetworkCostModel(latency=1e-6, bandwidth=1e10),
        compute=ComputeCostModel(time_per_element=1e-7, jitter=0.05),
    )
    cs = CoupledSimulation(CONFIG, options=RunOptions(preset=preset, seed=seed))
    cs.add_program("E", main=e_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    cs.add_program("I", main=i_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    cs.run()
    return (
        cs.export_series("E", 0),
        cs.export_series("E", 1),
        cs.buffer_stats("E", 1, "d").t_ub,
        cs.sim.now,
    )


class TestCoupledDeterminism:
    @given(
        seed=st.integers(0, 10_000),
        e_sleep=st.floats(0.5, 3.0, allow_nan=False),
        i_sleep=st.floats(0.5, 30.0, allow_nan=False),
        exports=st.integers(15, 45),
    )
    @settings(max_examples=15, deadline=None)
    def test_equal_seeds_bitwise_equal(self, seed, e_sleep, i_sleep, exports):
        n_requests = max(1, exports // 12)
        a = run_once(seed, e_sleep, i_sleep, exports, n_requests)
        b = run_once(seed, e_sleep, i_sleep, exports, n_requests)
        assert a == b

    def test_different_seeds_differ_with_jitter(self):
        a = run_once(1, 1.0, 5.0, 30, 2)
        b = run_once(2, 1.0, 5.0, 30, 2)
        assert a[3] != b[3]  # jittered clocks diverge


class TestBackendAgreesWithPlanSimulator:
    @given(
        size=st.integers(1, 9),
        values=st.lists(st.integers(-100, 100), min_size=9, max_size=9),
    )
    @settings(max_examples=25, deadline=None)
    def test_des_collectives_match_reference_executor(self, size, values):
        values = values[:size]
        ref_sum = simulate_plans(
            [plan_allreduce(r, size, values[r], SUM, "k") for r in range(size)]
        )
        ref_gather = simulate_plans(
            [plan_allgather(r, size, values[r] * 2, "k") for r in range(size)]
        )
        world = DesWorld(latency=1e-6)
        world.create_program("P", size)
        out = {}

        def main(comm):
            s = yield from comm.allreduce(values[comm.rank], SUM)
            g = yield from comm.allgather(values[comm.rank] * 2)
            out[comm.rank] = (s, g)

        world.spawn_all("P", main)
        world.run()
        assert [out[r][0] for r in range(size)] == ref_sum
        assert [out[r][1] for r in range(size)] == ref_gather
