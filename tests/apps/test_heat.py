"""Tests for the explicit diffusion solver."""

import math

import numpy as np
import pytest

from repro.apps.forcing import evaluate_on_region, gaussian_pulse, rotating_source
from repro.apps.heat import HeatSolver2D, heat_cfl_limit, solve_heat_reference
from repro.data.darray import DistributedArray
from repro.data.decomposition import BlockDecomposition
from repro.vmpi import DesWorld


def sine_mode(shape):
    nx, ny = shape

    def u0(X, Y):
        return np.sin(math.pi * (X + 1) / (nx + 1)) * np.sin(
            math.pi * (Y + 1) / (ny + 1)
        )

    return u0


class TestReference:
    def test_zero_stays_zero(self):
        u = solve_heat_reference((12, 12), steps=30, dt=0.2)
        np.testing.assert_allclose(u, 0.0)

    def test_sine_mode_decays_at_discrete_rate(self):
        """The first Dirichlet mode decays by a known factor per step."""
        n = 21
        dt = 0.2
        u0 = sine_mode((n, n))
        steps = 40
        u = solve_heat_reference((n, n), steps=steps, dt=dt, u0=u0)
        # Discrete eigenvalue of the 5-point Laplacian for this mode:
        k = math.pi / (n + 1)
        lam = -4.0 * (math.sin(k / 2.0) ** 2) * 2.0  # both axes
        factor = (1.0 + dt * lam) ** steps
        X, Y = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float), indexing="ij")
        expected = u0(X, Y) * factor
        np.testing.assert_allclose(u, expected, atol=1e-10)

    def test_maximum_principle(self):
        """Unforced diffusion never exceeds the initial extremes."""
        rng = np.random.default_rng(5)
        init = rng.random((16, 16))
        u = solve_heat_reference(
            (16, 16), steps=60, dt=0.2, u0=lambda X, Y: init
        )
        assert u.max() <= init.max() + 1e-12
        assert u.min() >= min(init.min(), 0.0) - 1e-12

    def test_heat_dissipates(self):
        u0 = sine_mode((16, 16))
        early = solve_heat_reference((16, 16), steps=5, dt=0.2, u0=u0)
        late = solve_heat_reference((16, 16), steps=50, dt=0.2, u0=u0)
        assert np.abs(late).sum() < np.abs(early).sum()

    def test_cfl_enforced(self):
        d = BlockDecomposition((8, 8), (1, 1))
        with pytest.raises(ValueError, match="stability bound"):
            HeatSolver2D(d, 0, dt=0.5, alpha=1.0)  # limit is 0.25

    def test_cfl_limit_value(self):
        assert heat_cfl_limit(1.0, 1.0) == pytest.approx(0.25)
        assert heat_cfl_limit(2.0, 0.5) == pytest.approx(2.0)


class TestDistributedMatchesReference:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 1)])
    def test_unforced(self, grid):
        shape = (18, 15)
        steps = 25
        dt = 0.2
        u0 = sine_mode(shape)
        reference = solve_heat_reference(shape, steps=steps, dt=dt, u0=u0)
        decomp = BlockDecomposition(shape, grid)
        world = DesWorld()
        world.create_program("H", decomp.nprocs)
        blocks = {}

        def main(comm):
            solver = HeatSolver2D(decomp, comm.rank, dt=dt)
            solver.set_initial(u0)
            for _ in range(steps):
                yield from solver.step_des(comm)
            blocks[comm.rank] = solver.u

        world.spawn_all("H", main)
        world.run()
        full = DistributedArray.assemble([blocks[r] for r in range(decomp.nprocs)])
        assert np.array_equal(full, reference)

    def test_forced(self):
        shape = (12, 12)
        steps = 20
        dt = 0.2
        field = gaussian_pulse(center=(6.0, 6.0), sigma=2.0, omega=0.9)
        reference = solve_heat_reference(shape, steps=steps, dt=dt, forcing=field)
        decomp = BlockDecomposition(shape, (2, 1))
        world = DesWorld()
        world.create_program("H", 2)
        blocks = {}

        def main(comm):
            solver = HeatSolver2D(decomp, comm.rank, dt=dt)
            t = 0.0
            for _ in range(steps):
                f_block = evaluate_on_region(field, t, solver.u.region)
                yield from solver.step_des(comm, forcing=f_block)
                t += dt
            blocks[comm.rank] = solver.u

        world.spawn_all("H", main)
        world.run()
        full = DistributedArray.assemble([blocks[0], blocks[1]])
        assert np.array_equal(full, reference)

    @pytest.mark.parametrize(
        "shape,grid,dx,forced",
        [
            ((130, 70), (3, 2), 1.0, False),
            ((130, 70), (3, 2), 1.5, True),
            ((130, 70), (1, 2), 1.0, True),  # 130 local rows: 64 + 64 + 2
            ((18, 15), (2, 2), 1.5, False),
        ],
    )
    def test_exact_cases(self, shape, grid, dx, forced):
        """Row counts off the kernel's block size, dx != 1, the benchmark's forcing."""
        steps, dt = 12, 0.2
        u0 = sine_mode(shape)
        field = None
        if forced:
            domain = (float(shape[0]), float(shape[1]))
            field = rotating_source(domain=domain, sigma=6.0, period=7.0)
        reference = solve_heat_reference(
            shape, steps=steps, dt=dt, dx=dx, u0=u0, forcing=field
        )
        decomp = BlockDecomposition(shape, grid)
        world = DesWorld()
        world.create_program("H", decomp.nprocs)
        blocks = {}

        def main(comm):
            solver = HeatSolver2D(decomp, comm.rank, dt=dt, dx=dx)
            solver.set_initial(u0)
            for _ in range(steps):
                f_block = None
                if field is not None:
                    f_block = evaluate_on_region(field, solver.time, solver.u.region)
                yield from solver.step_des(comm, forcing=f_block)
            blocks[comm.rank] = solver.u

        world.spawn_all("H", main)
        world.run()
        full = DistributedArray.assemble([blocks[r] for r in range(decomp.nprocs)])
        assert np.array_equal(full, reference)

    def test_bad_forcing_leaves_state_unchanged(self):
        d = BlockDecomposition((8, 8), (1, 2))
        s = HeatSolver2D(d, 0, dt=0.2)
        s.u.padded[...] = np.arange(s.u.padded.size).reshape(s.u.padded.shape)
        before = s.u.padded.copy()
        with pytest.raises(ValueError, match="forcing shape"):
            s.step_local(forcing=np.zeros((8, 8)))
        assert np.array_equal(s.u.padded, before)
        assert (s.time, s.steps_taken) == (0.0, 0)

    def test_diagnostics(self):
        d = BlockDecomposition((8, 8), (1, 1))
        s = HeatSolver2D(d, 0, dt=0.2)
        s.set_initial(lambda X, Y: np.ones_like(X))
        assert s.total_heat() == pytest.approx(64.0)
        s.step_local()
        assert s.steps_taken == 1
        assert s.time == pytest.approx(0.2)
