"""Tests for the wave solver: stability, physics, distributed == serial."""

import math

import numpy as np
import pytest

from repro.apps.diffusion import WaveSolver2D, cfl_limit, solve_reference
from repro.apps.forcing import evaluate_on_region, gaussian_pulse, rotating_source
from repro.data.darray import DistributedArray
from repro.data.decomposition import BlockDecomposition
from repro.vmpi import DesWorld


def standing_mode(shape):
    """First standing mode of the Dirichlet box (analytic solution)."""
    nx, ny = shape

    def u0(X, Y):
        return np.sin(math.pi * (X + 1) / (nx + 1)) * np.sin(
            math.pi * (Y + 1) / (ny + 1)
        )

    return u0


class TestReferenceSolver:
    def test_zero_initial_stays_zero(self):
        u = solve_reference((16, 16), steps=50, dt=0.4)
        np.testing.assert_allclose(u, 0.0)

    def test_standing_mode_oscillates_with_correct_frequency(self):
        """The discrete standing mode returns (negated) after half a period."""
        n = 31
        u0 = standing_mode((n, n))
        dt = 0.1
        # Discrete dispersion: omega = 2/dt * asin(c*dt/dx * sin(k/2)*sqrt(2))
        k = math.pi / (n + 1)
        s = dt * math.sqrt(2.0) * math.sin(k / 2.0)
        omega = 2.0 / dt * math.asin(s)
        period = 2.0 * math.pi / omega
        steps = int(round(period / dt))
        u_final = solve_reference((n, n), steps=steps, dt=dt, u0=u0)
        X, Y = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float), indexing="ij")
        expected = u0(X, Y) * math.cos(omega * steps * dt)
        assert np.max(np.abs(u_final - expected)) < 0.05

    def test_forcing_injects_energy(self):
        f = gaussian_pulse(center=(8.0, 8.0), sigma=2.0, omega=0.7)
        u = solve_reference((16, 16), steps=40, dt=0.4, forcing=f)
        assert np.max(np.abs(u)) > 0.0

    def test_cfl_violation_rejected_distributed(self):
        d = BlockDecomposition((8, 8), (1, 1))
        with pytest.raises(ValueError, match="CFL"):
            WaveSolver2D(d, 0, dt=1.0)

    def test_cfl_limit_value(self):
        assert cfl_limit(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))


class TestDistributedMatchesReference:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (4, 1), (2, 3)])
    def test_unforced(self, grid):
        shape = (24, 18)
        steps = 30
        dt = 0.5
        u0 = standing_mode(shape)
        reference = solve_reference(shape, steps=steps, dt=dt, u0=u0)

        decomp = BlockDecomposition(shape, grid)
        world = DesWorld()
        world.create_program("W", decomp.nprocs)
        blocks = {}

        def main(comm):
            solver = WaveSolver2D(decomp, comm.rank, dt=dt)
            solver.set_initial(u0)
            for _ in range(steps):
                yield from solver.step_des(comm)
            blocks[comm.rank] = solver.u

        world.spawn_all("W", main)
        world.run()
        full = DistributedArray.assemble([blocks[r] for r in range(decomp.nprocs)])
        assert np.array_equal(full, reference)

    def test_forced(self):
        shape = (16, 16)
        steps = 25
        dt = 0.5
        field = gaussian_pulse(center=(8.0, 8.0), sigma=3.0, omega=0.5)
        reference = solve_reference(shape, steps=steps, dt=dt, forcing=field)

        decomp = BlockDecomposition(shape, (2, 2))
        world = DesWorld()
        world.create_program("W", 4)
        blocks = {}

        def main(comm):
            solver = WaveSolver2D(decomp, comm.rank, dt=dt)
            t = 0.0
            for _ in range(steps):
                f_block = evaluate_on_region(field, t, solver.u.region)
                yield from solver.step_des(comm, forcing=f_block)
                t += dt
            blocks[comm.rank] = solver.u

        world.spawn_all("W", main)
        world.run()
        full = DistributedArray.assemble([blocks[r] for r in range(4)])
        assert np.array_equal(full, reference)

    def test_velocity_initial_condition(self):
        shape = (12, 12)
        dt = 0.4
        v0 = lambda X, Y: np.ones_like(X)  # noqa: E731
        reference = solve_reference(shape, steps=10, dt=dt, v0=v0)
        decomp = BlockDecomposition(shape, (2, 1))
        world = DesWorld()
        world.create_program("W", 2)
        blocks = {}

        def main(comm):
            solver = WaveSolver2D(decomp, comm.rank, dt=dt)
            solver.set_initial(lambda X, Y: np.zeros_like(X), v0=v0)
            for _ in range(10):
                yield from solver.step_des(comm)
            blocks[comm.rank] = solver.u

        world.spawn_all("W", main)
        world.run()
        full = DistributedArray.assemble([blocks[0], blocks[1]])
        assert np.array_equal(full, reference)


def run_distributed(shape, grid, steps, dt, dx=1.0, u0=None, field=None):
    """Assembled field of a DES run of WaveSolver2D on *grid*."""
    decomp = BlockDecomposition(shape, grid)
    world = DesWorld()
    world.create_program("W", decomp.nprocs)
    blocks = {}

    def main(comm):
        solver = WaveSolver2D(decomp, comm.rank, dt=dt, dx=dx)
        if u0 is not None:
            solver.set_initial(u0)
        for _ in range(steps):
            f_block = None
            if field is not None:
                f_block = evaluate_on_region(field, solver.time, solver.u.region)
            yield from solver.step_des(comm, forcing=f_block)
        blocks[comm.rank] = solver.u

    world.spawn_all("W", main)
    world.run()
    return DistributedArray.assemble([blocks[r] for r in range(decomp.nprocs)])


class TestExactCases:
    """Row counts off the kernel's block size, dx != 1, the benchmark's forcing."""

    @pytest.mark.parametrize(
        "shape,grid,dx,forced",
        [
            ((130, 70), (3, 2), 1.0, False),
            ((130, 70), (3, 2), 1.5, True),
            ((130, 70), (1, 2), 1.0, True),  # 130 local rows: 64 + 64 + 2
            ((24, 18), (2, 2), 1.5, False),
        ],
    )
    def test_matches_reference_exactly(self, shape, grid, dx, forced):
        steps, dt = 12, 0.5
        u0 = standing_mode(shape)
        field = None
        if forced:
            domain = (float(shape[0]), float(shape[1]))
            field = rotating_source(domain=domain, sigma=6.0, period=7.0)
        reference = solve_reference(shape, steps=steps, dt=dt, dx=dx, u0=u0, forcing=field)
        full = run_distributed(shape, grid, steps, dt, dx=dx, u0=u0, field=field)
        assert np.array_equal(full, reference)


class TestSolverState:
    def test_time_and_steps_advance(self):
        d = BlockDecomposition((8, 8), (1, 1))
        s = WaveSolver2D(d, 0, dt=0.5)
        s.set_initial(standing_mode((8, 8)))
        s.step_local()
        s.step_local()
        assert s.steps_taken == 2
        assert s.time == pytest.approx(1.0)

    def test_local_energy_positive_for_nonzero_field(self):
        d = BlockDecomposition((8, 8), (1, 1))
        s = WaveSolver2D(d, 0, dt=0.5)
        s.set_initial(standing_mode((8, 8)))
        assert s.local_energy() > 0.0

    def test_forcing_shape_mismatch_rejected(self):
        """Refused before any write: fields, time and step count unchanged."""
        d = BlockDecomposition((8, 8), (2, 1))
        s = WaveSolver2D(d, 0, dt=0.5)
        s.set_initial(standing_mode((8, 8)))
        s.u.padded[...] = np.arange(s.u.padded.size).reshape(s.u.padded.shape)
        s.step_local()
        u, u_prev = s.u, s.u_prev
        before = (u.padded.copy(), u_prev.padded.copy(), s.time, s.steps_taken)
        with pytest.raises(ValueError, match="forcing shape"):
            s.step_local(forcing=np.zeros((4, 7)))
        assert s.u is u and s.u_prev is u_prev
        assert np.array_equal(u.padded, before[0]) and np.array_equal(u_prev.padded, before[1])
        assert (s.time, s.steps_taken) == before[2:]
