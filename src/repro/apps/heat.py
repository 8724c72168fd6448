"""Explicit heat/diffusion solver: ``u_t = α (u_xx + u_yy) + f``.

The paper's Section 5 describes its benchmark equation as "a two
dimensional diffusion equation" while writing the wave form
``u_tt = u_xx + u_yy + f``; this repository provides *both* —
:mod:`repro.apps.diffusion` implements the wave form exactly as
printed, and this module the parabolic reading — so either
interpretation of the benchmark can be run.

Forward-Euler with the five-point Laplacian; stability requires
``dt <= dx² / (4 α)``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

from repro.apps.halo import halo_exchange, halo_exchange_blocking, neighbor_table
from repro.apps.stencil import RowBlockedStencil, apply_dirichlet, laplacian
from repro.data.darray import DistributedArray
from repro.data.decomposition import BlockDecomposition
from repro.util.validation import require


def heat_cfl_limit(dx: float, alpha: float) -> float:
    """Largest stable forward-Euler step: ``dx² / (4 α)``."""
    return dx * dx / (4.0 * alpha)


class HeatSolver2D:
    """One rank's share of the distributed explicit diffusion solver."""

    def __init__(
        self,
        decomp: BlockDecomposition,
        rank: int,
        dt: float,
        dx: float = 1.0,
        alpha: float = 1.0,
    ) -> None:
        require(decomp.ndim == 2, "HeatSolver2D needs a 2-D decomposition")
        require(dt > 0 and dx > 0 and alpha > 0, "dt, dx, alpha must be positive")
        require(
            dt <= heat_cfl_limit(dx, alpha) + 1e-12,
            f"dt={dt} violates the diffusion stability bound "
            f"{heat_cfl_limit(dx, alpha):.6g}",
        )
        self.decomp = decomp
        self.rank = rank
        self.dt = dt
        self.dx = dx
        self.alpha = alpha
        self.time = 0.0
        self.steps_taken = 0
        self.u = DistributedArray(decomp, rank, halo=1)
        # Homogeneous Dirichlet on the faces without a neighbor.
        neighbors = neighbor_table(decomp, rank)
        physical = [face for face, peer in neighbors.items() if peer is None]
        self._stencil = (
            None
            if self.u.region.is_empty
            else RowBlockedStencil(self.u.padded.shape, dx, dirichlet=physical)
        )

    def set_initial(self, u0: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
        """Initialize the temperature field from ``u0(X, Y)``."""
        self.u.fill_from(u0)

    def step_local(self, forcing: np.ndarray | None = None) -> None:
        """Advance one step assuming ghosts are up to date."""
        if self._stencil is not None:
            self._stencil.step(
                self.u.padded, self.dt * self.alpha, forcing=forcing, fcoef=self.dt
            )
        self.time += self.dt
        self.steps_taken += 1

    def step_des(
        self, comm: Any, forcing: np.ndarray | None = None
    ) -> Generator[Any, Any, None]:
        """Halo-exchange then step (DES generator form)."""
        yield from halo_exchange(comm, self.u, tag_base=f"heat:{self.steps_taken}")
        self.step_local(forcing)

    def step_blocking(self, comm: Any, forcing: np.ndarray | None = None) -> None:
        """Halo-exchange then step (threaded blocking form)."""
        halo_exchange_blocking(comm, self.u, tag_base=f"heat:{self.steps_taken}")
        self.step_local(forcing)

    def total_heat(self) -> float:
        """Σ u over this rank's block (a conserved-ish diagnostic)."""
        return float(np.sum(self.u.local))

    @property
    def local(self) -> np.ndarray:
        """This rank's interior block."""
        return self.u.local


def solve_heat_reference(
    shape: tuple[int, int],
    steps: int,
    dt: float,
    dx: float = 1.0,
    alpha: float = 1.0,
    u0: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    forcing: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Single-array forward-Euler solver; ground truth for the tests."""
    require(steps >= 0, "steps must be >= 0")
    X, Y = np.meshgrid(
        np.arange(shape[0], dtype=np.float64),
        np.arange(shape[1], dtype=np.float64),
        indexing="ij",
    )
    u = np.asarray(u0(X, Y), dtype=np.float64).copy() if u0 is not None else np.zeros(shape)
    padded = np.zeros((shape[0] + 2, shape[1] + 2))
    t = 0.0
    for _ in range(steps):
        padded[1:-1, 1:-1] = u
        apply_dirichlet(padded, 0.0)
        u = u + dt * alpha * laplacian(padded, dx=dx)
        if forcing is not None:
            u = u + dt * np.asarray(forcing(t, X, Y), dtype=np.float64)
        t += dt
    return u
