"""The 2-D wave equation solver of the paper's micro-benchmark.

Solves ``u_tt = c² (u_xx + u_yy) + f(t, x, y)`` with homogeneous
Dirichlet boundaries using the standard explicit leapfrog scheme::

    u^{n+1} = 2 u^n − u^{n−1} + dt² (c² ∇² u^n + f^n)

:class:`WaveSolver2D` is the distributed version (block decomposition,
halo exchange each step); :func:`solve_reference` is the single-array
version used to validate it bit-for-bit on small grids.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator

import numpy as np

from repro.apps.halo import halo_exchange, halo_exchange_blocking, neighbor_table
from repro.apps.stencil import RowBlockedStencil, apply_dirichlet, laplacian
from repro.data.darray import DistributedArray
from repro.data.decomposition import BlockDecomposition
from repro.util.validation import require


def cfl_limit(dx: float, c: float) -> float:
    """Largest stable leapfrog step: ``dx / (c √2)`` in 2-D."""
    return dx / (c * math.sqrt(2.0))


class WaveSolver2D:
    """One rank's share of the distributed leapfrog solver.

    Parameters
    ----------
    decomp:
        2-D block decomposition of the global grid.
    rank:
        This process's rank.
    dt, dx:
        Time step and grid spacing (``dt`` must respect the CFL bound).
    c:
        Wave speed.
    """

    def __init__(
        self,
        decomp: BlockDecomposition,
        rank: int,
        dt: float,
        dx: float = 1.0,
        c: float = 1.0,
    ) -> None:
        require(decomp.ndim == 2, "WaveSolver2D needs a 2-D decomposition")
        require(dt > 0 and dx > 0 and c > 0, "dt, dx, c must be positive")
        require(
            dt <= cfl_limit(dx, c) + 1e-12,
            f"dt={dt} violates the CFL bound {cfl_limit(dx, c):.6g}",
        )
        self.decomp = decomp
        self.rank = rank
        self.dt = dt
        self.dx = dx
        self.c = c
        self.time = 0.0
        self.steps_taken = 0
        self.u = DistributedArray(decomp, rank, halo=1)
        self.u_prev = DistributedArray(decomp, rank, halo=1)
        # Homogeneous Dirichlet on the faces without a neighbor.
        neighbors = neighbor_table(decomp, rank)
        physical = [face for face, peer in neighbors.items() if peer is None]
        self._stencil = (
            None
            if self.u.region.is_empty
            else RowBlockedStencil(self.u.padded.shape, dx, dirichlet=physical)
        )

    # -- setup ---------------------------------------------------------------
    def set_initial(
        self,
        u0: Callable[[np.ndarray, np.ndarray], np.ndarray],
        v0: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> None:
        """Initialize displacement *u0* and velocity *v0* fields.

        The first leapfrog step needs ``u^{-1}``; it is generated with
        the first-order start ``u^{-1} = u^0 − dt·v^0``.
        """
        self.u.fill_from(u0)
        self.u_prev.local[...] = self.u.local
        if v0 is not None:
            v = DistributedArray(self.decomp, self.rank, halo=0)
            v.fill_from(v0)
            self.u_prev.local[...] -= self.dt * v.local

    # -- stepping ------------------------------------------------------------
    def step_local(self, forcing: np.ndarray | None = None) -> None:
        """Advance one step assuming ghosts are already up to date.

        ``u_prev``'s interior is overwritten with ``u^{n+1}``, then the
        two buffers swap: no per-step allocation.
        """
        if self._stencil is not None:
            dt2 = self.dt * self.dt
            self._stencil.step(
                self.u.padded,
                dt2 * (self.c * self.c),
                prev=self.u_prev.padded,
                forcing=forcing,
                fcoef=dt2,
            )
            self.u, self.u_prev = self.u_prev, self.u
        self.time += self.dt
        self.steps_taken += 1

    def step_des(
        self, comm: Any, forcing: np.ndarray | None = None
    ) -> Generator[Any, Any, None]:
        """Halo-exchange then step (DES generator form)."""
        yield from halo_exchange(comm, self.u, tag_base=f"wave:{self.steps_taken}")
        self.step_local(forcing)

    def step_blocking(self, comm: Any, forcing: np.ndarray | None = None) -> None:
        """Halo-exchange then step (threaded blocking form)."""
        halo_exchange_blocking(comm, self.u, tag_base=f"wave:{self.steps_taken}")
        self.step_local(forcing)

    # -- diagnostics --------------------------------------------------------
    def local_energy(self) -> float:
        """Discrete energy proxy over this rank's block: Σ u² · dx²."""
        return float(np.sum(self.u.local**2) * self.dx * self.dx)

    @property
    def local(self) -> np.ndarray:
        """This rank's interior block of the current field."""
        return self.u.local


def solve_reference(
    shape: tuple[int, int],
    steps: int,
    dt: float,
    dx: float = 1.0,
    c: float = 1.0,
    u0: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    v0: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    forcing: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Single-array leapfrog solver; ground truth for the tests.

    Identical arithmetic to :class:`WaveSolver2D` (same stencil, same
    first-order start), so a distributed run must match it exactly up
    to floating-point associativity — in practice bit-for-bit, because
    block partitioning does not change any FLOP's operands.
    """
    require(steps >= 0, "steps must be >= 0")
    X, Y = np.meshgrid(
        np.arange(shape[0], dtype=np.float64),
        np.arange(shape[1], dtype=np.float64),
        indexing="ij",
    )
    u = u0(X, Y) if u0 is not None else np.zeros(shape)
    u = np.asarray(u, dtype=np.float64).copy()
    up = u.copy()
    if v0 is not None:
        up -= dt * np.asarray(v0(X, Y), dtype=np.float64)
    dt2 = dt * dt
    t = 0.0
    padded = np.zeros((shape[0] + 2, shape[1] + 2))
    for _ in range(steps):
        padded[1:-1, 1:-1] = u
        apply_dirichlet(padded, 0.0)
        lap = laplacian(padded, dx=dx)
        new = 2.0 * u - up + dt2 * (c * c) * lap
        if forcing is not None:
            new += dt2 * np.asarray(forcing(t, X, Y), dtype=np.float64)
        up = u
        u = new
        t += dt
    return u
