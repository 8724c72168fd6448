"""Vectorized finite-difference stencils.

All kernels follow the HPC-Python guides: no Python loops over grid
points, views instead of copies, in-place output buffers where the
caller provides them.

:func:`laplacian` is the plain 2-D formula and the oracle.  The
solvers step with :class:`RowBlockedStencil`, which computes the same
values bit for bit while moving a fraction of the bytes: it walks the
padded array's interior a block of rows at a time as flat contiguous
spans (the four neighbours sit at ±1 and ± the row width), so every
NumPy pass runs over contiguous memory and the scratch stays in cache.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.util.validation import require

#: Interior rows per block of :class:`RowBlockedStencil`, chosen by
#: measurement: one forced leapfrog step of a 256×256 block (258-wide
#: padded rows, the ``coupled_wave`` size; four blocks stepped in turn,
#: 2-vCPU Xeon with a 4 MiB L2) took 0.46–0.61 ms at 64 rows against
#: 1.3–1.6 ms for the whole-array 2-D passes; 32 to 128 rows took
#: 0.44–0.67 ms, 16 rows 0.76–0.84 ms and 256 rows 0.51–0.75 ms (four
#: sweeps).  Whole ``coupled_wave`` repetitions do not separate 32 to 128.
BLOCK_ROWS = 64

#: Ghost strip of each face of a halo-1 padded array.
_GHOSTS = {
    "north": np.s_[0, :],
    "south": np.s_[-1, :],
    "west": np.s_[:, 0],
    "east": np.s_[:, -1],
}


def laplacian(
    padded: np.ndarray, dx: float = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """Five-point Laplacian of the *interior* of a halo-padded array.

    Parameters
    ----------
    padded:
        2-D array with a one-cell ghost layer on every side; the
        Laplacian is evaluated on ``padded[1:-1, 1:-1]``.
    dx:
        Grid spacing (uniform in both directions).
    out:
        Optional preallocated output of interior shape (avoids an
        allocation per time step in the solver hot loop).

    Returns
    -------
    The interior-shaped Laplacian array.
    """
    require(padded.ndim == 2, "laplacian expects a 2-D array")
    require(
        padded.shape[0] >= 3 and padded.shape[1] >= 3,
        "padded array needs at least one interior point",
    )
    center = padded[1:-1, 1:-1]
    if out is None:
        out = np.empty_like(center)
    # out = (up + down + left + right - 4*center) / dx^2, fused with
    # in-place ops to avoid temporaries beyond one.
    np.add(padded[:-2, 1:-1], padded[2:, 1:-1], out=out)
    out += padded[1:-1, :-2]
    out += padded[1:-1, 2:]
    out -= 4.0 * center
    out /= dx * dx
    return out


class RowBlockedStencil:
    """One explicit time step over the interior of a halo-1 padded array.

    Computes ``new = (base + coef·∇²u) + fcoef·f`` for every interior
    point of *u*, with ``base = 2u − prev`` (leapfrog) or ``base = u``
    (forward Euler), and writes it into the interior of the destination:
    *prev* for leapfrog, *u* itself for forward Euler.  Every value sees
    the operands of :func:`laplacian` and the solvers' former 2-D
    expressions in the same order, so the result is bit-identical:
    ``∇²u = (((up + down) + left) + right − 4·u) / dx²`` (the division
    is skipped when ``dx == 1.0``, since ``x / 1.0 == x`` exactly).

    The interior is taken :data:`BLOCK_ROWS` rows at a time as one flat
    span of the padded array.  Lanes that fall on the ghost columns are
    computed and discarded; only the destination's interior is written,
    its ghost cells keep their values.  A block is written back one
    block late, because the next block's stencil still reads its last
    row when the destination is *u* itself.  The scratch is the
    kernel's own: one kernel per solver, never shared between threads.

    Parameters
    ----------
    padded_shape:
        Shape of the padded arrays the kernel will step (interior plus
        one ghost cell on every side); it sizes the scratch once.
    dx:
        Grid spacing.
    dirichlet:
        Faces (``"north"``, ``"south"``, ``"west"``, ``"east"``) whose
        ghost strip of *u* is set to zero before every step: the
        homogeneous Dirichlet boundary on the physical faces.
    """

    def __init__(
        self, padded_shape: tuple[int, int], dx: float = 1.0, dirichlet: Iterable[str] = ()
    ) -> None:
        require(
            len(padded_shape) == 2 and padded_shape[0] >= 3 and padded_shape[1] >= 3,
            "padded array needs at least one interior point",
        )
        self.shape = tuple(padded_shape)
        self.dx2 = dx * dx
        self._ghosts = tuple(_GHOSTS[face] for face in dirichlet)
        self._block = rows = min(BLOCK_ROWS, padded_shape[0] - 2)
        span = rows * padded_shape[1]
        # Two result spans: block k is computed into one while block
        # k - 1 waits in the other to be written.
        self._acc = (np.empty(span), np.empty(span))
        self._tmp = np.empty(span)
        self._f = np.empty((rows, padded_shape[1] - 2))

    def step(
        self,
        u: np.ndarray,
        coef: float,
        prev: np.ndarray | None = None,
        forcing: np.ndarray | None = None,
        fcoef: float = 1.0,
    ) -> None:
        """Advance *u* one step; see the class docstring for the formula.

        *u* (and *prev*) are float64 arrays of the shape the kernel was
        built for (read through one copy if not C-contiguous); *forcing*,
        if given, has the interior shape.  A wrong forcing shape is
        refused before anything is written.
        """
        rows, width = self.shape
        require(u.shape == self.shape, f"array shape {u.shape} != {self.shape}")
        require(prev is None or prev.shape == self.shape, "prev must have the shape of u")
        if forcing is not None:
            require(
                forcing.shape == (rows - 2, width - 2),
                f"forcing shape {forcing.shape} != local shape {(rows - 2, width - 2)}",
            )
        for ghost in self._ghosts:
            u[ghost] = 0.0
        dst = u if prev is None else prev
        flat = u.reshape(-1)
        prev_flat = None if prev is None else prev.reshape(-1)
        pending = None
        for k, r0 in enumerate(range(1, rows - 1, self._block)):
            r1 = min(r0 + self._block, rows - 1)
            s, e = r0 * width, r1 * width
            acc = self._acc[k & 1][: e - s]
            tmp = self._tmp[: e - s]
            center = flat[s:e]
            np.add(flat[s - width : e - width], flat[s + width : e + width], out=acc)
            acc += flat[s - 1 : e - 1]
            acc += flat[s + 1 : e + 1]
            np.multiply(center, 4.0, out=tmp)
            acc -= tmp
            if self.dx2 != 1.0:
                acc /= self.dx2
            acc *= coef
            if prev_flat is None:
                np.add(center, acc, out=acc)
            else:
                np.multiply(center, 2.0, out=tmp)
                tmp -= prev_flat[s:e]
                np.add(tmp, acc, out=acc)
            if pending is not None:
                self._write(dst, *pending, forcing, fcoef)
            pending = (acc, r0, r1)
        self._write(dst, *pending, forcing, fcoef)

    def _write(
        self,
        dst: np.ndarray,
        acc: np.ndarray,
        r0: int,
        r1: int,
        forcing: np.ndarray | None,
        fcoef: float,
    ) -> None:
        """Store rows ``r0:r1`` of a result span into *dst*'s interior."""
        values = acc.reshape(r1 - r0, self.shape[1])[:, 1:-1]
        out = dst[r0:r1, 1:-1]
        if forcing is None:
            out[...] = values
        else:
            f = self._f[: r1 - r0]
            np.multiply(forcing[r0 - 1 : r1 - 1], fcoef, out=f)
            np.add(values, f, out=out)


def apply_dirichlet(padded: np.ndarray, value: float = 0.0) -> None:
    """Set the ghost layer of *padded* to a fixed boundary *value*.

    Used on physical (non-neighbor) faces; interior faces are filled by
    halo exchange instead.
    """
    require(padded.ndim == 2, "apply_dirichlet expects a 2-D array")
    padded[0, :] = value
    padded[-1, :] = value
    padded[:, 0] = value
    padded[:, -1] = value
