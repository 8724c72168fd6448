"""Distributed arrays: a decomposition plus per-rank local blocks.

In an SPMD program each rank holds one :class:`DistributedArray` whose
``local`` block is the rank's share of the global array.  The class
does no communication itself; halo exchange and redistribution are
built on top (``repro.apps.halo`` and ``repro.data.redistribute``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.data.decomposition import BlockDecomposition
from repro.data.region import RectRegion
from repro.util.validation import ValidationError, require, require_type


class DistributedArray:
    """One rank's view of a block-distributed global array.

    Parameters
    ----------
    decomp:
        The global block decomposition.
    rank:
        This process's rank in the decomposition.
    dtype:
        Element dtype of the array.
    fill:
        Initial value of the local block.
    halo:
        Ghost-cell width around the local block (0 disables).  With a
        halo, :attr:`local` is the *interior* view; :attr:`padded`
        exposes the full allocation including ghost cells.
    """

    def __init__(
        self,
        decomp: BlockDecomposition,
        rank: int,
        dtype: Any = np.float64,
        fill: float = 0.0,
        halo: int = 0,
    ) -> None:
        require_type(decomp, BlockDecomposition, "decomp")
        if not 0 <= rank < decomp.nprocs:
            raise ValidationError(f"rank {rank} out of range")
        require(halo >= 0, "halo must be >= 0")
        self.decomp = decomp
        self.rank = rank
        self.halo = halo
        self.region = decomp.local_region(rank)
        shape = tuple(s + 2 * halo for s in self.region.shape)
        self._storage = np.full(shape, fill, dtype=dtype)

    # -- views -------------------------------------------------------------
    @property
    def padded(self) -> np.ndarray:
        """The full local allocation including ghost cells."""
        return self._storage

    @property
    def local(self) -> np.ndarray:
        """The interior (owned) block, excluding ghost cells.

        This is a *view*: writing to it updates the storage in place
        (views-not-copies, per the performance guides).
        """
        if self.halo == 0:
            return self._storage
        sel = tuple(slice(self.halo, -self.halo) for _ in self.region.shape)
        return self._storage[sel]

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self._storage.dtype

    @property
    def nbytes(self) -> int:
        """Bytes held by the interior block."""
        return int(self.local.nbytes)

    # -- global addressing ---------------------------------------------------
    def view_global(self, region: RectRegion) -> np.ndarray:
        """View of the part of *region* owned by this rank.

        *region* must be fully contained in this rank's block; use
        ``region.intersect(self.region)`` first when unsure.
        """
        if not self.region.contains(region):
            raise ValidationError(f"rank {self.rank} owns {self.region}, not {region}")
        if region.is_empty:
            return self.local[tuple(slice(0, 0) for _ in range(region.ndim))]
        return self.local[region.to_slices(origin=self.region.lo)]

    def read_global(self, region: RectRegion) -> np.ndarray:
        """Copy of the owned part of *region* (contiguous)."""
        return np.ascontiguousarray(self.view_global(region))

    def write_global(self, region: RectRegion, values: np.ndarray) -> None:
        """Write *values* into the owned *region* (shapes must agree)."""
        target = self.view_global(region)
        values = np.asarray(values, dtype=self.dtype)
        if target.shape != values.shape:
            raise ValidationError(
                f"shape mismatch writing {region}: {values.shape} != {target.shape}"
            )
        target[...] = values

    def fill_from(self, fn: Any) -> None:
        """Fill the local block from ``fn(*global_index_grids)``.

        *fn* receives one ``ndarray`` of global coordinates per axis
        (meshgrid style, vectorized) and returns the block's values —
        the idiomatic NumPy way to initialize a distributed field.
        """
        if self.region.is_empty:
            return
        axes = [
            np.arange(l, h, dtype=np.float64)
            for l, h in zip(self.region.lo, self.region.hi)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        self.local[...] = fn(*grids)

    # -- test/debug helpers ----------------------------------------------------
    @staticmethod
    def assemble(blocks: Sequence["DistributedArray"]) -> np.ndarray:
        """Glue per-rank blocks into the full global array (test helper).

        All blocks must come from the same decomposition, one per rank.
        """
        require(len(blocks) > 0, "need at least one block")
        decomp = blocks[0].decomp
        require(
            all(b.decomp == decomp for b in blocks),
            "blocks come from different decompositions",
        )
        require(
            sorted(b.rank for b in blocks) == list(range(decomp.nprocs)),
            "need exactly one block per rank",
        )
        out = np.zeros(decomp.global_shape, dtype=blocks[0].dtype)
        for b in blocks:
            if not b.region.is_empty:
                out[b.region.to_slices()] = b.local
        return out
