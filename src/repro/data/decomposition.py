"""Partitioning a global index space over the processes of a program.

The paper's micro-benchmark distributes a 1024x1024 array "evenly among
the participating processes"; :class:`BlockDecomposition` implements
that (block partition over an n-dimensional process grid, remainder
spread over the leading ranks), and :class:`BlockCyclicDecomposition`
provides the cyclic variant common in data-parallel libraries so that
MxN schedules between *different* distribution styles are exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.data.region import RectRegion
from repro.util.validation import ValidationError, require, require_positive


def choose_process_grid(nprocs: int, ndim: int) -> tuple[int, ...]:
    """A near-square *ndim*-dimensional grid with ``prod == nprocs``.

    Greedy largest-factor assignment, e.g. ``(4, 2)`` for 8 ranks in
    2-D, matching the usual MPI ``Dims_create`` behaviour closely
    enough for the benchmarks.
    """
    require_positive(nprocs, "nprocs")
    require_positive(ndim, "ndim")
    dims = [1] * ndim
    remaining = nprocs
    # Repeatedly strip the largest prime factor and give it to the
    # currently smallest grid dimension.
    factors: list[int] = []
    n = remaining
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        smallest = min(range(ndim), key=lambda i: dims[i])
        dims[smallest] *= factor
    return tuple(sorted(dims, reverse=True))


def _block_spans(extent: int, nblocks: int) -> list[tuple[int, int]]:
    """Split ``range(extent)`` into *nblocks* nearly equal spans.

    The first ``extent % nblocks`` blocks get one extra element, the
    standard MPI-style block distribution.  Blocks may be empty when
    ``nblocks > extent``.
    """
    base, extra = divmod(extent, nblocks)
    spans = []
    start = 0
    for b in range(nblocks):
        size = base + (1 if b < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


@dataclass(frozen=True)
class BlockDecomposition:
    """Block partition of *global_shape* over a process grid.

    Parameters
    ----------
    global_shape:
        Extent of the global index space.
    grid:
        Process-grid shape; ``prod(grid)`` is the process count.  Rank
        *r* maps to grid coordinates in row-major order.

    Examples
    --------
    >>> d = BlockDecomposition((8, 8), (2, 2))
    >>> d.local_region(0)
    RectRegion(lo=(0, 0), hi=(4, 4))
    >>> d.owner_of((5, 2))
    2
    """

    global_shape: tuple[int, ...]
    grid: tuple[int, ...]
    _spans: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        require(len(self.global_shape) == len(self.grid), "shape/grid rank mismatch")
        for s in self.global_shape:
            require(s >= 0, "global_shape entries must be >= 0")
        for g in self.grid:
            require_positive(g, "grid entries")
        spans = tuple(
            tuple(_block_spans(extent, nblocks))
            for extent, nblocks in zip(self.global_shape, self.grid)
        )
        object.__setattr__(self, "_spans", spans)

    # -- ranks and coordinates -------------------------------------------
    @property
    def nprocs(self) -> int:
        """Total number of ranks in the decomposition."""
        n = 1
        for g in self.grid:
            n *= g
        return n

    @property
    def ndim(self) -> int:
        """Number of index-space dimensions."""
        return len(self.global_shape)

    def rank_to_coords(self, rank: int) -> tuple[int, ...]:
        """Row-major grid coordinates of *rank*."""
        if not 0 <= rank < self.nprocs:
            raise ValidationError(f"rank {rank} out of range")
        coords = []
        for g in reversed(self.grid):
            coords.append(rank % g)
            rank //= g
        return tuple(reversed(coords))

    def coords_to_rank(self, coords: Sequence[int]) -> int:
        """Inverse of :meth:`rank_to_coords`."""
        require(len(coords) == len(self.grid), "coords rank mismatch")
        rank = 0
        for c, g in zip(coords, self.grid):
            if not 0 <= c < g:
                raise ValidationError(f"grid coordinate {c} out of range")
            rank = rank * g + c
        return rank

    # -- regions -----------------------------------------------------------
    def local_region(self, rank: int) -> RectRegion:
        """The global sub-box owned by *rank* (possibly empty)."""
        coords = self.rank_to_coords(rank)
        lo = []
        hi = []
        for d, c in enumerate(coords):
            start, stop = self._spans[d][c]
            lo.append(start)
            hi.append(stop)
        return RectRegion(tuple(lo), tuple(hi))

    def all_regions(self) -> list[RectRegion]:
        """Owned regions of every rank, by rank order."""
        return [self.local_region(r) for r in range(self.nprocs)]

    def owner_of(self, point: Sequence[int]) -> int:
        """The rank owning global index *point*."""
        require(len(point) == self.ndim, "point rank mismatch")
        coords = []
        for d, p in enumerate(point):
            if not 0 <= p < self.global_shape[d]:
                raise ValidationError(
                    f"point {tuple(point)} outside global shape {self.global_shape}"
                )
            # Binary search would be O(log g); grids are tiny so scan.
            for c, (start, stop) in enumerate(self._spans[d]):
                if start <= p < stop:
                    coords.append(c)
                    break
        return self.coords_to_rank(coords)

    def bounding_region(self) -> RectRegion:
        """The full global region."""
        return RectRegion.from_shape(self.global_shape)

    def ranks_overlapping(self, region: RectRegion) -> list[int]:
        """Ranks whose owned block intersects *region*."""
        return [
            r for r in range(self.nprocs) if self.local_region(r).overlaps(region)
        ]


@dataclass(frozen=True)
class BlockCyclicDecomposition:
    """1-D block-cyclic partition along one axis of *global_shape*.

    Blocks of ``block_size`` along *axis* are dealt to ranks round-robin.
    A rank therefore owns a *set* of disjoint boxes, returned by
    :meth:`local_regions`.  (Block-cyclic owners are not contiguous, so
    there is no single ``local_region``.)
    """

    global_shape: tuple[int, ...]
    nprocs: int
    block_size: int
    axis: int = 0

    def __post_init__(self) -> None:
        require_positive(self.nprocs, "nprocs")
        require_positive(self.block_size, "block_size")
        require(0 <= self.axis < len(self.global_shape), "axis out of range")

    @property
    def ndim(self) -> int:
        """Number of index-space dimensions."""
        return len(self.global_shape)

    def local_regions(self, rank: int) -> list[RectRegion]:
        """The disjoint boxes owned by *rank*, in ascending order."""
        if not 0 <= rank < self.nprocs:
            raise ValidationError(f"rank {rank} out of range")
        extent = self.global_shape[self.axis]
        out = []
        start = rank * self.block_size
        stride = self.nprocs * self.block_size
        while start < extent:
            stop = min(start + self.block_size, extent)
            lo = [0] * self.ndim
            hi = list(self.global_shape)
            lo[self.axis] = start
            hi[self.axis] = stop
            out.append(RectRegion(tuple(lo), tuple(hi)))
            start += stride
        return out

    def all_regions(self) -> list[list[RectRegion]]:
        """Owned boxes of every rank, by rank order."""
        return [self.local_regions(r) for r in range(self.nprocs)]

    def owner_of(self, point: Sequence[int]) -> int:
        """The rank owning global index *point*."""
        require(len(point) == self.ndim, "point rank mismatch")
        p = point[self.axis]
        if not 0 <= p < self.global_shape[self.axis]:
            raise ValidationError(
                f"point {tuple(point)} outside global shape {self.global_shape}"
            )
        return (p // self.block_size) % self.nprocs

    def bounding_region(self) -> RectRegion:
        """The full global region."""
        return RectRegion.from_shape(self.global_shape)
