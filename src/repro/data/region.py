"""N-dimensional rectangular index regions.

A :class:`RectRegion` is a half-open box ``[lo, hi)`` in a global index
space.  Regions are the unit of description for everything the coupling
framework moves: a program registers exported/imported regions, and the
MxN schedule is computed by intersecting the exporter's and importer's
per-rank regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from repro.util.validation import ValidationError, require, require_type


@dataclass(frozen=True)
class RectRegion:
    """A half-open axis-aligned box ``[lo, hi)``.

    Empty regions (any ``hi[d] <= lo[d]``) are valid and behave as the
    absorbing element of intersection.

    Examples
    --------
    >>> a = RectRegion((0, 0), (4, 4))
    >>> b = RectRegion((2, 1), (6, 3))
    >>> a.intersect(b)
    RectRegion(lo=(2, 1), hi=(4, 3))
    >>> a.intersect(b).size
    4
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        require_type(self.lo, tuple, "lo")
        require_type(self.hi, tuple, "hi")
        require(len(self.lo) == len(self.hi), "lo and hi must have equal rank")
        require(len(self.lo) > 0, "regions must have at least one dimension")
        for v in (*self.lo, *self.hi):
            if not isinstance(v, int):
                raise ValidationError(f"region bounds must be ints, got {v!r}")

    # -- construction ----------------------------------------------------
    @staticmethod
    def from_shape(shape: Sequence[int]) -> "RectRegion":
        """The region covering a whole array of *shape* (origin 0)."""
        return RectRegion(tuple(0 for _ in shape), tuple(int(s) for s in shape))

    @staticmethod
    def empty(ndim: int) -> "RectRegion":
        """A canonical empty region of the given rank."""
        return RectRegion(tuple(0 for _ in range(ndim)), tuple(0 for _ in range(ndim)))

    # -- basic geometry --------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        """Extent along each axis (all zeros if empty)."""
        return tuple(max(0, h - l) for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        """Number of index points contained."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def is_empty(self) -> bool:
        """True when the region contains no points."""
        return any(h <= l for l, h in zip(self.lo, self.hi))

    def contains_point(self, point: Sequence[int]) -> bool:
        """Whether the index *point* lies inside the region."""
        require(len(point) == self.ndim, "point rank mismatch")
        return all(l <= p < h for p, l, h in zip(point, self.lo, self.hi))

    def contains(self, other: "RectRegion") -> bool:
        """Whether *other* is entirely inside this region.

        The empty region is contained in everything.
        """
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # -- algebra -----------------------------------------------------------
    def intersect(self, other: "RectRegion") -> "RectRegion":
        """The overlap of two regions (possibly empty)."""
        require(other.ndim == self.ndim, "rank mismatch in intersect")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return RectRegion.empty(self.ndim)
        return RectRegion(lo, hi)

    def overlaps(self, other: "RectRegion") -> bool:
        """Whether the two regions share at least one point."""
        return not self.intersect(other).is_empty

    def shift(self, offset: Sequence[int]) -> "RectRegion":
        """Translate the region by *offset*."""
        require(len(offset) == self.ndim, "offset rank mismatch")
        return RectRegion(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )

    def expand(self, margin: int) -> "RectRegion":
        """Grow every face outward by *margin* (used for halo regions)."""
        require(margin >= 0, "margin must be >= 0")
        return RectRegion(
            tuple(l - margin for l in self.lo),
            tuple(h + margin for h in self.hi),
        )

    def clip(self, bounds: "RectRegion") -> "RectRegion":
        """Intersect with *bounds* (alias with intent: stay in the array)."""
        return self.intersect(bounds)

    def split(self, axis: int, at: int) -> tuple["RectRegion", "RectRegion"]:
        """Cut into two along *axis* at global coordinate *at*.

        Both halves may be empty if *at* falls outside the region.
        """
        require(0 <= axis < self.ndim, "axis out of range")
        at = max(self.lo[axis], min(at, self.hi[axis]))
        left_hi = list(self.hi)
        left_hi[axis] = at
        right_lo = list(self.lo)
        right_lo[axis] = at
        return (
            RectRegion(self.lo, tuple(left_hi)),
            RectRegion(tuple(right_lo), self.hi),
        )

    def subtract(self, other: "RectRegion") -> list["RectRegion"]:
        """Region difference ``self \\ other`` as disjoint boxes.

        Standard axis-sweep decomposition: at most ``2 * ndim`` pieces.
        """
        inter = self.intersect(other)
        if inter.is_empty:
            return [] if self.is_empty else [self]
        pieces: list[RectRegion] = []
        remaining = self
        for axis in range(self.ndim):
            below, rest = remaining.split(axis, inter.lo[axis])
            if not below.is_empty:
                pieces.append(below)
            middle, above = rest.split(axis, inter.hi[axis])
            if not above.is_empty:
                pieces.append(above)
            remaining = middle
        return pieces

    # -- numpy interop ------------------------------------------------------
    def to_slices(self, origin: Sequence[int] | None = None) -> tuple[slice, ...]:
        """Slices selecting this region out of an array starting at *origin*.

        With ``origin=None`` the array is assumed to start at the global
        origin (all zeros).  Typical use: ``local[region.to_slices(block.lo)]``
        where ``block`` is the rank's owned region.
        """
        if origin is None:
            origin = tuple(0 for _ in range(self.ndim))
        require(len(origin) == self.ndim, "origin rank mismatch")
        return tuple(
            slice(l - o, h - o) for l, h, o in zip(self.lo, self.hi, origin)
        )

    def iter_points(self) -> Iterator[tuple[int, ...]]:
        """Iterate all contained index points (small regions/tests only)."""
        if self.is_empty:
            return iter(())
        return product(*(range(l, h) for l, h in zip(self.lo, self.hi)))

    def __str__(self) -> str:
        spans = ", ".join(f"{l}:{h}" for l, h in zip(self.lo, self.hi))
        return f"[{spans}]"
