"""Analytic forcing fields f(t, x, y) for the coupled benchmark.

Program *F* of the paper computes the forcing term that program *U*
consumes.  Two families are provided, both vectorized over coordinate
grids:

* :func:`gaussian_pulse` — a stationary Gaussian bump whose amplitude
  oscillates in time (smooth, good for convergence tests);
* :func:`rotating_source` — a Gaussian source circling the domain
  center (time-varying support, good for visual demos).

:func:`evaluate_on_region` hands a field *open* index grids — a column
of x and a row of y — so each coordinate term is computed once per
row or column and only the terms that mix x and y run over the whole
block.  An elementwise field broadcasts to exactly the values the dense
``meshgrid`` pair gave, so the result is bit-identical; the two fields
here finish their full-block passes in place.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.data.region import RectRegion
from repro.util.validation import require

#: A forcing field ``f(t, X, Y) -> array``.  It must be *elementwise*:
#: the value at a point depends only on ``t`` and that point's ``X`` and
#: ``Y``, and the result broadcasts against ``X`` and ``Y``.  The grids
#: may be dense (both of the block's shape) or open (:func:`evaluate_on_region`
#: passes an ``(n, 1)`` column and a ``(1, m)`` row), and a field of
#: ``X`` alone, of ``Y`` alone or a constant is fine: the caller
#: broadcasts the result to the block's shape.
ForcingField = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


def gaussian_pulse(
    center: tuple[float, float],
    sigma: float,
    omega: float = 1.0,
    amplitude: float = 1.0,
) -> ForcingField:
    """An oscillating Gaussian bump fixed at *center*.

    ``f(t, x, y) = A · sin(ω t) · exp(-((x-cx)² + (y-cy)²) / (2σ²))``;
    *sigma* must be positive.
    """
    require(sigma > 0, f"sigma must be > 0, got {sigma}")
    cx, cy = center
    two_sigma2 = 2.0 * sigma * sigma

    def field(t: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        r2 = (X - cx) ** 2 + (Y - cy) ** 2
        np.negative(r2, out=r2)
        r2 /= two_sigma2
        np.exp(r2, out=r2)
        r2 *= amplitude * math.sin(omega * t)
        return r2

    return field


def rotating_source(
    domain: tuple[float, float],
    radius_fraction: float = 0.25,
    sigma: float = 8.0,
    period: float = 40.0,
    amplitude: float = 1.0,
) -> ForcingField:
    """A Gaussian source circling the domain center with *period*.

    *sigma* and *period* must be positive.
    """
    require(sigma > 0, f"sigma must be > 0, got {sigma}")
    require(period > 0, f"period must be > 0, got {period}")
    cx, cy = domain[0] / 2.0, domain[1] / 2.0
    radius = min(domain) * radius_fraction
    two_sigma2 = 2.0 * sigma * sigma

    def field(t: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        angle = 2.0 * math.pi * t / period
        sx = cx + radius * math.cos(angle)
        sy = cy + radius * math.sin(angle)
        r2 = (X - sx) ** 2 + (Y - sy) ** 2
        np.negative(r2, out=r2)
        r2 /= two_sigma2
        np.exp(r2, out=r2)
        r2 *= amplitude
        return r2

    return field


def evaluate_on_region(
    field: ForcingField, t: float, region: RectRegion, dtype=np.float64
) -> np.ndarray:
    """Evaluate *field* at time *t* on the index points of *region*.

    Returns a C-contiguous array of ``region.shape`` and *dtype* — the
    local block a rank exports.  Coordinates are the global integer
    indices (the paper's grids are index-space coupled; physical scaling
    is the caller's concern via the field closure), passed as open grids
    (see :data:`ForcingField`).
    """
    if region.is_empty:
        return np.zeros(region.shape, dtype=dtype)
    xs = np.arange(region.lo[0], region.hi[0], dtype=np.float64)
    ys = np.arange(region.lo[1], region.hi[1], dtype=np.float64)
    X, Y = np.meshgrid(xs, ys, indexing="ij", sparse=True)
    values = np.broadcast_to(field(t, X, Y), region.shape)
    return np.ascontiguousarray(values, dtype=dtype)
