"""Online statistics and series summaries.

The benchmark harness records one export-time sample per iteration per
process (Figure 4 of the paper is exactly such a series).  These helpers
aggregate those samples without keeping :mod:`numpy` arrays alive in the
hot loop, and summarise complete series for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.util.validation import require


class OnlineStats:
    """Numerically stable streaming mean/variance (Welford's algorithm).

    Examples
    --------
    >>> s = OnlineStats()
    >>> for x in (1.0, 2.0, 3.0):
    ...     s.add(x)
    >>> s.mean
    2.0
    >>> round(s.variance, 12)
    1.0
    """

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        """Fold one sample into the running statistics."""
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def add_many(self, xs: Iterable[float]) -> None:
        """Fold an iterable of samples into the running statistics."""
        for x in xs:
            self.add(x)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new :class:`OnlineStats` combining *self* and *other*.

        Uses the parallel variant of Welford's update (Chan et al.), so
        per-process statistics can be reduced across processes.
        """
        if other._n == 0:
            out = OnlineStats()
            out._n, out._mean, out._m2 = self._n, self._mean, self._m2
            out._min, out._max = self._min, self._max
            return out
        if self._n == 0:
            return other.merge(self)
        out = OnlineStats()
        n = self._n + other._n
        delta = other._mean - self._mean
        out._n = n
        out._mean = self._mean + delta * other._n / n
        out._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        return out

    @property
    def count(self) -> int:
        """Number of samples seen so far."""
        return self._n

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self._mean if self._n else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the samples (0.0 with < 2 samples)."""
        return self._m2 / self._n if self._n >= 2 else 0.0

    @property
    def sample_variance(self) -> float:
        """Unbiased sample variance (0.0 with < 2 samples)."""
        return self._m2 / (self._n - 1) if self._n >= 2 else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample (``inf`` when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample (``-inf`` when empty)."""
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineStats(n={self._n}, mean={self.mean:.6g}, "
            f"std={self.stddev:.6g}, min={self._min:.6g}, max={self._max:.6g})"
        )


@dataclass(frozen=True)
class SeriesSummary:
    """Summary of a complete per-iteration series.

    Attributes
    ----------
    count:
        Number of points.
    mean, stddev, minimum, maximum:
        Standard aggregate statistics.
    head_mean:
        Mean of the first ``head`` points (the paper reports an ~8%
        elevated initialization phase in Figure 4(a)).
    tail_mean:
        Mean of the last ``tail`` points (the paper reports an ~4% drop
        after other processes finish).
    body_mean:
        Mean of everything between head and tail.
    """

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    head_mean: float
    body_mean: float
    tail_mean: float

    @staticmethod
    def from_series(
        series: Sequence[float], head: int = 50, tail: int = 200
    ) -> "SeriesSummary":
        """Summarise *series*, splitting it into head/body/tail segments.

        ``head`` and ``tail`` are clamped so the three segments never
        overlap; with short series the body may be empty, in which case
        ``body_mean`` falls back to the overall mean.
        """
        require(len(series) > 0, "series must be non-empty")
        n = len(series)
        head = max(0, min(head, n))
        tail = max(0, min(tail, n - head))
        whole = OnlineStats()
        whole.add_many(series)
        head_part = series[:head]
        tail_part = series[n - tail :] if tail else []
        body_part = series[head : n - tail]

        def _mean(xs: Sequence[float], fallback: float) -> float:
            return sum(xs) / len(xs) if len(xs) else fallback

        return SeriesSummary(
            count=n,
            mean=whole.mean,
            stddev=whole.stddev,
            minimum=whole.minimum,
            maximum=whole.maximum,
            head_mean=_mean(head_part, whole.mean),
            body_mean=_mean(body_part, whole.mean),
            tail_mean=_mean(tail_part, whole.mean),
        )
