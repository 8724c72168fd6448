"""Run-scoped metrics: counters, gauges and histograms.

The observability layer's first pillar (see ``docs/observability.md``).
A :class:`MetricsRegistry` holds labeled instruments:

* :class:`Counter` — monotonically increasing event count,
* :class:`Gauge` — last-written value with a high-water mark,
* :class:`Histogram` — streaming distribution summary backed by
  :class:`repro.util.stats.OnlineStats` (count/mean/stddev/min/max)
  plus a fixed-size deterministic reservoir for p50/p95/p99 quantile
  estimates — memory stays bounded no matter how many samples arrive.

Labels identify *which* program/rank/connection an instrument belongs
to; values are coerced to strings so label sets hash and serialize
stably.  Nothing on the DES hot path ever consults a registry: kernel
and protocol counters are plain attribute increments collected *after*
the run by :mod:`repro.obs.collect`.

:class:`MetricsSnapshot` is the immutable export form:
:meth:`MetricsSnapshot.to_json` for machine consumption,
:meth:`MetricsSnapshot.render` for a human rollup.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro.util.stats import OnlineStats
from repro.util.validation import require

from repro.obs.paper import PaperMetrics

#: A label set in canonical (hashable) form.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (must be >= 0) to the count."""
        require(n >= 0, "counters only increase")
        self.value += n


class Gauge:
    """A point-in-time value with a high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_water = -math.inf

    def set(self, value: float) -> None:
        """Record the current value (and raise the high-water mark)."""
        self.value = float(value)
        if value > self.high_water:
            self.high_water = float(value)

    def add(self, delta: float) -> None:
        """Adjust the current value by *delta*."""
        self.set(self.value + delta)


#: Reservoir size for quantile estimation.  512 floats bound the memory
#: of every histogram while keeping p99 usable (±~1% rank error at the
#: tail for arbitrarily long streams).
RESERVOIR_CAPACITY = 512

#: Fixed seed so two runs observing identical sample streams export
#: identical quantiles (replay and golden tests depend on this).
_RESERVOIR_SEED = 0x5EED


class Histogram:
    """A streaming distribution summary with bounded memory.

    Works for unknown ranges: it keeps Welford aggregates plus a
    fixed-size uniform reservoir (Vitter's Algorithm R, deterministic
    seed) from which :meth:`quantile` interpolates p50/p95/p99.  NaN
    samples are rejected.
    """

    __slots__ = ("stats", "_reservoir", "_rng")

    def __init__(self) -> None:
        self.stats = OnlineStats()
        self._reservoir: list[float] = []
        self._rng = random.Random(_RESERVOIR_SEED)

    def observe(self, x: float) -> None:
        """Fold one sample into the distribution."""
        if math.isnan(x):
            raise ValueError("histogram samples must not be NaN")
        v = float(x)
        self.stats.add(v)
        if len(self._reservoir) < RESERVOIR_CAPACITY:
            self._reservoir.append(v)
        else:
            j = self._rng.randrange(self.stats.count)
            if j < RESERVOIR_CAPACITY:
                self._reservoir[j] = v

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self.stats.count

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (linear interpolation over the reservoir).

        Exact while the stream fits in the reservoir; a uniform-sample
        estimate beyond that.  Empty distributions report 0.0.
        """
        require(0.0 <= q <= 1.0, "quantile must be within [0, 1]")
        if not self._reservoir:
            return 0.0
        xs = sorted(self._reservoir)
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    def merge(self, other: Histogram) -> Histogram:
        """A new histogram combining both distributions.

        Welford aggregates merge exactly (parallel Welford); the
        reservoirs concatenate and, past capacity, downsample with a
        seed derived from the combined size — deterministic for a given
        pair of inputs, so aggregate merges are reproducible.
        """
        out = Histogram()
        out.stats = self.stats.merge(other.stats)
        combined = self._reservoir + other._reservoir
        if len(combined) > RESERVOIR_CAPACITY:
            rng = random.Random(_RESERVOIR_SEED ^ len(combined))
            combined = rng.sample(combined, RESERVOIR_CAPACITY)
        out._reservoir = combined
        return out

    def as_state(self) -> dict[str, Any]:
        """Serializable full state (aggregates + reservoir).

        :meth:`from_state` restores it bit-exactly, which is what lets
        a fleet aggregate payload be read back exactly.
        """
        s = self.stats
        return {
            "count": s.count,
            "mean": s.mean,
            "m2": s._m2,
            "min": s.minimum if s.count else 0.0,
            "max": s.maximum if s.count else 0.0,
            "reservoir": list(self._reservoir),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> Histogram:
        """Rebuild a histogram from :meth:`as_state` output."""
        out = cls()
        n = int(state.get("count", 0))
        if n:
            s = out.stats
            s._n = n
            s._mean = float(state["mean"])
            s._m2 = float(state.get("m2", 0.0))
            s._min = float(state["min"])
            s._max = float(state["max"])
        out._reservoir = [float(x) for x in state.get("reservoir", [])]
        return out

    def summary(self) -> dict[str, float]:
        """Plain-dict aggregate view (empty distributions are all-zero)."""
        s = self.stats
        if s.count == 0:
            return {
                "count": 0, "mean": 0.0, "stddev": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": float(s.count),
            "mean": s.mean,
            "stddev": s.stddev,
            "min": s.minimum,
            "max": s.maximum,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


@dataclass(frozen=True)
class MetricSample:
    """One instrument's exported state."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: dict[str, str]
    value: float
    #: Extra per-kind detail: high-water for gauges, the aggregate
    #: summary for histograms.
    detail: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        out: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable export of a registry (plus the first-class paper metrics)."""

    samples: tuple[MetricSample, ...]
    paper: PaperMetrics | None = None

    # -- queries ---------------------------------------------------------
    def get(self, name: str, **labels: Any) -> MetricSample | None:
        """The sample matching *name* and exactly these labels."""
        key = _label_key(labels)
        for s in self.samples:
            if s.name == name and _label_key(dict(s.labels)) == key:
                return s
        return None

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Shorthand: the matching sample's value, or *default*."""
        s = self.get(name, **labels)
        return s.value if s is not None else default

    def total(self, name: str, **labels: Any) -> float:
        """Sum of every sample of *name* whose labels include *labels*."""
        want = dict(_label_key(labels))
        out = 0.0
        for s in self.samples:
            if s.name != name:
                continue
            if all(s.labels.get(k) == v for k, v in want.items()):
                out += s.value
        return out

    def names(self) -> list[str]:
        """Sorted distinct metric names."""
        return sorted({s.name for s in self.samples})

    # -- export ----------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form, paper metrics included when present."""
        out: dict[str, Any] = {
            "metrics": [s.as_dict() for s in self.samples],
        }
        if self.paper is not None:
            out["paper"] = self.paper.as_dict()
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the snapshot as JSON text."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def render(self) -> str:
        """Human-readable rollup, one line per sample."""
        lines = []
        for s in sorted(self.samples, key=lambda s: (s.name, sorted(s.labels.items()))):
            labels = ",".join(f"{k}={v}" for k, v in sorted(s.labels.items()))
            label_part = f"{{{labels}}}" if labels else ""
            lines.append(f"{s.name}{label_part} = {s.value:g}")
        return "\n".join(lines)


class MetricsRegistry:
    """Get-or-create home of labeled instruments."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, str, LabelKey], Any] = {}

    def _get(self, kind: str, factory: type, name: str, labels: dict[str, Any]) -> Any:
        key = (kind, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = factory()
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter *name* for this label set (created on first use)."""
        inst: Counter = self._get("counter", Counter, name, labels)
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge *name* for this label set."""
        inst: Gauge = self._get("gauge", Gauge, name, labels)
        return inst

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram *name* for this label set."""
        inst: Histogram = self._get("histogram", Histogram, name, labels)
        return inst

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self, paper: PaperMetrics | None = None) -> MetricsSnapshot:
        """Freeze every instrument into a :class:`MetricsSnapshot`."""
        samples: list[MetricSample] = []
        for (kind, name, key), inst in sorted(
            self._instruments.items(), key=lambda kv: kv[0]
        ):
            labels = dict(key)
            if kind == "counter":
                samples.append(
                    MetricSample(name=name, kind=kind, labels=labels,
                                 value=float(inst.value))
                )
            elif kind == "gauge":
                hw = inst.high_water
                detail = {"high_water": hw} if hw > -math.inf else {}
                samples.append(
                    MetricSample(name=name, kind=kind, labels=labels,
                                 value=float(inst.value), detail=detail)
                )
            else:  # histogram
                summary = inst.summary()
                samples.append(
                    MetricSample(name=name, kind=kind, labels=labels,
                                 value=summary["mean"], detail=summary)
                )
        return MetricsSnapshot(samples=tuple(samples), paper=paper)
