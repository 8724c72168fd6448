"""Unit tests for repro.obs.metrics — instruments, registry, snapshot."""

import json
import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 6

    def test_gauge_high_water(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.0)
        g.add(0.5)
        assert g.value == 1.5
        assert g.high_water == 3.0

    def test_histogram_summary(self):
        h = Histogram()
        for x in (1.0, 2.0, 3.0):
            h.observe(x)
        s = h.summary()
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert s["min"] == 1.0
        assert s["max"] == 3.0

    def test_histogram_rejects_nan(self):
        h = Histogram()
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)
        assert h.count == 0


class TestRegistry:
    def test_same_name_and_labels_share_instrument(self):
        reg = MetricsRegistry()
        reg.counter("x", program="F").inc()
        reg.counter("x", program="F").inc()
        reg.counter("x", program="U").inc()
        snap = reg.snapshot()
        assert snap.value("x", program="F") == 2
        assert snap.value("x", program="U") == 1
        assert snap.total("x") == 3

    def test_kind_collision_is_distinct(self):
        reg = MetricsRegistry()
        reg.counter("m").inc(4)
        reg.gauge("m").set(7.0)
        snap = reg.snapshot()
        kinds = {s.kind for s in snap.samples if s.name == "m"}
        assert kinds == {"counter", "gauge"}

    def test_snapshot_roundtrips_json(self):
        reg = MetricsRegistry()
        reg.counter("a", rank=0).inc(2)
        reg.histogram("b").observe(1.5)
        snap = reg.snapshot()
        payload = json.loads(snap.to_json())
        names = {s["name"] for s in payload["metrics"]}
        assert names == {"a", "b"}

    def test_get_missing_returns_none_and_default(self):
        snap = MetricsRegistry().snapshot()
        assert snap.get("nope") is None
        assert snap.value("nope", default=-1.0) == -1.0

    def test_render_mentions_every_name(self):
        reg = MetricsRegistry()
        reg.counter("alpha").inc()
        reg.gauge("beta").set(1.0)
        out = reg.snapshot().render()
        assert "alpha" in out and "beta" in out


class TestHistogramQuantiles:
    """PR-10: reservoir quantiles, merge, and restart-safe state."""

    def test_quantiles_exact_below_capacity(self):
        h = Histogram()
        for x in range(1, 101):  # 1..100, under the 512 reservoir cap
            h.observe(float(x))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.95) == pytest.approx(95.05)

    def test_quantile_bounds_and_empty(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        h.observe(3.0)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_summary_carries_quantile_keys(self):
        h = Histogram()
        assert {"p50", "p95", "p99"} <= set(h.summary())
        for x in (1.0, 2.0, 3.0):
            h.observe(x)
        s = h.summary()
        assert s["p50"] == pytest.approx(2.0)
        assert s["p99"] <= s["max"]

    def test_reservoir_sampling_is_deterministic(self):
        a, b = Histogram(), Histogram()
        for x in range(5_000):  # far past capacity: Algorithm R kicks in
            a.observe(float(x))
            b.observe(float(x))
        assert a.quantile(0.95) == b.quantile(0.95)
        # Uniform stream: the estimate tracks the exact quantile.
        assert a.quantile(0.95) == pytest.approx(0.95 * 4999, rel=0.1)
        assert a.count == 5_000

    def test_nan_still_rejected_with_reservoir(self):
        h = Histogram()
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)
        assert h.count == 0 and h.quantile(0.5) == 0.0

    def test_merge_combines_stats_and_quantiles(self):
        a, b = Histogram(), Histogram()
        for x in range(100):
            a.observe(float(x))
        for x in range(100, 200):
            b.observe(float(x))
        m = a.merge(b)
        assert m.count == 200
        assert m.summary()["mean"] == pytest.approx(99.5)
        assert m.quantile(0.5) == pytest.approx(99.5)
        # Merge is non-destructive.
        assert a.count == 100 and b.count == 100

    def test_merge_past_capacity_downsamples_deterministically(self):
        def build() -> Histogram:
            a, b = Histogram(), Histogram()
            for x in range(600):
                a.observe(float(x))
            for x in range(600, 1200):
                b.observe(float(x))
            return a.merge(b)

        m1, m2 = build(), build()
        assert m1.count == 1200
        assert m1.quantile(0.5) == m2.quantile(0.5)
        assert m1.quantile(0.5) == pytest.approx(599.5, rel=0.15)

    def test_state_roundtrip_is_exact(self):
        h = Histogram()
        for x in range(2_000):
            h.observe(x * 0.75)
        back = Histogram.from_state(h.as_state())
        assert back.summary() == h.summary()
        assert back.quantile(0.99) == h.quantile(0.99)
        # The restored histogram keeps observing consistently.
        back.observe(9e9)
        assert back.count == h.count + 1

    def test_state_roundtrips_through_json(self):
        h = Histogram()
        for x in (0.5, 1.5, 2.5):
            h.observe(x)
        state = json.loads(json.dumps(h.as_state()))
        back = Histogram.from_state(state)
        assert back.summary() == h.summary()
