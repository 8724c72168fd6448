"""Tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import OnlineStats, SeriesSummary

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_sample(self):
        s = OnlineStats()
        s.add(3.5)
        assert s.mean == 3.5
        assert s.variance == 0.0
        assert s.minimum == s.maximum == 3.5

    def test_known_values(self):
        s = OnlineStats()
        s.add_many([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.variance == pytest.approx(1.25)
        assert s.sample_variance == pytest.approx(5.0 / 3.0)
        assert s.stddev == pytest.approx(math.sqrt(1.25))

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, xs):
        s = OnlineStats()
        s.add_many(xs)
        assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(xs), rel=1e-6, abs=1e-6)
        assert s.minimum == min(xs)
        assert s.maximum == max(xs)

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(finite_floats, min_size=1, max_size=50),
    )
    def test_merge_equals_concatenation(self, a, b):
        sa, sb, sc = OnlineStats(), OnlineStats(), OnlineStats()
        sa.add_many(a)
        sb.add_many(b)
        sc.add_many(a + b)
        merged = sa.merge(sb)
        assert merged.count == sc.count
        assert merged.mean == pytest.approx(sc.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(sc.variance, rel=1e-6, abs=1e-6)

    def test_merge_with_empty(self):
        sa = OnlineStats()
        sa.add_many([1.0, 2.0])
        empty = OnlineStats()
        assert sa.merge(empty).mean == 1.5
        assert empty.merge(sa).mean == 1.5

    def test_merge_two_empties(self):
        merged = OnlineStats().merge(OnlineStats())
        assert merged.count == 0
        assert merged.mean == 0.0
        assert merged.variance == 0.0
        assert merged.minimum == math.inf
        assert merged.maximum == -math.inf

    def test_merge_with_empty_preserves_extrema_and_variance(self):
        sa = OnlineStats()
        sa.add_many([1.0, 5.0, 3.0])
        for merged in (sa.merge(OnlineStats()), OnlineStats().merge(sa)):
            assert merged.count == 3
            assert merged.minimum == 1.0
            assert merged.maximum == 5.0
            assert merged.variance == pytest.approx(sa.variance)

    def test_merge_returns_new_object(self):
        sa = OnlineStats()
        sa.add(1.0)
        merged = sa.merge(OnlineStats())
        merged.add(100.0)
        assert sa.count == 1  # the inputs must stay untouched


class TestSeriesSummary:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SeriesSummary.from_series([])

    def test_head_body_tail_partition(self):
        series = [2.0] * 10 + [1.0] * 80 + [0.5] * 10
        s = SeriesSummary.from_series(series, head=10, tail=10)
        assert s.head_mean == 2.0
        assert s.body_mean == 1.0
        assert s.tail_mean == 0.5
        assert s.count == 100

    def test_short_series_clamps_segments(self):
        s = SeriesSummary.from_series([1.0, 2.0], head=10, tail=10)
        assert s.count == 2
        assert s.mean == 1.5

    def test_series_shorter_than_head(self):
        # head swallows everything; tail and body clamp to empty and
        # fall back to the overall mean.
        s = SeriesSummary.from_series([1.0, 2.0, 3.0], head=10, tail=5)
        assert s.head_mean == 2.0
        assert s.tail_mean == 2.0
        assert s.body_mean == 2.0

    def test_series_shorter_than_head_plus_tail(self):
        # 5 points, head=3 takes [1,2,3]; tail clamps to the remaining
        # 2 points [4,5]; the body is empty -> overall-mean fallback.
        s = SeriesSummary.from_series([1.0, 2.0, 3.0, 4.0, 5.0], head=3, tail=4)
        assert s.head_mean == 2.0
        assert s.tail_mean == 4.5
        assert s.body_mean == 3.0

    def test_length_one_series(self):
        s = SeriesSummary.from_series([7.0], head=50, tail=200)
        assert s.count == 1
        assert s.mean == 7.0
        assert s.head_mean == 7.0
        assert s.body_mean == 7.0
        assert s.tail_mean == 7.0
        assert s.stddev == 0.0

    def test_zero_head_and_tail(self):
        s = SeriesSummary.from_series([1.0, 2.0, 3.0], head=0, tail=0)
        assert s.body_mean == 2.0
        assert s.head_mean == 2.0  # empty segment -> overall mean
        assert s.tail_mean == 2.0

    def test_flat_series(self):
        s = SeriesSummary.from_series([3.0] * 50)
        assert s.stddev == 0.0
        assert s.minimum == s.maximum == 3.0
