"""Tests for forcing fields and imbalance profiles."""

import math

import numpy as np
import pytest

from repro.apps.forcing import evaluate_on_region, gaussian_pulse, rotating_source
from repro.apps.workloads import (
    ImbalanceProfile,
    linear_profile,
    one_slow_profile,
    uniform_profile,
)
from repro.data.region import RectRegion


class TestGaussianPulse:
    def test_peak_at_center(self):
        f = gaussian_pulse(center=(4.0, 4.0), sigma=1.0, omega=math.pi / 2.0)
        region = RectRegion((0, 0), (9, 9))
        vals = evaluate_on_region(f, t=1.0, region=region)  # sin(pi/2) = 1
        assert vals[4, 4] == pytest.approx(1.0)
        assert vals[0, 0] < vals[4, 4]

    def test_time_oscillation(self):
        f = gaussian_pulse(center=(2.0, 2.0), sigma=1.0, omega=math.pi)
        region = RectRegion((2, 2), (3, 3))
        at_half = evaluate_on_region(f, 0.5, region)[0, 0]
        at_one = evaluate_on_region(f, 1.0, region)[0, 0]
        assert at_half == pytest.approx(1.0)
        assert at_one == pytest.approx(0.0, abs=1e-12)

    def test_region_offset_consistency(self):
        """Evaluating on a sub-region is a crop of the full evaluation."""
        f = gaussian_pulse(center=(5.0, 3.0), sigma=2.0)
        full = evaluate_on_region(f, 0.7, RectRegion((0, 0), (10, 10)))
        sub = evaluate_on_region(f, 0.7, RectRegion((2, 4), (7, 9)))
        np.testing.assert_allclose(sub, full[2:7, 4:9])


    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_pulse(center=(0.0, 0.0), sigma=sigma)


class TestRotatingSource:
    def test_source_moves(self):
        f = rotating_source(domain=(32.0, 32.0), period=8.0, sigma=2.0)
        region = RectRegion((0, 0), (32, 32))
        a = evaluate_on_region(f, 0.0, region)
        b = evaluate_on_region(f, 2.0, region)  # quarter turn
        pa = np.unravel_index(np.argmax(a), a.shape)
        pb = np.unravel_index(np.argmax(b), b.shape)
        assert pa != pb

    def test_periodicity(self):
        f = rotating_source(domain=(16.0, 16.0), period=4.0)
        region = RectRegion((0, 0), (16, 16))
        np.testing.assert_allclose(
            evaluate_on_region(f, 1.0, region),
            evaluate_on_region(f, 5.0, region),
            atol=1e-12,
        )


    @pytest.mark.parametrize("sigma", [0.0, -2.0])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            rotating_source(domain=(16.0, 16.0), sigma=sigma)

    @pytest.mark.parametrize("period", [0.0, -4.0])
    def test_period_must_be_positive(self, period):
        with pytest.raises(ValueError, match="period"):
            rotating_source(domain=(16.0, 16.0), period=period)

    def test_open_grids_give_the_dense_values(self):
        """Evaluating on open grids is bit-identical to the dense meshgrid pair."""
        f = rotating_source(domain=(40.0, 30.0), sigma=3.0, period=9.0, amplitude=1.7)
        region = RectRegion((5, 3), (37, 29))
        X, Y = np.meshgrid(
            np.arange(5.0, 37.0), np.arange(3.0, 29.0), indexing="ij"
        )
        for t in (0.0, 1.3, 8.25):
            assert np.array_equal(evaluate_on_region(f, t, region), f(t, X, Y))


class TestEvaluateOnRegion:
    def test_empty_region(self):
        f = gaussian_pulse(center=(0, 0), sigma=1.0)
        out = evaluate_on_region(f, 0.0, RectRegion.empty(2))
        assert out.shape == (0, 0)

    def test_dtype(self):
        f = gaussian_pulse(center=(0, 0), sigma=1.0)
        out = evaluate_on_region(f, 0.5, RectRegion((0, 0), (2, 2)), dtype=np.float32)
        assert out.dtype == np.float32


    @pytest.mark.parametrize(
        "field,expected",
        [
            (lambda t, X, Y: 1.5, lambda X, Y: np.full((3, 4), 1.5)),
            (lambda t, X, Y: X * 2.0, lambda X, Y: X * 2.0),
            (lambda t, X, Y: Y - 1.0, lambda X, Y: Y - 1.0),
        ],
        ids=["constant", "x_only", "y_only"],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_partial_fields_fill_the_region(self, field, expected, dtype):
        region = RectRegion((2, 5), (5, 9))
        X, Y = np.meshgrid(np.arange(2.0, 5.0), np.arange(5.0, 9.0), indexing="ij")
        out = evaluate_on_region(field, 0.0, region, dtype=dtype)
        assert out.shape == region.shape
        assert out.dtype == dtype
        assert out.flags.c_contiguous
        assert np.array_equal(out, expected(X, Y).astype(dtype))


class TestImbalanceProfiles:
    def test_uniform(self):
        p = uniform_profile(4)
        assert p.scales == (1.0, 1.0, 1.0, 1.0)
        assert p.skew == 1.0

    def test_one_slow_defaults_to_last_rank(self):
        p = one_slow_profile(4, factor=1.85)
        assert p.slowest_rank == 3
        assert p.scale(3) == 1.85
        assert p.scale(0) == 1.0
        assert p.skew == pytest.approx(1.85)

    def test_one_slow_explicit_rank(self):
        p = one_slow_profile(4, slow_rank=1, factor=2.0)
        assert p.slowest_rank == 1

    def test_linear(self):
        p = linear_profile(5, max_factor=2.0)
        assert p.scale(0) == 1.0
        assert p.scale(4) == pytest.approx(2.0)
        assert p.scale(2) == pytest.approx(1.5)

    def test_linear_single_rank(self):
        assert linear_profile(1).scales == (1.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImbalanceProfile(())
        with pytest.raises(ValueError):
            ImbalanceProfile((1.0, 0.0))
        with pytest.raises(ValueError):
            one_slow_profile(4, slow_rank=9)
