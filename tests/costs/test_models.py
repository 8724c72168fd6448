"""Tests for the cost models and presets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costs import FAST_TEST, PAPER_CLUSTER
from repro.costs.models import ComputeCostModel, MemoryCostModel, NetworkCostModel
from repro.util.rng import RngRegistry
from repro.util.validation import ValidationError


class TestMemoryCostModel:
    def test_memcpy_linear_in_size(self):
        m = MemoryCostModel(setup_time=0.0, bandwidth=100.0, init_factor=1.0)
        assert m.memcpy_time(50) == pytest.approx(0.5)
        assert m.memcpy_time(100) == pytest.approx(1.0)

    def test_setup_time_added(self):
        m = MemoryCostModel(setup_time=0.25, bandwidth=100.0, init_factor=1.0)
        assert m.memcpy_time(0) == pytest.approx(0.25)

    def test_init_surcharge_applies_before_cutoff(self):
        m = MemoryCostModel(
            setup_time=0.0, bandwidth=100.0, init_factor=1.08, init_until=10.0
        )
        early = m.memcpy_time(100, now=5.0)
        late = m.memcpy_time(100, now=15.0)
        assert early == pytest.approx(1.08 * late)

    def test_contention_per_peer(self):
        m = MemoryCostModel(
            setup_time=0.0, bandwidth=100.0, init_factor=1.0, contention_per_peer=0.013
        )
        alone = m.memcpy_time(100, active_peers=0)
        crowded = m.memcpy_time(100, active_peers=3)
        assert crowded / alone == pytest.approx(1.039)

    def test_skip_is_setup_only(self):
        m = MemoryCostModel(setup_time=0.2, bandwidth=1.0)
        assert m.skip_time() == 0.2

    def test_free_buffers_time(self):
        m = MemoryCostModel(free_time=0.1)
        assert m.free_buffers_time(5) == pytest.approx(0.5)
        assert m.free_buffers_time(0) == 0.0

    def test_paper_calibration_magnitude(self):
        """A 512x512 float64 block must cost around 1.4 ms (Figure 4)."""
        nbytes = 512 * 512 * 8
        t = PAPER_CLUSTER.memory.memcpy_time(nbytes)
        assert 1.0e-3 < t < 2.0e-3

    @given(
        n1=st.integers(0, 10**8),
        n2=st.integers(0, 10**8),
        peers=st.integers(0, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, n1, n2, peers):
        m = PAPER_CLUSTER.memory
        if n1 <= n2:
            assert m.memcpy_time(n1, active_peers=peers) <= m.memcpy_time(
                n2, active_peers=peers
            )
        assert m.memcpy_time(n1, active_peers=peers) >= m.memcpy_time(n1)


class TestNetworkCostModel:
    def test_transfer_time(self):
        n = NetworkCostModel(latency=0.1, bandwidth=1000.0, congestion_per_flow=0.0)
        assert n.transfer_time(500) == pytest.approx(0.6)

    def test_congestion_factor(self):
        n = NetworkCostModel(latency=0.0, bandwidth=1.0, congestion_per_flow=0.05)
        assert n.congestion(0) == 1.0
        assert n.congestion(4) == pytest.approx(1.2)
        assert n.congestion(-3) == 1.0  # clamped

    def test_gige_magnitude(self):
        """2 MiB over the paper's GigE should take ~17 ms."""
        t = PAPER_CLUSTER.network.transfer_time(2 * 1024 * 1024)
        assert 0.01 < t < 0.03


class TestComputeCostModel:
    def test_linear_in_elements(self):
        c = ComputeCostModel(time_per_element=1e-6, fixed_overhead=0.0)
        assert c.iteration_time(1000) == pytest.approx(1e-3)

    def test_scale_injects_imbalance(self):
        c = ComputeCostModel(time_per_element=1e-6, fixed_overhead=0.0)
        assert c.iteration_time(1000, scale=1.5) == pytest.approx(1.5e-3)

    def test_jitter_bounded_and_deterministic(self):
        c = ComputeCostModel(time_per_element=1e-6, fixed_overhead=0.0, jitter=0.1)
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        a = [c.iteration_time(1000, rng=rng1) for _ in range(50)]
        b = [c.iteration_time(1000, rng=rng2) for _ in range(50)]
        assert a == b
        base = 1e-3
        assert all(0.9 * base <= t <= 1.1 * base for t in a)
        assert len(set(a)) > 1

    def test_no_rng_means_no_jitter(self):
        c = ComputeCostModel(time_per_element=1e-6, fixed_overhead=0.0, jitter=0.5)
        assert c.iteration_time(1000) == pytest.approx(1e-3)


class TestPresets:
    def test_fast_test_is_fast(self):
        assert FAST_TEST.memory.memcpy_time(10**6) < 1e-5
        assert FAST_TEST.compute.jitter == 0.0

    def test_models_are_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_CLUSTER.memory.bandwidth = 1.0  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryCostModel(bandwidth=0.0)
        with pytest.raises(ValueError):
            NetworkCostModel(latency=-1.0)
        with pytest.raises(ValueError):
            ComputeCostModel(time_per_element=-1.0)


class TestJitterBound:
    """A jitter half-width past 1 would draw negative costs."""

    @pytest.mark.parametrize("model", [MemoryCostModel, ComputeCostModel])
    @pytest.mark.parametrize("jitter", [1.5, 1.0 + 1e-12, float("inf")])
    def test_above_one_rejected_at_construction(self, model, jitter):
        with pytest.raises(ValidationError, match="jitter must be <= 1"):
            model(jitter=jitter)

    @pytest.mark.parametrize("model", [MemoryCostModel, ComputeCostModel])
    def test_nan_rejected(self, model):
        with pytest.raises(ValidationError, match="jitter"):
            model(jitter=float("nan"))

    def test_one_is_legal_and_never_negative(self):
        # Draws lie in [0, 2): a cost may shrink to nothing, never below.
        stream = RngRegistry(seed=3).stream("compute/F.0")
        memory = MemoryCostModel(jitter=1.0)
        compute = ComputeCostModel(jitter=1.0)
        costs = [memory.memcpy_time(4096, rng=stream) for _ in range(200)]
        costs += [compute.iteration_time(4096, rng=stream) for _ in range(200)]
        assert min(costs) >= 0.0
        assert max(costs) > min(costs)
