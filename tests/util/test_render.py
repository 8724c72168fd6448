"""Tests for the ASCII field renderer."""

import numpy as np
import pytest

from repro.util.render import SHADES, heatmap


class TestHeatmap:
    def test_flat_field_is_blank(self):
        out = heatmap(np.zeros((8, 8)))
        assert set(out) <= {" ", "\n"}

    def test_gradient_uses_full_ramp(self):
        field = np.tile(np.linspace(0, 1, 48), (24, 1))
        out = heatmap(field)
        assert SHADES[0] in out or "." in out
        assert SHADES[-1] in out

    def test_peak_is_darkest(self):
        field = np.zeros((24, 48))
        field[12, 24] = 10.0
        out = heatmap(field).splitlines()
        assert SHADES[-1] in "".join(out)
        assert out[12][24] == SHADES[-1]

    def test_size_limits_respected(self):
        field = np.random.default_rng(0).random((200, 300))
        out = heatmap(field, width=40, height=10)
        lines = out.splitlines()
        assert len(lines) <= 10 + 1
        assert all(len(line) <= 40 + 1 for line in lines)

    def test_fixed_range_clamps(self):
        field = np.array([[0.0, 100.0]])
        out = heatmap(field, vmin=0.0, vmax=1.0)
        assert out[-1] == SHADES[-1]  # 100 clamps to the top shade

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            heatmap(np.zeros(5))

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            heatmap(np.zeros((4, 4)), width=0)
