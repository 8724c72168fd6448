"""Tests for the finite-difference stencils."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.stencil import BLOCK_ROWS, RowBlockedStencil, apply_dirichlet, laplacian


class TestLaplacian:
    def test_constant_field_has_zero_laplacian(self):
        padded = np.full((6, 6), 3.0)
        np.testing.assert_allclose(laplacian(padded), 0.0)

    def test_linear_field_has_zero_laplacian(self):
        i, j = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
        padded = 2 * i + 3 * j
        np.testing.assert_allclose(laplacian(padded), 0.0, atol=1e-12)

    def test_quadratic_field(self):
        """∇²(x²) = 2 exactly for the 5-point stencil."""
        i, _ = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
        padded = i**2
        np.testing.assert_allclose(laplacian(padded), 2.0)

    def test_dx_scaling(self):
        i, _ = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
        padded = (0.5 * i) ** 2
        np.testing.assert_allclose(laplacian(padded, dx=0.5), 2.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        padded = rng.random((7, 9))
        got = laplacian(padded)
        expected = np.empty((5, 7))
        for a in range(1, 6):
            for b in range(1, 8):
                expected[a - 1, b - 1] = (
                    padded[a - 1, b] + padded[a + 1, b]
                    + padded[a, b - 1] + padded[a, b + 1]
                    - 4 * padded[a, b]
                )
        np.testing.assert_allclose(got, expected)

    def test_out_buffer_reused(self):
        padded = np.random.default_rng(0).random((6, 6))
        out = np.empty((4, 4))
        result = laplacian(padded, out=out)
        assert result is out

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            laplacian(np.zeros((2, 5)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            laplacian(np.zeros((4, 4, 4)))


class TestDirichlet:
    def test_sets_all_edges(self):
        a = np.ones((5, 5))
        apply_dirichlet(a, 0.0)
        assert a[0].sum() == 0 and a[-1].sum() == 0
        assert a[:, 0].sum() == 0 and a[:, -1].sum() == 0
        assert a[1:-1, 1:-1].sum() == 9  # interior untouched

    def test_custom_value(self):
        a = np.zeros((4, 4))
        apply_dirichlet(a, 7.0)
        assert a[0, 0] == 7.0


def interior(a):
    return a[1:-1, 1:-1]


def ghosts(a):
    """Copy of every ghost cell of a padded array (its border)."""
    return np.concatenate([a[0], a[-1], a[1:-1, 0], a[1:-1, -1]])


class TestRowBlockedStencil:
    @settings(max_examples=150)
    @given(
        rows=st.integers(1, 150),
        cols=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        leapfrog=st.booleans(),
        forced=st.booleans(),
        dx=st.sampled_from([1.0, 1.5, 0.3]),
        coef=st.floats(0.01, 2.0),
        fcoef=st.floats(0.01, 2.0),
    )
    def test_equals_laplacian_formula_bit_for_bit(
        self, rows, cols, seed, leapfrog, forced, dx, coef, fcoef
    ):
        """The solvers' former whole-array expressions are the oracle."""
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((rows + 2, cols + 2))  # random ghost cells too
        prev = rng.standard_normal(u.shape) if leapfrog else None
        f = rng.standard_normal((rows, cols)) if forced else None
        u_in = u.copy()
        lap = laplacian(u_in, dx=dx)
        if leapfrog:
            expected = 2.0 * interior(u_in) - interior(prev) + coef * lap
        else:
            expected = interior(u_in) + coef * lap
        if forced:
            expected += fcoef * f
        dst = u if prev is None else prev
        dst_ghosts = ghosts(dst)

        RowBlockedStencil(u.shape, dx).step(u, coef, prev=prev, forcing=f, fcoef=fcoef)

        assert np.array_equal(interior(dst), expected)
        assert np.array_equal(ghosts(dst), dst_ghosts)
        if leapfrog:
            assert np.array_equal(u, u_in)

    def test_dirichlet_faces_zeroed_before_the_step(self):
        u = np.ones((BLOCK_ROWS + 7, 6))
        RowBlockedStencil(u.shape, dirichlet=["north", "east"]).step(u, 0.25)
        assert not u[0].any() and not u[:, -1].any()
        assert u[-1, :-1].all() and u[1:, 0].all()
        assert u[1, 1] == 1.0 + 0.25 * (0.0 + 1.0 + 1.0 + 1.0 - 4.0)

    def test_wrong_forcing_shape_refused_before_any_write(self):
        u = np.arange(30.0).reshape(5, 6)
        before = u.copy()
        kernel = RowBlockedStencil(u.shape, dirichlet=["north", "south", "west", "east"])
        with pytest.raises(ValueError, match="forcing shape"):
            kernel.step(u, 0.1, forcing=np.zeros((3, 3)))
        assert np.array_equal(u, before)

    def test_wrong_array_shape_refused(self):
        with pytest.raises(ValueError):
            RowBlockedStencil((5, 6)).step(np.zeros((6, 5)), 0.1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            RowBlockedStencil((2, 5))
