import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from acsgeom.errors import DimensionMismatch, SingularOperator
from acsgeom.fiber import (
    FiberMetric,
    as_fiber_matrix,
    g_adjoint,
    mat_exp,
    mat_inv_guarded,
    mat_tanh_half,
    max_abs,
)


def series_exp(a, terms=30):
    """Plain truncated power series, the independent reference for mat_exp."""
    a = np.asarray(a, dtype=float)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestAsFiberMatrix:
    def test_accepts_nested_lists(self):
        m = as_fiber_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    @pytest.mark.parametrize("bad", [
        [[1, 2, 3], [4, 5, 6]],          # not square
        [1.0, 2.0],                       # wrong rank
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # odd dimension
    ])
    def test_rejects_wrong_shape(self, bad):
        with pytest.raises(DimensionMismatch):
            as_fiber_matrix(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_fiber_matrix([[np.nan, 0], [0, 1]])

    def test_max_abs(self):
        assert max_abs([[1, -3], [2, 0]]) == 3.0


class TestFiberMetric:
    def test_identity(self):
        g = FiberMetric.identity(4)
        assert g.dim == 4
        assert np.array_equal(g.matrix, np.eye(4))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            FiberMetric([[1.0, 0.1], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        # eigenvalues 3 and -1
        with pytest.raises(ValueError):
            FiberMetric([[1.0, 2.0], [2.0, 1.0]])


class TestMatInvGuarded:
    def test_known_inverse(self):
        a = [[1.0, -0.5], [-0.5, 1.0]]
        expected = (4.0 / 3.0) * np.array([[1.0, 0.5], [0.5, 1.0]])
        assert_allclose(mat_inv_guarded(a), expected, atol=1e-14)

    def test_inverse_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
            assert max_abs(mat_inv_guarded(a) @ a - np.eye(4)) < 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularOperator):
            mat_inv_guarded([[1.0, 1.0], [1.0, 1.0]])

    def test_condition_cap(self):
        ill = np.diag([1.0, 1e-13])
        with pytest.raises(SingularOperator):
            mat_inv_guarded(ill)


class TestMatExp:
    def test_zero(self):
        assert np.array_equal(mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        assert_allclose(mat_exp(np.diag([1.0, -2.0])),
                        np.diag([math.e, math.exp(-2.0)]), rtol=1e-15)

    def test_matches_series(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.uniform(-0.5, 0.5, size=(4, 4))
            assert max_abs(mat_exp(a) - series_exp(a)) < 1e-13

    def test_inverse_is_negative_exponent(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-0.5, 0.5, size=(4, 4))
        assert max_abs(mat_exp(a) @ mat_exp(-a) - np.eye(4)) < 1e-14


class TestMatTanhHalf:
    def test_diagonal_oracle(self):
        a = np.diag([0.8, -0.8])
        got = mat_tanh_half(a, 1.0)
        assert_allclose(got, np.diag([math.tanh(0.4), -math.tanh(0.4)]),
                        rtol=1e-14)

    def test_zero_time(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert max_abs(mat_tanh_half(a, 0.0)) == 0.0

    def test_odd_in_t(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, size=(4, 4))
        assert max_abs(mat_tanh_half(a, 0.7) + mat_tanh_half(a, -0.7)) < 1e-14

    def test_against_exponential_route(self):
        # tanh(X) = (e^{2X} - 1)(e^{2X} + 1)^{-1}, X = (t/2) A
        rng = np.random.default_rng(9)
        a = rng.uniform(-0.8, 0.8, size=(4, 4))
        t = 1.3
        e2 = series_exp(t * a)
        expected = (e2 - np.eye(4)) @ np.linalg.inv(e2 + np.eye(4))
        assert max_abs(mat_tanh_half(a, t) - expected) < 1e-12


class TestGAdjoint:
    def test_identity_metric_is_transpose(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(g_adjoint(a, FiberMetric.identity(2)), a.T)

    def test_weighted_metric(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = FiberMetric(np.diag([1.0, 4.0]))
        assert_allclose(g_adjoint(a, g), [[0.0, 0.0], [0.25, 0.0]], atol=1e-15)

    def test_defining_identity(self):
        # g(A^sharp x, y) = g(x, A y) for random vectors
        rng = np.random.default_rng(13)
        gmat = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        gmat = 0.5 * (gmat + gmat.T) + 4.0 * np.eye(4)
        g = FiberMetric(gmat)
        a = rng.standard_normal((4, 4))
        sharp = g_adjoint(a, g)
        for _ in range(5):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert abs((sharp @ x) @ gmat @ y - x @ gmat @ (a @ y)) < 1e-10

    def test_involution(self):
        rng = np.random.default_rng(17)
        g = FiberMetric(np.diag([1.0, 2.0, 3.0, 4.0]))
        a = rng.standard_normal((4, 4))
        assert max_abs(g_adjoint(g_adjoint(a, g), g) - a) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            g_adjoint(np.eye(4), FiberMetric.identity(2))


def near_identity_stack(seed, dim, points=7, scale=0.4):
    rng = np.random.default_rng(seed)
    return np.eye(dim) + scale * rng.uniform(-1.0, 1.0, size=(points, dim, dim))


def mixed_stack(seed, dim, scale):
    """Two each of zero, diagonal, upper-triangular, lower-triangular and
    generic slices, with entries uniform on [-scale, scale]: every branch
    of scipy's expm in one stack."""
    rng = np.random.default_rng(seed)
    a = scale * rng.uniform(-1.0, 1.0, size=(10, dim, dim))
    a[:2] = 0.0
    a[2:4] *= np.eye(dim)
    a[4:6] = np.triu(a[4:6])
    a[6:8] = np.tril(a[6:8])
    return a


class TestStacks:
    """A (points, n, n) stack gives, slice for slice, the bits of the
    single-matrix call."""

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_inv_guarded(self, dim):
        a = near_identity_stack(1, dim)
        assert np.array_equal(mat_inv_guarded(a), np.stack([mat_inv_guarded(m) for m in a]))

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_exp(self, dim):
        a = near_identity_stack(2, dim) - np.eye(dim)
        assert np.array_equal(mat_exp(a), np.stack([mat_exp(m) for m in a]))

    # scipy needs no squaring at scale 1e-3 and 4 to 6 squarings at scale 50
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_exp_is_scipy_expm(self, dim, scale):
        from scipy.linalg import expm

        a = mixed_stack(6, dim, scale)
        want = expm(a)
        assert np.array_equal(mat_exp(a), want)
        assert np.array_equal(mat_exp(a.reshape(2, 5, dim, dim)), want.reshape(2, 5, dim, dim))
        for m, w in zip(a, want):
            assert np.array_equal(mat_exp(m), w)

    # at t = 2 the exponents are a and -a; beyond scale 5 the cosh factor
    # e + f of these draws is too ill-conditioned to invert
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_tanh_half_exponentials_are_scipy_expm(self, dim, scale):
        from scipy.linalg import expm

        def want(m):
            e, f = expm(m), expm(-m)
            return mat_inv_guarded(e + f) @ (e - f)

        a = mixed_stack(7, dim, scale)
        assert np.array_equal(mat_tanh_half(a, 2.0), want(a))
        assert np.array_equal(mat_tanh_half(a.reshape(2, 5, dim, dim), 2.0),
                              want(a).reshape(2, 5, dim, dim))
        for m in a:
            assert np.array_equal(mat_tanh_half(m, 2.0), want(m))

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_tanh_half(self, dim):
        a = near_identity_stack(3, dim) - np.eye(dim)
        assert np.array_equal(mat_tanh_half(a, 0.7),
                              np.stack([mat_tanh_half(m, 0.7) for m in a]))

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_g_adjoint(self, dim):
        a = near_identity_stack(4, dim)
        spd = a @ a.mT
        g = FiberMetric(spd)
        want = np.stack([g_adjoint(m, FiberMetric(s)) for m, s in zip(a, spd)])
        assert np.array_equal(g_adjoint(a, g), want)
        # one metric matrix serves the whole stack
        one = FiberMetric(spd[0])
        assert np.array_equal(g_adjoint(a, one), np.stack([g_adjoint(m, one) for m in a]))

    def test_one_singular_slice_raises(self):
        a = near_identity_stack(5, 2)
        a[3] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(SingularOperator):
            mat_inv_guarded(a)

    def test_fiber_metric_rejects_one_bad_slice(self):
        stack = np.tile(np.eye(2), (3, 1, 1))
        assert FiberMetric(stack).dim == 2
        stack[2] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValueError):
            FiberMetric(stack)

    def test_stack_needs_square_slices(self):
        assert as_fiber_matrix(np.zeros((3, 4, 4))).shape == (3, 4, 4)
        with pytest.raises(DimensionMismatch):
            as_fiber_matrix(np.zeros((3, 4, 2)))
