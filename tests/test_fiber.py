import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from acsgeom.errors import DimensionMismatch, NonFiniteValue, SingularOperator
from acsgeom.fiber import (
    DEFAULT_COND_CAP,
    THETA_13,
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

    def test_frobenius_estimate_refuses_under_the_2_norm_cap(self):
        # kappa_2 = 8e11 is under the cap; kappa_F = sqrt(3) * 8e11 is over it
        ill = np.diag([1.0, 1.0, 1.0, 1.25e-12])
        assert np.linalg.cond(ill) < DEFAULT_COND_CAP
        with pytest.raises(SingularOperator, match=r"estimate 1\.385641e\+12 exceeds cap"):
            mat_inv_guarded(ill)

    def test_refuses_whatever_the_2_norm_refuses(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((2, 60, 4, 4)))
        sigma = np.ones((60, 4))
        sigma[:, -1] = 1.0 / np.logspace(11, 13, 60)
        stack = q[0] * sigma[:, None, :] @ q[1]
        for m, kappa in zip(stack, np.linalg.cond(stack)):
            if kappa > DEFAULT_COND_CAP:
                with pytest.raises(SingularOperator):
                    mat_inv_guarded(m)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_estimate_does_not_depend_on_scale(self, scale):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert_allclose(scale * mat_inv_guarded(scale * a), mat_inv_guarded(a), rtol=1e-15)


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
    generic slices, with entries uniform on [-scale, scale]: the diagonal
    branch of mat_exp, and every branch of scipy's expm, in one stack."""
    rng = np.random.default_rng(seed)
    a = scale * rng.uniform(-1.0, 1.0, size=(10, dim, dim))
    a[:2] = 0.0
    a[2:4] *= np.eye(dim)
    a[4:6] = np.triu(a[4:6])
    a[6:8] = np.tril(a[6:8])
    return a


def relative_error(got, want, floor=0.0):
    """Largest entrywise error of each slice, over the largest entry of
    ``want`` in that slice (or ``floor``, if larger)."""
    scale = np.maximum(np.abs(want).max(axis=(-2, -1)), floor)
    return np.abs(got - want).max(axis=(-2, -1)) / scale


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

    # scipy.linalg.expm is the oracle; mat_exp squares 3 to 6 times at scale 50
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_exp_is_scipy_expm(self, dim, scale):
        from scipy.linalg import expm

        a = mixed_stack(6, dim, scale)
        got, want = mat_exp(a), expm(a)
        assert (relative_error(got, want) <= (1e-14 if scale <= 1.0 else 1e-12)).all()
        assert np.array_equal(got[:2], np.broadcast_to(np.eye(dim), (2, dim, dim)))
        assert np.array_equal(got[2:4], np.exp(a[2:4]) * np.eye(dim))
        assert np.array_equal(mat_exp(a.reshape(2, 5, dim, dim)), got.reshape(2, 5, dim, dim))
        for m, g in zip(a, got):
            assert np.array_equal(mat_exp(m), g)
        with pytest.raises(NonFiniteValue, match="matrix exponential entries must be finite"):
            mat_exp(1.7e308 * (a / scale))

    # at t = 2 the exponents are a and -a; beyond scale 5 the cosh factor
    # e + f of these draws is too ill-conditioned to invert.  For small
    # exponents e - f cancels to about 2a, so the error is read against
    # max(1, largest entry), the scale of e and f
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_tanh_half_exponentials_are_scipy_expm(self, dim, scale):
        from scipy.linalg import expm

        a = mixed_stack(7, dim, scale)
        e, f = expm(a), expm(-a)
        want = mat_inv_guarded(e + f) @ (e - f)
        got = mat_tanh_half(a, 2.0)
        assert (relative_error(got, want, floor=1.0) <= (1e-14 if scale <= 1.0 else 1e-12)).all()
        assert np.array_equal(got[:2], np.zeros((2, dim, dim)))
        assert np.array_equal(mat_tanh_half(a, -2.0), -got)
        assert np.array_equal(mat_tanh_half(a.reshape(2, 5, dim, dim), 2.0),
                              got.reshape(2, 5, dim, dim))
        for m, g in zip(a, got):
            assert np.array_equal(mat_tanh_half(m, 2.0), g)
        with pytest.raises(NonFiniteValue, match="matrix exponential entries must be finite"):
            mat_tanh_half(a, math.inf)

    # the quotient of two mat_exp calls, one per sign, is the oracle bit for
    # bit; at scale 5 some slices of h are squared before the quotient
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_tanh_half_is_the_quotient_of_exponentials(self, dim, scale):
        a = mixed_stack(8, dim, scale)
        for t in (0.0, 0.5, -0.5, 2.0, -2.0):
            h = 0.5 * t * a
            if scale == 5.0 and abs(t) == 2.0:
                assert (np.abs(h).sum(axis=-2).max(axis=-1) > THETA_13).any()
            e, f = mat_exp(h), mat_exp(-h)
            assert np.array_equal(mat_tanh_half(a, t), mat_inv_guarded(e + f) @ (e - f))
        with pytest.raises(NonFiniteValue, match="matrix exponential entries must be finite"):
            mat_tanh_half(a, math.inf)

    def test_mat_tanh_half_builds_one_pade_polynomial(self, monkeypatch):
        shapes, original = [], np.linalg.solve

        def solve(a, b):
            shapes.append(np.shape(a))
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        mat_tanh_half(mixed_stack(9, 4, 1.0), 2.0)
        # the Pade solve of the 6 non-diagonal slices at both signs, then the
        # guard's inversion of the 10 cosh factors
        assert shapes == [(12, 4, 4), (10, 4, 4)]

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
