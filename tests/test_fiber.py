import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from acsgeom import fiber
from acsgeom.charts import random_anticommuting, standard_acs
from acsgeom.errors import DimensionMismatch, NonFiniteValue, SingularOperator
from acsgeom.fiber import (
    ANTILINEAR_GATE,
    DEFAULT_COND_CAP,
    EVEN_GATE,
    PADE_13,
    THETA_13,
    FiberMetric,
    _pade_13,
    antilinear_form,
    as_fiber_matrix,
    diagonal_and_norm_1,
    g_adjoint,
    guard_inverse,
    mat_exp,
    mat_inv,
    mat_inv_guarded,
    mat_tanh_half,
    max_abs,
    pade_basis,
    slice_max_abs,
)


@pytest.fixture
def lapack(monkeypatch):
    """Record the shape of every np.linalg.solve call; returns the list and
    the unwrapped solve."""
    shapes, original = [], np.linalg.solve

    def solve(a, b):
        shapes.append(np.shape(a))
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return shapes, original


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
        with pytest.raises(SingularOperator, match=r"estimate 1\.39e\+12 exceeds cap"):
            mat_inv_guarded(ill)

    def test_refused_estimate_is_printed_to_3_digits(self):
        # near the cap the estimate's own rounding is at the percent level:
        # two estimates of one factor that differ in their fourth digit read
        # the same
        for cond in (1.907028e14, 1.9051e14, 1.9149e14):
            with pytest.raises(SingularOperator) as info:
                fiber._refuse_ill_conditioned(np.array([1.0, cond, 3.0]))
            assert str(info.value) == "condition estimate 1.91e+14 exceeds cap 1.000000e+12"

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

    def test_identity_metric_never_inverts_and_makes_no_matmul(self, monkeypatch):
        inversions = []
        monkeypatch.setattr(fiber, "mat_inv", lambda *args: inversions.append(args))
        g = FiberMetric.identity(4)
        a = near_identity_stack(3, 4, points=1000)
        a[:, 1, 0] = -0.0  # a product with the identity would read +0.0 there
        sharp = g_adjoint(a, g)
        assert np.array_equal(sharp, a.mT) and np.signbit(sharp[:, 0, 1]).all()
        assert sharp.flags.c_contiguous and not np.shares_memory(sharp, a)
        assert np.signbit((np.eye(4) @ (a.mT @ np.eye(4)))[:, 0, 1]).sum() == 0
        assert np.array_equal(g_adjoint(a[0], g), a[0].T)
        assert g.is_identity and inversions == [] and "inverse" not in vars(g)
        # only a single matrix that is exactly the identity is one
        assert not FiberMetric(np.tile(np.eye(4), (2, 1, 1))).is_identity
        assert not FiberMetric(np.diag([1.0, 1.0, 1.0, 1.0 + 2**-52])).is_identity

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

    def test_metric_inverts_once_on_first_use(self, lapack):
        calls, original = lapack
        g = FiberMetric(near_identity_stack(4, 4) @ near_identity_stack(4, 4).mT)
        assert calls == []  # a metric that is only validated pays no inversion
        a = near_identity_stack(5, 4)
        sharp = g_adjoint(a, g)
        assert np.array_equal(g_adjoint(a, g), sharp)
        assert calls == [(7, 4, 4)]
        assert g.inverse is g.inverse and not g.inverse.flags.writeable
        # G^{-1} (a^T G) against the solve of G x = a^T G
        want = original(g.matrix, a.mT @ g.matrix)
        assert (relative_error(sharp, want) <= 1e-14).all()


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

    # a kept basis serves every scale c of its stack: a slice whose squaring
    # count at c is below or above its count at 1 forms its powers afresh,
    # and the others scale the approximant's coefficients by c^j
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_kept_basis_is_scipy_expm_at_every_scale(self, dim):
        from scipy.linalg import expm

        a = mixed_stack(10, dim, 5.0)
        basis = pade_basis(a)
        assert basis.squarings.any()
        for c in (-4.0, -0.5, 0.01, 0.3, 1.0, 2.0, 4.0):
            got = mat_exp(basis, c)
            # beyond |c| = 1 a non-normal 2 x 2 draw loses a few digits to
            # cancellation, on the fresh route as well
            tol = 1e-13 if abs(c) <= 0.5 else 1e-11
            assert (relative_error(got, expm(c * a)) <= tol).all(), c
            assert np.array_equal(got, mat_exp(a, c))
        # beyond SCALE_MAX, where c^13 could overflow, every slice forms its
        # powers afresh, with the bits of the stack c a
        tiny = 1e-21 * a
        assert 1e20 > fiber.SCALE_MAX
        assert np.array_equal(mat_exp(pade_basis(tiny), 1e20), mat_exp(1e20 * tiny))
        for t in (-0.5, 0.02, 0.6):
            e, f = expm(0.5 * t * a), expm(-0.5 * t * a)
            want = mat_inv_guarded(e + f) @ (e - f)
            assert (relative_error(mat_tanh_half(basis, t), want, floor=1.0) <= 1e-13).all(), t

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

    # the quotient of two mat_exp calls at -+t/2, one per sign, is the
    # oracle: bit for bit on diagonal slices and on slices squared before the
    # quotient (at scale 5 some are), and within the 1e-14 of the scipy test
    # above on the slices whose quotient comes from the Pade parts alone
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_mat_tanh_half_is_the_quotient_of_exponentials(self, dim, scale):
        a = mixed_stack(8, dim, scale)
        diagonal = (a * (1.0 - np.eye(dim)) == 0.0).all(axis=(-2, -1))
        for t in (0.0, 0.5, -0.5, 0.7, 2.0, -2.0, 2.3):
            h = 0.5 * t * a
            squared = np.abs(h).sum(axis=-2).max(axis=-1) > THETA_13
            if scale == 5.0 and abs(t) == 2.0:
                assert squared.any() and not squared.all()
            e, f = mat_exp(a, 0.5 * t), mat_exp(a, -0.5 * t)
            want = mat_inv_guarded(e + f) @ (e - f)
            got = mat_tanh_half(a, t)
            exact = diagonal | squared
            assert np.array_equal(got[exact], want[exact])
            assert (relative_error(got, want, floor=1.0) <= 1e-14).all()
            assert np.array_equal(mat_tanh_half(a, -t), -got)
        assert np.array_equal(mat_tanh_half(a, 0.0), np.zeros_like(a))
        with pytest.raises(NonFiniteValue, match="matrix exponential entries must be finite"):
            mat_tanh_half(a, math.inf)

    def test_mat_tanh_half_builds_one_pade_polynomial(self, lapack):
        shapes, _ = lapack
        mat_tanh_half(mixed_stack(9, 4, 1.0), 2.0)
        # no slice is squared: only the guard's inversion of the 10 cosh
        # factors, four of them diagonal and two of them 2 I
        assert shapes == [(10, 4, 4)]
        shapes.clear()
        a = mixed_stack(9, 4, 5.0)
        squared = int((np.abs(a).sum(axis=-2).max(axis=-1) > THETA_13).sum())
        assert squared > 0
        mat_tanh_half(a, 2.0)
        # the Pade solve of the squared slices at both signs, then the guard's
        assert shapes == [(2 * squared, 4, 4), (10, 4, 4)]

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_mat_tanh_half_at_zero_inverts_nothing(self, dim, monkeypatch):
        inversions = []
        monkeypatch.setattr(fiber, "mat_inv", lambda *args: inversions.append(args))
        a = mixed_stack(9, dim, 1.0)
        for t in (0.0, -0.0):
            got = mat_tanh_half(a, t)
            assert np.array_equal(got, np.zeros_like(a)) and not np.signbit(got).any()
            got = mat_tanh_half(pade_basis(a[4]), t)
            assert got.shape == (dim, dim) and not np.signbit(got).any()
        assert inversions == []

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


def real_form(c):
    """The real 2h x 2h matrices of a (k, h, h) complex stack: 2x2 blocks
    [[Re, -Im], [Im, Re]], the matrices that commute with J_std."""
    c = np.asarray(c, dtype=complex)
    out = np.empty((len(c), 2 * c.shape[-1], 2 * c.shape[-1]))
    out[:, 0::2, 0::2] = out[:, 1::2, 1::2] = c.real
    out[:, 1::2, 0::2] = c.imag
    out[:, 0::2, 1::2] = -c.imag
    return out


def regular_complex_stack(h, points=5):
    rng = np.random.default_rng(h)
    raw = rng.uniform(-0.2, 0.2, size=(2, points, h, h))
    return np.eye(h) + raw[0] + 1j * raw[1]


# singular (h, h) complex matrices whose determinant, or LU pivot, is 0 exactly
SINGULAR = {1: [[0.0]],
            2: [[1 + 1j, 2 - 1j], [2 + 2j, 4 - 2j]],
            3: (1 + 1j) * np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])}


class TestComplexForm:
    """mat_inv takes a stack that commutes with J_std, such as the 1 - K^2
    of chart draws, to the stacked real solve, as it does every other
    stack; only antilinear_form's gate decides what the chart computes in
    complex form.  Refusals keep LAPACK's class and message."""

    # 1 - K^2 at 1200 chart draws, 100 of them moved to a commuting defect
    # of 1e-12, and 100 generic slices
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_parity_with_the_real_solve(self, dim, lapack):
        shapes, solve = lapack
        rng = np.random.default_rng(dim)
        k = random_anticommuting(rng, np.tile(standard_acs(dim), (1200, 1, 1)), bound=0.9)
        square = np.eye(dim) - k @ k
        above = square[:100].copy()
        above[:, 0, 0] += 1e-12
        generic = np.eye(dim) + 0.4 * rng.uniform(-1.0, 1.0, size=(100, dim, dim))
        stack = np.concatenate([square, above, generic])
        got = mat_inv(stack)
        assert shapes == [(1400, dim, dim)]  # one stacked solve, no gate
        assert np.array_equal(got, solve(stack, np.eye(dim)))
        for m, g in zip(stack, got):
            assert np.array_equal(mat_inv(m), g)

    # the antilinear gate, the one that remains: a defect of half of it
    # keeps the complex form, one of twice it gives None, at any scale
    def test_gate_is_relative_to_the_largest_entry(self):
        rng = np.random.default_rng(2)
        k = random_anticommuting(rng, np.tile(standard_acs(4), (5, 1, 1)), bound=0.9)
        for size in (1e-6, 1.0, 1e6):
            m = size * k
            scale = np.abs(m).max(axis=(-2, -1))
            for defect, passes in ((ANTILINEAR_GATE / 2, True), (2 * ANTILINEAR_GATE, False)):
                moved = m.copy()
                moved[:, 0, 0] += defect * scale
                assert (antilinear_form(moved) is not None) == passes, (size, defect)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_zero_determinant_raises_as_lapack_does(self, h):
        c = regular_complex_stack(h)
        c[2] = SINGULAR[h]
        m = real_form(c)
        with pytest.raises(SingularOperator, match="^Singular matrix$"):
            mat_inv(m)
        with pytest.raises(SingularOperator, match="^Singular matrix$"):
            mat_inv_guarded(m)

    # a pivot of 1e-310 overflows the solve: the slice's inverse is not
    # finite and the guard refuses it, with no numpy warning on the way
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_overflowing_inverse_is_refused_by_the_guard(self, h):
        c = regular_complex_stack(h)
        c[2, -1] = 0.0
        c[2, -1, -1] = 1e-310
        m = real_form(c)
        inv = mat_inv(m)
        finite = np.isfinite(inv).all(axis=(-2, -1))
        assert not finite[2] and np.delete(finite, 2).all()
        with pytest.raises(SingularOperator, match="^condition estimate") as info:
            mat_inv_guarded(m)
        assert "slice 2 " in str(info.value) and "nan" not in str(info.value)


def inverse_cases(n, k, seed):
    """All-commuting (1 - K^2 at chart draws, one of them within 2^-30 of
    singular), mixed (every third slice generic, from the first) and
    generic (k, n, n) stacks."""
    rng = np.random.default_rng(seed)
    kk = random_anticommuting(rng, np.tile(standard_acs(n), (k, 1, 1)), bound=0.9)
    commuting = np.eye(n) - kk @ kk
    commuting[k // 2] = real_form(np.diag([2.0 ** -30] + [1.0] * (n // 2 - 1))[None])[0]
    generic = np.eye(n) + 0.4 * rng.uniform(-1.0, 1.0, size=(k, n, n))
    mixed = commuting.copy()
    mixed[::3] = generic[::3]
    return {"commuting": commuting, "mixed": mixed, "generic": generic}


class TestSliceLastInverse:
    """mat_inv is one stacked solve: every slice of a stack, with the slice
    index first or last in memory, gets the bits of inverting it alone,
    whether the stack commutes with J_std, mixes or is generic; its
    refusals keep their classes and messages."""

    @pytest.mark.parametrize("k", [1, 8, 1000, 1025])
    @pytest.mark.parametrize("n", [2, 4])
    def test_bits_of_the_per_slice_route(self, n, k):
        for kind, stack in inverse_cases(n, k, 10 * n + k).items():
            got = mat_inv(stack)
            assert np.array_equal(got, np.stack([mat_inv(m) for m in stack])), kind
            slice_last = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
            assert np.array_equal(mat_inv(slice_last), got), kind
            assert np.array_equal(mat_inv_guarded(stack), got), kind
            assert np.array_equal(mat_inv(stack.reshape(1, k, n, n)), got[None]), kind
        assert np.array_equal(mat_inv(stack[0]), got[0])  # one matrix

    @pytest.mark.parametrize("k", [1, 8, 1000, 1025])
    @pytest.mark.parametrize("n", [2, 4])
    def test_zero_determinant_raises(self, n, k):
        for kind, stack in inverse_cases(n, k, n + k).items():
            # the last slice, or in the mixed stack the last commuting one
            at = k - 1 if kind == "commuting" or (k - 1) % 3 else k - 2
            if kind == "generic" or at < 0:
                continue
            stack[at] = real_form(SINGULAR[n // 2])[0]
            for call in (mat_inv, mat_inv_guarded):
                with pytest.raises(SingularOperator, match="^Singular matrix$"):
                    call(stack)

    @pytest.mark.parametrize("k", [1, 8, 1000, 1025])
    @pytest.mark.parametrize("n", [2, 4])
    def test_overflowing_inverse_keeps_the_guard_message(self, n, k):
        c = np.eye(n // 2, dtype=complex)
        c[-1, -1] = 1e-310  # 1/det overflows
        for kind, stack in inverse_cases(n, k, 2 * n + k).items():
            stack[-1] = real_form(c[None])[0]
            with pytest.raises(SingularOperator) as info:
                mat_inv_guarded(stack)
            assert str(info.value) == f"condition estimate of slice {k - 1} is not finite", kind
            per_slice_inverse = np.stack([mat_inv(m) for m in stack])
            assert np.array_equal(mat_inv(stack), per_slice_inverse, equal_nan=True), kind


SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308)


class TestSliceReductions:
    """The blocked per-slice reductions give the bits of the plain numpy
    expressions they replace, which stay here as the oracle."""

    # 1025 slices cross a block of 1024; 10 x 10 and 16 x 16 slices take
    # numpy's own reduce
    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([0, 1, 8, 15, 16, 1000, 1025]),
           n=st.sampled_from([2, 4, 6, 8, 10, 16]),
           seed=st.integers(0, 2**32 - 1), diagonal_share=st.sampled_from([0.0, 0.5, 1.0]),
           densities=st.lists(st.sampled_from([0.0, 1e-3, 0.05]), min_size=6, max_size=6))
    @example(k=0, n=4, seed=0, diagonal_share=0.0, densities=[0.0] * 6)
    def test_bits_of_the_numpy_reductions(self, k, n, seed, diagonal_share, densities):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((k, n, n))
        x[rng.random(k) < diagonal_share] *= np.eye(n)  # off-diagonal 0.0 and -0.0
        for value, density in zip(SPECIAL, densities):
            x[rng.random(x.shape) < density] = value
        with np.errstate(over="ignore"):  # 1e308 sums overflow to inf
            diagonal, norm = diagonal_and_norm_1(x)
            assert np.array_equal(norm, np.abs(x).sum(axis=1).max(axis=-1), equal_nan=True)
        assert np.array_equal(diagonal, (x[:, ~np.eye(n, dtype=bool)] == 0).all(axis=1))
        assert np.array_equal(slice_max_abs(x), np.abs(x).max(axis=(1, 2)), equal_nan=True)
        # a strided (k, n/2, n) view
        assert np.array_equal(slice_max_abs(x[:, 1::2]), np.abs(x[:, 1::2]).max(axis=(1, 2)),
                              equal_nan=True)

    @pytest.mark.parametrize("k", [2, 8, 15, 16, 17, 64])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_both_sides_of_the_small_stack_cut(self, k, n):
        # a NaN slice first, a diagonal slice with a -0.0 off the diagonal
        # last, and between them an inf and a diagonal slice with a NaN on it
        x = np.random.default_rng([k, n]).standard_normal((k, n, n))
        x[0, 0, 1] = np.nan
        x[-1] = np.diag(np.arange(1.0, n + 1.0))
        x[-1, 1, 0] = -0.0
        if k > 2:
            x[1, n - 1, 0] = -np.inf
            x[2] *= np.eye(n)
            x[2, 0, 0] = np.nan
        diagonal, norm = diagonal_and_norm_1(x)
        assert np.array_equal(norm, np.abs(x).sum(axis=1).max(axis=-1), equal_nan=True)
        assert np.array_equal(diagonal, (x[:, ~np.eye(n, dtype=bool)] == 0).all(axis=1))
        assert diagonal[-1] and not diagonal[0] and (k <= 2 or diagonal[2])
        assert np.array_equal(slice_max_abs(x), np.abs(x).max(axis=(1, 2)), equal_nan=True)
        assert np.isnan(slice_max_abs(x)[0]) and np.isnan(norm[0])

    def test_any_leading_shape(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 4, 4))
        assert np.array_equal(slice_max_abs(x), np.abs(x).max(axis=(-2, -1)))
        assert slice_max_abs(x[0, 0]) == np.abs(x[0, 0]).max()

    def test_empty_stack(self):
        assert mat_exp(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def np_kappa_f(m, inv):
    """kappa_F of each slice as np.linalg.norm reads it, both factors
    rescaled by the slice's largest |entry|: the guard's oracle."""
    scale = np.abs(m).max(axis=(-2, -1), keepdims=True)
    return np.linalg.norm(m / scale, axis=(-2, -1)) * np.linalg.norm(inv * scale, axis=(-2, -1))


def guard_refusal(m, inv, scale=None):
    """The message guard_inverse refuses with, or None if it passes ``inv``."""
    try:
        assert guard_inverse(m, inv, scale) is inv
    except SingularOperator as exc:
        return str(exc)
    return None


class TestGuardEstimate:
    """guard_inverse reads kappa_F from einsum sums of squares: within a few
    ulps of np.linalg.norm's, so it refuses where that estimate is past the
    cap or not finite, and names the same slice or largest estimate."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 8, 1000]), n=st.sampled_from([2, 4, 6, 8, 16]),
           seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-200, 200),
           log_cond=st.floats(8, 16))
    @example(k=8, n=4, seed=0, log_scale=0.0, log_cond=math.log10(DEFAULT_COND_CAP))
    def test_refuses_as_np_linalg_norm_reads(self, k, n, seed, log_scale, log_cond):
        # orthogonal Q D Q^T with singular values from 1 to 10^-log_cond at
        # one slice, scaled by 10^log_scale; its exact inverse from Q
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((k, n, n)))[0]
        d = np.ones((k, n))
        d[rng.integers(k), -1] = 10.0 ** -log_cond
        m = (q * (10.0 ** log_scale * d)[:, None, :]) @ q.mT
        inv = (q / (10.0 ** log_scale * d)[:, None, :]) @ q.mT
        want = np_kappa_f(m, inv)
        got = guard_refusal(m, inv)
        assert got == guard_refusal(m, inv, slice_max_abs(m))
        worst = want.max()
        if worst < DEFAULT_COND_CAP * (1.0 - 1e-12):
            assert got is None
        elif worst > DEFAULT_COND_CAP * (1.0 + 1e-12):
            assert got.startswith("condition estimate ")
            assert float(got.split()[2]) == pytest.approx(worst, rel=5e-3)  # printed to 3 digits

    def test_edge_values(self):
        m = np.tile(np.eye(4), (5, 1, 1))
        inv = m.copy()
        inv[1, 0, 0] = np.inf  # an overflowed inverse
        inv[2, 3, 1] = np.nan  # inf * 0
        assert guard_refusal(m, inv) == "condition estimate of slice 1 is not finite"
        inv[1] = np.eye(4)
        assert guard_refusal(m, inv) == "condition estimate of slice 2 is not finite"
        # entries near the top of the range: no square overflows
        huge = 1e200 * np.eye(4) + 1e199
        assert guard_refusal(huge, np.linalg.inv(huge)) is None
        assert np_kappa_f(huge, np.linalg.inv(huge)) < 10.0
        # one matrix, whose scale is a 0-d array
        assert guard_refusal(np.eye(2), np.eye(2), slice_max_abs(np.eye(2))) is None
        assert guard_inverse(np.zeros((0, 4, 4)), np.zeros((0, 4, 4))).shape == (0, 4, 4)


def gathered_antilinear_form(stack):
    """antilinear_form as the gathered expression: the anticommuting
    defect of each odd row against the even row above it, with its pairs
    swapped and signed, and Q read from the even rows as complex pairs."""
    n = stack.shape[-1]
    swap = np.arange(n).reshape(-1, 2)[:, ::-1].ravel()
    sign = np.tile([-1.0, 1.0], n // 2)
    even = stack[:, 0::2]
    defect = np.abs(stack[:, 1::2] + even[:, :, swap] * sign).max(axis=(1, 2), initial=0.0)
    if not (defect <= ANTILINEAR_GATE * np.abs(stack).max(axis=(1, 2), initial=0.0)).all():
        return None
    return np.ascontiguousarray(even).view(complex).transpose(1, 2, 0)


def masked_pade_13(a):
    """The Pade-13 parts as the masked expression, whatever the stack holds:
    the non-diagonal slices and their norms gathered by a[~diagonal]."""
    n = a.shape[-1]
    diagonal, norm = diagonal_and_norm_1(a)
    x, norm = a[~diagonal], norm[~diagonal]
    with np.errstate(divide="ignore"):
        squarings = np.maximum(np.ceil(np.log2(norm / THETA_13)), 0.0).astype(int)
    if squarings.any():
        x = np.ldexp(x, -squarings[:, None, None])
    b, eye = PADE_13, np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    return diagonal, squarings, v + u, v - u


def masked_mat_exp(a):
    """The exponential as one masked expression, with no kept basis: the
    masked Pade parts of ``a`` itself, then the solve D r = N, the squarings
    and the diagonal slices."""
    n = a.shape[-1]
    diagonal, squarings, num, den = masked_pade_13(a)
    r = np.linalg.solve(den, num) if len(num) else num
    for step in range(squarings.max(initial=0)):
        todo = squarings > step
        r[todo] = r[todo] @ r[todo]
    out = np.zeros(a.shape)
    np.einsum("kii->ki", out)[diagonal] = np.exp(np.einsum("kii->ki", a)[diagonal])
    out[~diagonal] = r
    return out


def path_stack(seed, n, one_path, diagonal, zero, scaled):
    """A shuffled stack of ``one_path`` non-diagonal slices of 1-norm 2 (no
    squaring for h = t a / 2 at |t| <= 2), ``scaled`` ones of 1-norm 24
    (squared at |t| >= 0.5), ``diagonal`` diagonal and ``zero`` zero
    slices.  The non-diagonal slices are symmetric, so tanh's cosh factor
    has a real spectrum and stays invertible, with kappa_2 at most
    cosh(24) = 1.3e10 at |t| <= 2, under the guard's cap even as n kappa_2
    (at 1-norm 30, cosh(30) = 5.3e12 let the guard refuse about 1 draw in
    100 at n = 2); every other one anticommutes with J_std, so at n <= 4
    it takes the algebra route."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(one_path + scaled, n, n))
    dense = raw + raw.mT
    j = standard_acs(n)
    dense[::2] = 0.5 * (dense[::2] + j @ dense[::2] @ j)
    dense /= np.abs(dense).sum(axis=-2).max(axis=-1)[:, None, None]
    dense[:one_path] *= 2.0
    dense[one_path:] *= 24.0
    diagonals = rng.uniform(-3.0, 3.0, size=(diagonal, n))[:, :, None] * np.eye(n)
    stack = np.concatenate([dense, diagonals, np.zeros((zero, n, n))])
    return stack[rng.permutation(len(stack))]


def route_masks(basis):
    """The diagonal, algebra and matrix routes' masks of a basis, an empty
    route's as all False."""
    k = len(basis.stack)
    return tuple(np.zeros(k, bool) if mask is None else mask
                 for mask in (basis.diagonal, basis.even, basis.matrix))


def per_slice(f, a):
    """f of each slice alone, stacked."""
    return np.array([f(m) for m in a]).reshape(a.shape)


class TestOnePathStacks:
    """A stack with no diagonal slice, and for tanh none that needs squaring,
    takes no mask; mixed stacks take masks.  Both give each slice the bits
    of the single-slice call, and the Pade parts and the antilinear gate
    keep the bits of the masked and gathered expressions they replace."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 4, 6, 8]), seed=st.integers(0, 2**32 - 1),
           one_path=st.integers(0, 5), diagonal=st.integers(0, 2), zero=st.integers(0, 2),
           scaled=st.integers(0, 2), t=st.sampled_from([0.5, 1.0, 2.0]))
    @example(n=4, seed=0, one_path=0, diagonal=0, zero=0, scaled=0, t=1.0)
    @example(n=4, seed=0, one_path=5, diagonal=0, zero=0, scaled=0, t=2.0)
    def test_stacks_agree_with_single_slices(self, n, seed, one_path, diagonal, zero,
                                             scaled, t):
        a = path_stack(seed, n, one_path, diagonal, zero, scaled)
        got = mat_exp(a)
        assert np.array_equal(got, per_slice(mat_exp, a))
        assert np.array_equal(mat_exp(a.mT), mat_exp(np.ascontiguousarray(a.mT)))
        tanh = {s: mat_tanh_half(a, s) for s in (0.0, t, -t)}
        for s, want in tanh.items():
            assert np.array_equal(want, per_slice(lambda m: mat_tanh_half(m, s), a))
        # the same slices with a zero slice appended take the masked path
        mixed = np.concatenate([a, np.zeros((1, n, n))])
        assert np.array_equal(mat_exp(mixed)[:-1], got)
        for s, want in tanh.items():
            assert np.array_equal(mat_tanh_half(mixed, s)[:-1], want)
        for h in (a, -a, 0.5 * t * a, a.mT):
            # the matrix route's parts keep the bits of the masked expression
            basis, (diagonal, *oracle) = pade_basis(h), masked_pade_13(h)
            on_diagonal, _, on_matrix = route_masks(basis)
            assert np.array_equal(on_diagonal, diagonal)
            if on_matrix.any():
                for part, want in zip(_pade_13(basis, 1.0), oracle):
                    assert np.array_equal(part, want[on_matrix[~diagonal]])
        # a kept basis gives each slice the bits of the single-slice call,
        # at any scale of the exponent
        basis = pade_basis(a)
        for s in (t, -t, 0.3, 1.7):
            assert np.array_equal(mat_exp(basis, s), per_slice(lambda m: mat_exp(m, s), a))
            assert np.array_equal(mat_exp(basis, s), mat_exp(a, s))
            assert np.array_equal(mat_tanh_half(basis, s),
                                  per_slice(lambda m: mat_tanh_half(pade_basis(m), s), a))
        assert np.array_equal(mat_exp(basis), got)
        # c = 1 scales nothing: the diagonal and matrix routes keep the
        # masked expression's bits.  The algebra route agrees with it to
        # 1e-14, and to 2^s 1e-14 where s squarings double both routes'
        # rounding, which lies on either side of exp (about 8e-15 each at
        # s = 3)
        masked, even = masked_mat_exp(a), route_masks(basis)[1]
        assert np.array_equal(got[~even], masked[~even])
        doubled = 2.0 ** np.maximum(np.ceil(np.log2(
            np.abs(a[even]).sum(axis=-2).max(axis=-1) / THETA_13)), 0.0)
        assert (relative_error(got[even], masked[even]) <= 1e-14 * doubled).all()

    # 1025 slices cross a block of the per-slice max; exactly
    # anticommuting slices read 0, and a stack of them alone has a form
    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([0, 1, 8, 1025]), n=st.sampled_from(range(2, 18, 2)),
           seed=st.integers(0, 2**32 - 1), anticommuting_share=st.sampled_from([0.0, 0.5, 1.0]),
           densities=st.lists(st.sampled_from([0.0, 1e-3, 0.05]), min_size=6, max_size=6))
    @example(k=8, n=4, seed=0, anticommuting_share=0.5, densities=[0.05] * 6)
    @example(k=8, n=4, seed=0, anticommuting_share=1.0, densities=[0.0] * 6)
    def test_gate_defect_keeps_the_gathered_bits(self, k, n, seed, anticommuting_share,
                                                 densities):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((k, n, n))
        anticommuting = rng.random(k) < anticommuting_share
        c = x[anticommuting]
        c[:, 1::2, 0::2], c[:, 1::2, 1::2] = c[:, 0::2, 1::2], -c[:, 0::2, 0::2]
        x[anticommuting] = c
        if anticommuting.all():
            assert np.array_equal(antilinear_form(x), gathered_antilinear_form(x))
        for value, density in zip(SPECIAL, densities):
            x[rng.random(x.shape) < density] = value
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
            got, want = antilinear_form(x), gathered_antilinear_form(x)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want, equal_nan=True)


def anticommuting_stack(seed, n, k=64, kappa=1.0):
    """k slices of 1-norm 1 that anticommute with P J_std P^-1, one P per
    slice with singular values spanning [1, kappa] (P = I at kappa = 1)."""
    rng = np.random.default_rng(seed)
    j = standard_acs(n)
    a = rng.standard_normal((k, n, n))
    a = a + j @ a @ j
    if kappa > 1.0:
        u, v = (np.linalg.qr(rng.standard_normal((k, n, n)))[0] for _ in range(2))
        s = rng.uniform(1.0, kappa, size=(k, n))
        s[:, 0], s[:, -1] = 1.0, kappa
        p = u * s[:, None, :] @ v.mT
        a = p @ a @ np.linalg.inv(p)
    return a / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]


def gate_ratios(a):
    """|tr A| / (eps m) and |tr A^3| / (eps m^3) of each slice, m its
    largest |entry|: the algebra route takes a slice where both are <= 64."""
    eps, m = np.finfo(float).eps, slice_max_abs(a)
    return (np.abs(np.einsum("kii->k", a)) / (eps * m),
            np.abs(np.einsum("kii->k", a @ a @ a)) / (eps * m ** 3))


# the grid times of the field_1000 benchmark workload
GRID = tuple(float(t) for t in np.linspace(0.0, 2.0, 9))


class TestAlgebraRoute:
    """At n = 2 and 4 a slice that anticommutes with a structure takes its
    exponentials in the algebra of A^2, four scalars per slice: the same
    Pade-13 approximant as the matrix route, to rounding, with each slice's
    bits its own and tanh odd in t bit for bit."""

    @pytest.mark.parametrize("kappa", [1.0, 6.0])
    @pytest.mark.parametrize("n", [2, 4])
    def test_anticommuting_stacks_take_the_algebra_route(self, n, kappa):
        a = anticommuting_stack(1, n, kappa=kappa)
        assert max(ratio.max() for ratio in gate_ratios(a)) <= 15.0
        basis = pade_basis(a)
        assert basis.even.all() and basis.diagonal is None and basis.matrix is None
        assert basis.algebra.span.shape == (3, n * n, len(a))

    # scipy's expm is the oracle, to test_mat_exp_is_scipy_expm's 1e-14
    # over the field_1000 grid (|c| ||A||_1 <= 2) and 1e-12 beyond
    # theta_13, where slices of 1-norm 0.5 to 2 square 0 to 2 times
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [1.0, 6.0])
    @pytest.mark.parametrize("n", [2, 4])
    def test_algebra_route_is_scipy_expm(self, n, kappa):
        from scipy.linalg import expm

        a = anticommuting_stack(2, n, kappa=kappa)
        spread = a * np.linspace(0.5, 2.0, len(a))[:, None, None]
        for stack, times, tol in ((a, GRID + (-0.5,), 1e-14), (spread, (3.5, -4.0), 1e-12)):
            basis = pade_basis(stack)
            for c in times:
                got = mat_exp(basis, c)
                assert (relative_error(got, expm(c * stack)) <= tol).all(), c
                assert np.array_equal(got, mat_exp(stack, c))
                assert np.array_equal(got, per_slice(lambda m: mat_exp(m, c), stack))
        assert np.array_equal(mat_exp(a, 0.0), np.broadcast_to(np.eye(n), a.shape))

    # the quotient of two mat_exp calls at -+t/2 is the oracle, as in
    # test_mat_tanh_half_is_the_quotient_of_exponentials
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [1.0, 6.0])
    @pytest.mark.parametrize("n", [2, 4])
    def test_tanh_is_the_quotient_of_exponentials(self, n, kappa):
        a = anticommuting_stack(3, n, kappa=kappa) * np.linspace(0.5, 2.0, 64)[:, None, None]
        basis = pade_basis(a)
        for t in GRID + (-0.5, 6.5, -8.0):
            e, f = mat_exp(basis, 0.5 * t), mat_exp(basis, -0.5 * t)
            want = mat_inv_guarded(e + f) @ (e - f)
            got = mat_tanh_half(basis, t)
            assert (relative_error(got, want, floor=1.0) <= 1e-14).all(), t
            assert np.array_equal(mat_tanh_half(basis, -t), -got)
            assert np.array_equal(got, per_slice(lambda m: mat_tanh_half(m, t), a))
        assert np.array_equal(mat_tanh_half(basis, 0.0), np.zeros_like(a))
        with pytest.raises(NonFiniteValue, match="matrix exponential entries must be finite"):
            mat_tanh_half(basis, math.inf)

    # an offset of the odd coefficients by twice the gate moves a slice to
    # the matrix route, with the masked expression's bits, and one of a
    # tenth keeps it on the algebra route.  At n = 2 the offset is on tr A
    # (there tr A^3 = tr A (tr A^2 - det A) moves with it), at n = 4 on
    # tr A^3
    @pytest.mark.parametrize("n", [2, 4])
    def test_gate_offsets_of_the_odd_coefficients(self, n):
        a = anticommuting_stack(4, n, k=3)
        for slice_, share in ((1, 2.0), (2, 0.1)):
            x, m = a[slice_], np.abs(a[slice_]).max()
            if n == 2:
                a[slice_] = x + 0.5 * share * EVEN_GATE * m * np.eye(2)
            else:
                y = x @ x
                shift = y.T - 0.25 * np.trace(y) * np.eye(4)
                a[slice_] = x + share * EVEN_GATE * m ** 3 / (3.0 * np.einsum("ij,ji->", y, shift)) * shift
        worst = np.maximum(*gate_ratios(a))
        assert worst[1] > 1.5 * 64 and worst[2] < 64
        basis = pade_basis(a)
        assert list(basis.even) == [True, False, True] and list(basis.matrix) == [False, True, False]
        got = mat_exp(a)
        assert np.array_equal(got[1], masked_mat_exp(a)[1])
        assert np.array_equal(got, per_slice(mat_exp, a))

    # below 2^-120 (and above 2^120) the scaled powers of A would leave the
    # floating-point range: 2^-300 A at c = 2^300 overflowed w = c'^2 into a
    # NonFiniteValue on the algebra route.  Such slices take the matrix
    # route, where c > SCALE_MAX forms the powers of c A afresh
    def test_slices_out_of_range_take_the_matrix_route(self):
        a = anticommuting_stack(5, 4, k=4)
        for scale in (2.0 ** -125, 2.0 ** 125):  # every slice has 1/4 < m <= 1
            basis = pade_basis(scale * a)
            assert basis.even is None and basis.matrix.all()
        assert np.array_equal(mat_exp(pade_basis(2.0 ** -300 * a), 2.0 ** 300), masked_mat_exp(a))
