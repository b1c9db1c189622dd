import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from acsgeom import charts
from acsgeom.charts import (
    CayleyCoordinate,
    acs_to_cayley,
    cayley_to_acs,
    pushforward,
    random_anticommuting,
    shape_anticommuting,
    standard_acs,
)
from acsgeom.errors import (AnticommutationViolation, DimensionMismatch, InvalidStructure,
                            SingularOperator)
from acsgeom.fiber import mat_inv_guarded, max_abs
from acsgeom.geometry import ChartField, geodesic_ambient
from acsgeom.structures import (
    AcsField,
    SampleSpace,
    TangentField,
    random_sample_space,
    random_tangent_field,
    standard_acs_field,
)

J2 = standard_acs(2)


def anticommuting(seed, dim, bound=0.9):
    rng = np.random.default_rng(seed)
    return random_anticommuting(rng, standard_acs(dim), bound=bound)


def structure(j, points=1):
    """The structure field j (a stack, or one matrix tiled over ``points``)
    on a space of unit weights."""
    ops = j if np.ndim(j) == 3 else np.tile(j, (points, 1, 1))
    return AcsField(SampleSpace(ops.shape[-1], np.ones(len(ops))), ops)


def tangent(base, k):
    """The tangent field k (one matrix per point of ``base``) made at base."""
    return TangentField(base.space, base, np.reshape(k, base.ops.shape))


def point(j0, k):
    """The chart point of the coordinate k (one matrix or a stack) at the
    structure j0, one point per matrix of k."""
    base = structure(j0, len(k) if np.ndim(k) == 3 else 1)
    return CayleyCoordinate(base, tangent(base, k))


def exp_chart(k):
    """The exponential chart J0 e^K at the standard base, one point."""
    space = SampleSpace(k.shape[0], np.ones(1))
    j0 = standard_acs_field(space)
    return geodesic_ambient(j0, TangentField(space, j0, k[None]), 1.0).ops[0]


class TestStandardAcs:
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_squares_to_minus_identity(self, dim):
        j = standard_acs(dim)
        assert np.array_equal(j @ j, -np.eye(dim))

    def test_block_layout(self):
        assert np.array_equal(J2, [[0.0, -1.0], [1.0, 0.0]])
        j4 = standard_acs(4)
        assert np.array_equal(j4[:2, :2], J2)
        assert np.array_equal(j4[2:, 2:], J2)
        assert max_abs(j4[:2, 2:]) == 0.0


class TestAnticommuteProject:
    """The projection (b + j0 b j0)/2 alone: shaping with no part and no
    rescale."""

    def test_fixes_anticommuting_input(self):
        k = np.array([[0.3, 0.1], [0.1, -0.3]])
        assert np.array_equal(shape_anticommuting(k, J2, bound=np.inf), k)

    def test_kills_commuting_input(self):
        # J0 itself commutes with J0
        assert max_abs(shape_anticommuting(J2, J2, bound=np.inf)) == 0.0

    def test_output_anticommutes(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 6):
            j0 = standard_acs(dim)
            b = rng.uniform(-1, 1, size=(dim, dim))
            m = shape_anticommuting(b, j0, bound=np.inf)
            assert max_abs(m @ j0 + j0 @ m) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(-1, 1, size=(4, 4))
        j0 = standard_acs(4)
        once = shape_anticommuting(b, j0, bound=np.inf)
        assert max_abs(shape_anticommuting(once, j0, bound=np.inf) - once) < 1e-15


class TestCayleyCoordinate:
    def test_rejects_commuting_k(self):
        # a K made at another base field is remade, and checked, at this one
        base = structure(J2)
        k = TangentField.derived(structure(J2), np.eye(2)[None])
        with pytest.raises(AnticommutationViolation,
                           match=r"^tangent ops fail to anticommute with the base, "
                                 r"residual 2\.000e\+00$"):
            ChartField(base.space, base, k)
        with pytest.raises(AnticommutationViolation, match="not made at the chart's base"):
            CayleyCoordinate(base, k)

    def test_rejects_bad_base(self):
        with pytest.raises(InvalidStructure):
            point(np.eye(2), np.zeros((2, 2)))

    def test_rejects_chart_boundary(self):
        # 1 - K singular at spectral radius 1
        with pytest.raises(SingularOperator):
            point(J2, np.diag([1.0, -1.0]))

    def test_dim(self):
        c = point(standard_acs(4), np.zeros((4, 4)))
        assert c.dim == 4

    def test_chart_map_and_differential_share_one_inverse(self, monkeypatch):
        calls = []
        for name in ("mat_inv", "complex_inverse"):
            def counted(*args, f=getattr(charts, name), name=name):
                calls.append(name)
                return f(*args)
            monkeypatch.setattr(charts, name, counted)
        # a base off J_std: the real route, whose bits the real formulas give
        p = np.eye(4) + 0.3 * np.random.default_rng(4).uniform(-1.0, 1.0, (4, 4))
        base = structure(p @ standard_acs(4) @ np.linalg.inv(p), 3)
        k, a, b = (random_tangent_field(np.random.default_rng(s), base) for s in (5, 6, 7))
        coord = CayleyCoordinate(base, k)
        assert coord.form is None
        assert calls == ["mat_inv"]  # 1 - K^2, inverted once, at construction
        cayley_to_acs(coord)
        pushforward(coord, a)
        pushforward(coord, b)
        assert calls == ["mat_inv"]
        assert not coord.resolvent.flags.writeable
        assert not coord.square_resolvent.flags.writeable
        eye = np.eye(4)
        square = mat_inv_guarded(eye - k.ops @ k.ops)
        assert np.array_equal(coord.square_resolvent, square)
        assert np.array_equal(coord.resolvent, (eye + k.ops) @ square)
        # at J_std, once in complex form
        j0 = standard_acs_field(base.space)
        coord = CayleyCoordinate(j0, random_tangent_field(np.random.default_rng(5), j0))
        assert coord.form is not None
        cayley_to_acs(coord)
        pushforward(coord, random_tangent_field(np.random.default_rng(6), j0))
        assert calls == ["mat_inv", "complex_inverse"]
        assert not coord.resolvent.flags.writeable


class TestCayleyMaps:
    def test_origin_maps_to_base(self):
        c = point(J2, np.zeros((2, 2)))
        assert np.array_equal(cayley_to_acs(c)[0], J2)

    def test_diagonal_oracle(self):
        # K = diag(1/2, -1/2): (1+K)(1-K)^{-1} = diag(3, 1/3)
        c = point(J2, np.diag([0.5, -0.5]))
        assert_allclose(cayley_to_acs(c)[0], [[0.0, -1.0 / 3.0], [3.0, 0.0]],
                        rtol=1e-15, atol=1e-16)

    def test_offdiagonal_oracle(self):
        c = point(J2, np.array([[0.0, 0.5], [0.5, 0.0]]))
        expected = np.array([[-4.0, -5.0], [5.0, 4.0]]) / 3.0
        assert_allclose(cayley_to_acs(c)[0], expected, rtol=1e-14)

    def test_roundtrip_from_acs(self):
        c = point(J2, np.diag([0.5, -0.5]))
        back = acs_to_cayley(c.base, structure(cayley_to_acs(c)))
        assert_allclose(back[0], np.diag([0.5, -0.5]), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
    def test_roundtrip_property(self, seed, dim):
        k = anticommuting(seed, dim)
        c = point(standard_acs(dim), k)
        j = cayley_to_acs(c)
        assert max_abs(j @ j + np.eye(dim)) < 1e-12
        assert max_abs(acs_to_cayley(c.base, structure(j)) - k) < 1e-11

    def test_exp_chart_origin(self):
        assert np.array_equal(exp_chart(np.zeros((2, 2))), J2)

    def test_exp_chart_output_is_acs(self):
        for seed in range(5):
            k = anticommuting(seed, 4)
            j = exp_chart(k)
            assert max_abs(j @ j + np.eye(4)) < 1e-10


class TestPushPull:
    def test_pushforward_oracle(self):
        # K = diag(1/2,-1/2), A = diag(1,-1): 2 J0 (1-K)^{-1} A (1-K)^{-1}
        c = point(J2, np.diag([0.5, -0.5]))
        a_star = pushforward(c, tangent(c.base, np.diag([1.0, -1.0])))
        assert_allclose(a_star[0], [[0.0, 8.0 / 9.0], [8.0, 0.0]], rtol=1e-15)

    def test_pullback_inverts_pushforward(self):
        # the pullback -(1/2) (1 - K) J0 a* (1 - K) undoes the pushforward
        j0 = standard_acs(4)
        for seed in range(5):
            k = anticommuting(seed, 4, bound=0.8)
            a = anticommuting(seed + 100, 4)
            c = point(j0, k)
            eye_k = np.eye(4) - k
            pulled = -0.5 * eye_k @ j0 @ pushforward(c, tangent(c.base, a))[0] @ eye_k
            assert max_abs(pulled - a) < 1e-12

    def test_pushforward_intertwines(self):
        # the defining identity: push(A J0) = push(A) J_K
        for seed in range(5):
            k = anticommuting(seed, 4, bound=0.8)
            a = anticommuting(seed + 50, 4)
            j0 = standard_acs(4)
            c = point(j0, k)
            jk = cayley_to_acs(c)
            assert max_abs(pushforward(c, tangent(c.base, a @ j0))
                           - pushforward(c, tangent(c.base, a)) @ jk) < 1e-12

    def test_pushforward_anticommutes_with_target(self):
        k = anticommuting(3, 4, bound=0.8)
        a = anticommuting(4, 4)
        c = point(standard_acs(4), k)
        jk = cayley_to_acs(c)
        a_star = pushforward(c, tangent(c.base, a))
        assert max_abs(a_star @ jk + jk @ a_star) < 1e-12

    def test_maps_refuse_fields_of_another_space(self):
        c = point(J2, np.zeros((2, 2)))
        other = structure(J2, 2)
        for call in (lambda: pushforward(c, tangent(other, np.zeros((2, 2, 2)))),
                     lambda: acs_to_cayley(c.base, other), lambda: acs_to_cayley(other, c.base)):
            with pytest.raises(DimensionMismatch, match="different sample spaces"):
                call()


class TestChartTransition:
    """The coordinate of a structure in the chart at another base j1 is
    acs_to_cayley(j1, cayley_to_acs(coord))."""

    def test_scalar_analog(self):
        # commuting diagonal blocks behave like scalar Cayley parameters:
        # moving the chart center from 0 to b sends k to (k-b)/(1-kb)
        k0, b = 0.5, 0.2
        j1 = structure(cayley_to_acs(point(J2, np.diag([b, -b]))))
        moved = acs_to_cayley(j1, structure(cayley_to_acs(point(J2, np.diag([k0, -k0])))))
        expected = (k0 - b) / (1.0 - k0 * b)
        assert_allclose(moved[0], np.diag([expected, -expected]), rtol=1e-14)
        assert_allclose(expected, 1.0 / 3.0, rtol=1e-15)

    def test_identity_transition(self):
        k = anticommuting(8, 4, bound=0.7)
        coord = point(standard_acs(4), k)
        moved = acs_to_cayley(structure(standard_acs(4)), structure(cayley_to_acs(coord)))
        assert max_abs(moved - k) < 1e-12


class TestRandomAnticommuting:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_anticommutes_and_bounded(self, dim):
        rng = np.random.default_rng(21)
        j0 = standard_acs(dim)
        for _ in range(10):
            k = random_anticommuting(rng, j0, bound=0.9)
            assert max_abs(k @ j0 + j0 @ k) < 1e-13
            assert max(abs(np.linalg.eigvals(k))) <= 0.9 + 1e-12

    def test_parts(self):
        rng = np.random.default_rng(22)
        j0 = standard_acs(4)
        sym = random_anticommuting(rng, j0, part="symmetric")
        assert max_abs(sym - sym.T) < 1e-13
        skew = random_anticommuting(rng, j0, part="antisymmetric")
        assert max_abs(skew + skew.T) < 1e-13
        assert max_abs(skew) > 0.0

    def test_deterministic(self):
        a = random_anticommuting(np.random.default_rng(5), standard_acs(4))
        b = random_anticommuting(np.random.default_rng(5), standard_acs(4))
        assert np.array_equal(a, b)


class TestStacks:
    """Chart maps on a (points, n, n) stack give, slice for slice, the bits
    of the single-matrix call."""

    @staticmethod
    def draws(dim, points=6, seed=31, bound=0.9):
        rng = np.random.default_rng(seed)
        j0 = standard_acs(dim)
        return j0, np.stack([random_anticommuting(rng, j0, bound=bound)
                             for _ in range(points)])

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_cayley_maps_and_pushforward(self, dim):
        j0, k = self.draws(dim)
        _, a = self.draws(dim, seed=32)
        coord = point(j0, k)
        assert coord.dim == dim
        j = cayley_to_acs(coord)
        singles = [point(j0, m) for m in k]
        assert np.array_equal(j, np.concatenate([cayley_to_acs(c) for c in singles]))
        assert np.array_equal(acs_to_cayley(coord.base, structure(j)),
                              np.concatenate([acs_to_cayley(c.base, structure(m))
                                              for c, m in zip(singles, j)]))
        assert np.array_equal(pushforward(coord, tangent(coord.base, a)),
                              np.concatenate([pushforward(c, tangent(c.base, x))
                                              for c, x in zip(singles, a)]))

    @pytest.mark.parametrize("part", [None, "symmetric", "antisymmetric"])
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_random_anticommuting_same_stream(self, dim, part):
        j0 = standard_acs(dim)
        stacked = random_anticommuting(np.random.default_rng(33), np.tile(j0, (9, 1, 1)),
                                       part=part)
        rng = np.random.default_rng(33)
        sliced = np.stack([random_anticommuting(rng, j0, part=part) for _ in range(9)])
        assert np.array_equal(stacked, sliced)

    @pytest.mark.parametrize("part", [None, "symmetric", "antisymmetric"])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_shape_anticommuting_stack_equals_slices(self, dim, part):
        # j0 broadcasts over a (cases, count, n, n) stack of raw draws
        j0 = standard_acs(dim)
        raw = np.random.default_rng(36).uniform(-1.0, 1.0, (5, 2, dim, dim))
        stacked = shape_anticommuting(raw, j0, part=part, bound=0.7)
        sliced = np.stack([[shape_anticommuting(m, j0, part=part, bound=0.7) for m in row]
                           for row in raw])
        assert np.array_equal(stacked, sliced)
        tiled = shape_anticommuting(raw, np.tile(j0, (5, 2, 1, 1)), part=part, bound=0.7)
        assert np.array_equal(stacked, tiled)

    def test_zero_part_rescales_without_warning(self):
        # the antisymmetric part is {0} at dim 2, so every norm is zero
        space = random_sample_space(np.random.default_rng(34), 2, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = random_tangent_field(np.random.default_rng(35), standard_acs_field(space),
                                     part="antisymmetric")
        assert np.array_equal(k.ops, np.zeros_like(k.ops))
