import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from acsgeom import charts
from acsgeom.charts import (
    CayleyCoordinate,
    acs_to_cayley,
    anticommute_project,
    cayley_to_acs,
    chart_transition,
    pullback,
    pushforward,
    random_anticommuting,
    shape_anticommuting,
    standard_acs,
)
from acsgeom.errors import AnticommutationViolation, SingularOperator
from acsgeom.fiber import mat_inv_guarded, max_abs
from acsgeom.geometry import geodesic_ambient
from acsgeom.structures import (
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
    def test_fixes_anticommuting_input(self):
        k = np.array([[0.3, 0.1], [0.1, -0.3]])
        assert np.array_equal(anticommute_project(k, J2), k)

    def test_kills_commuting_input(self):
        # J0 itself commutes with J0
        assert max_abs(anticommute_project(J2, J2)) == 0.0

    def test_output_anticommutes(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 6):
            j0 = standard_acs(dim)
            b = rng.uniform(-1, 1, size=(dim, dim))
            m = anticommute_project(b, j0)
            assert max_abs(m @ j0 + j0 @ m) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(-1, 1, size=(4, 4))
        j0 = standard_acs(4)
        once = anticommute_project(b, j0)
        assert max_abs(anticommute_project(once, j0) - once) < 1e-15


class TestCayleyCoordinate:
    def test_rejects_commuting_k(self):
        with pytest.raises(AnticommutationViolation):
            CayleyCoordinate(J2, np.eye(2))

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            CayleyCoordinate(np.eye(2), np.zeros((2, 2)))

    def test_rejects_chart_boundary(self):
        # 1 - K singular at spectral radius 1
        with pytest.raises(SingularOperator):
            CayleyCoordinate(J2, np.diag([1.0, -1.0]))

    def test_dim(self):
        c = CayleyCoordinate(standard_acs(4), np.zeros((4, 4)))
        assert c.dim == 4

    def test_chart_map_and_differential_share_one_inverse(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(None)
            return mat_inv_guarded(a)

        monkeypatch.setattr(charts, "mat_inv_guarded", counted)
        j0 = np.tile(standard_acs(4), (3, 1, 1))
        k = random_anticommuting(np.random.default_rng(5), j0)
        a, b = (random_anticommuting(np.random.default_rng(s), j0) for s in (6, 7))
        coord = CayleyCoordinate(j0, k)
        assert len(calls) == 1  # computed once, at construction
        cayley_to_acs(coord)
        pushforward(coord, a)
        pushforward(coord, b)
        assert len(calls) == 1
        assert not coord.resolvent.flags.writeable
        assert np.array_equal(coord.resolvent, mat_inv_guarded(np.eye(4) - k))


class TestCayleyMaps:
    def test_origin_maps_to_base(self):
        c = CayleyCoordinate(J2, np.zeros((2, 2)))
        assert np.array_equal(cayley_to_acs(c), J2)

    def test_diagonal_oracle(self):
        # K = diag(1/2, -1/2): (1+K)(1-K)^{-1} = diag(3, 1/3)
        c = CayleyCoordinate(J2, np.diag([0.5, -0.5]))
        assert_allclose(cayley_to_acs(c), [[0.0, -1.0 / 3.0], [3.0, 0.0]],
                        rtol=1e-15, atol=1e-16)

    def test_offdiagonal_oracle(self):
        c = CayleyCoordinate(J2, np.array([[0.0, 0.5], [0.5, 0.0]]))
        expected = np.array([[-4.0, -5.0], [5.0, 4.0]]) / 3.0
        assert_allclose(cayley_to_acs(c), expected, rtol=1e-14)

    def test_roundtrip_from_acs(self):
        j = cayley_to_acs(CayleyCoordinate(J2, np.diag([0.5, -0.5])))
        back = acs_to_cayley(J2, j)
        assert_allclose(back.K, np.diag([0.5, -0.5]), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
    def test_roundtrip_property(self, seed, dim):
        k = anticommuting(seed, dim)
        j0 = standard_acs(dim)
        j = cayley_to_acs(CayleyCoordinate(j0, k))
        assert max_abs(j @ j + np.eye(dim)) < 1e-12
        assert max_abs(acs_to_cayley(j0, j).K - k) < 1e-11

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
        c = CayleyCoordinate(J2, np.diag([0.5, -0.5]))
        a_star = pushforward(c, np.diag([1.0, -1.0]))
        assert_allclose(a_star, [[0.0, 8.0 / 9.0], [8.0, 0.0]], rtol=1e-15)

    def test_pullback_inverts_pushforward(self):
        for seed in range(5):
            k = anticommuting(seed, 4, bound=0.8)
            a = anticommuting(seed + 100, 4)
            c = CayleyCoordinate(standard_acs(4), k)
            assert max_abs(pullback(c, pushforward(c, a)) - a) < 1e-12

    def test_pushforward_intertwines(self):
        # the defining identity: push(A J0) = push(A) J_K
        for seed in range(5):
            k = anticommuting(seed, 4, bound=0.8)
            a = anticommuting(seed + 50, 4)
            j0 = standard_acs(4)
            c = CayleyCoordinate(j0, k)
            jk = cayley_to_acs(c)
            assert max_abs(pushforward(c, a @ j0)
                           - pushforward(c, a) @ jk) < 1e-12

    def test_pushforward_anticommutes_with_target(self):
        k = anticommuting(3, 4, bound=0.8)
        a = anticommuting(4, 4)
        c = CayleyCoordinate(standard_acs(4), k)
        jk = cayley_to_acs(c)
        a_star = pushforward(c, a)
        assert max_abs(a_star @ jk + jk @ a_star) < 1e-12


class TestChartTransition:
    def test_scalar_analog(self):
        # commuting diagonal blocks behave like scalar Cayley parameters:
        # moving the chart center from 0 to b sends k to (k-b)/(1-kb)
        k0, b = 0.5, 0.2
        coord1 = CayleyCoordinate(J2, np.diag([b, -b]))
        j1 = cayley_to_acs(coord1)
        coord = CayleyCoordinate(J2, np.diag([k0, -k0]))
        moved = chart_transition(coord, j1)
        expected = (k0 - b) / (1.0 - k0 * b)
        assert_allclose(moved, np.diag([expected, -expected]), rtol=1e-14)
        assert_allclose(expected, 1.0 / 3.0, rtol=1e-15)

    def test_agrees_with_composed_route(self):
        for seed in range(5):
            j0 = standard_acs(4)
            k = anticommuting(seed, 4, bound=0.6)
            b = anticommuting(seed + 20, 4, bound=0.3)
            j1 = cayley_to_acs(CayleyCoordinate(j0, b))
            coord = CayleyCoordinate(j0, k)
            direct = chart_transition(coord, j1)
            composed = acs_to_cayley(j1, cayley_to_acs(coord)).K
            assert max_abs(direct - composed) < 1e-11

    def test_identity_transition(self):
        k = anticommuting(8, 4, bound=0.7)
        coord = CayleyCoordinate(standard_acs(4), k)
        assert max_abs(chart_transition(coord, standard_acs(4)) - k) < 1e-12


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
        base = np.tile(j0, (len(k), 1, 1))
        coord = CayleyCoordinate(base, k)
        assert coord.dim == dim
        j = cayley_to_acs(coord)
        assert np.array_equal(j, np.stack([cayley_to_acs(CayleyCoordinate(j0, m))
                                           for m in k]))
        assert np.array_equal(acs_to_cayley(base, j).K,
                              np.stack([acs_to_cayley(j0, m).K for m in j]))
        singles = [CayleyCoordinate(j0, m) for m in k]
        assert np.array_equal(pushforward(coord, a),
                              np.stack([pushforward(c, x) for c, x in zip(singles, a)]))
        assert np.array_equal(pullback(coord, a),
                              np.stack([pullback(c, x) for c, x in zip(singles, a)]))
        _, k1 = self.draws(dim, seed=33, bound=0.3)  # new centers near J0
        j1 = cayley_to_acs(CayleyCoordinate(base, k1))
        assert np.array_equal(chart_transition(coord, j1),
                              np.stack([chart_transition(c, m) for c, m in zip(singles, j1)]))

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
