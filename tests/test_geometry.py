import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from acsgeom import verify
from acsgeom.charts import CayleyCoordinate, acs_to_cayley, random_anticommuting, standard_acs
from acsgeom.errors import (
    AnticommutationViolation,
    DimensionMismatch,
    GeometryError,
    InvalidStructure,
    NonFiniteValue,
    SingularOperator,
)
from acsgeom.fiber import mat_exp, mat_inv_guarded, max_abs
from acsgeom.geometry import (
    ChartField,
    acs_on_tangent,
    ambient_inner_terms,
    ambient_omega_terms,
    chart_inner,
    chart_omega,
    chart_origin,
    christoffel,
    curvature,
    geodesic_ambient,
    geodesic_chart,
    point_order_sum,
    shifted,
)
from acsgeom.structures import (
    AcsField,
    SampleSpace,
    TangentField,
    load_bundle,
    random_sample_space,
    random_tangent_field,
    standard_acs_field,
)


def one_point_space():
    return SampleSpace(2, np.ones(1))


def ambient_inner(j, a, b):
    """(A, B) at J: sum of w_i tr(A_i B_i)."""
    return point_order_sum(ambient_inner_terms(j, a.ops, b.ops))


def ambient_omega(j, a, b):
    """Omega(A, B) at J: sum of w_i tr(A_i J_i B_i)."""
    return point_order_sum(ambient_omega_terms(j, a.ops, b.ops))


def tangent(space, j, *mats):
    return TangentField(space, j, np.stack([np.asarray(m, dtype=float)
                                            for m in mats]))


@pytest.fixture
def flat2():
    """Single point, weight 1, standard base, K = diag(1/2, -1/2)."""
    space = one_point_space()
    j = standard_acs_field(space)
    k = tangent(space, j, np.diag([0.5, -0.5]))
    return space, j, ChartField(space, j, k)


@pytest.fixture
def origin2():
    space = one_point_space()
    j = standard_acs_field(space)
    return space, j, chart_origin(j)


A_DIAG = np.diag([1.0, -1.0])
B_OFF = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestChartField:
    def test_validates_per_point(self):
        space = one_point_space()
        j = standard_acs_field(space)
        # boundary of the chart: 1 - K singular
        k = tangent(space, j, np.diag([1.0, -1.0]))
        with pytest.raises(SingularOperator):
            ChartField(space, j, k)

    def test_base_not_acs_is_geometry_error(self):
        # AcsField checks shape and finiteness only, so J^2 != -1 reaches
        # the chart, which must refuse it with an error the CLI reports
        space = one_point_space()
        j = AcsField(space, np.array([[[0.5, -1.0], [1.0, 0.0]]]))
        k = tangent(space, j, np.zeros((2, 2)))
        with pytest.raises(GeometryError, match="square to -identity") as info:
            ChartField(space, j, k)
        assert isinstance(info.value, InvalidStructure) and isinstance(info.value, ValueError)

    def test_resolvents_at_origin(self, origin2):
        space, j, c = origin2
        assert_allclose(c.resolvents(), np.tile(np.eye(2), (1, 1, 1)),
                        atol=1e-15)

    def test_frozen_with_resolvents_computed_once(self, flat2):
        space, j, c = flat2
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.K = c.K
        assert c.resolvents() is c.resolvents()
        assert not c.resolvents().flags.writeable
        assert_allclose(c.resolvents()[0], np.diag([4.0 / 3.0, 4.0 / 3.0]), rtol=1e-15)

    def test_coord_holds_base_and_coordinate(self, flat2):
        space, j, c = flat2
        assert isinstance(c.coord, CayleyCoordinate)
        assert c.coord.base is j and c.coord.K is c.K

    def test_builds_its_chart_point_through_the_constructor(self, flat2, monkeypatch):
        # one construction path, whose __post_init__ checks the chart domain
        # and which a tracer of the constructor sees, for every chart field
        built, original = [], CayleyCoordinate.__post_init__

        def counted(point):
            built.append(point)
            original(point)

        monkeypatch.setattr(CayleyCoordinate, "__post_init__", counted)
        space, j, c = flat2
        points = [shifted(c, tangent(space, j, B_OFF), 1e-3).coord,
                  ChartField(space, j, c.K).coord, chart_origin(j).coord]
        assert len(built) == 3 and all(b is p for b, p in zip(built, points))

    def test_shifted_is_linear_move(self, flat2):
        space, j, c = flat2
        a = tangent(space, j, B_OFF)
        moved = shifted(c, a, 1e-3)
        assert np.array_equal(moved.K.ops, c.K.ops + 1e-3 * a.ops)

    def test_space_mismatch(self):
        s1 = SampleSpace(2, np.ones(1))
        s2 = SampleSpace(2, np.ones(2))
        j1, j2 = standard_acs_field(s1), standard_acs_field(s2)
        a = tangent(s1, j1, A_DIAG)
        b = TangentField(s2, j2, np.tile(A_DIAG, (2, 1, 1)))
        with pytest.raises(DimensionMismatch):
            chart_inner(chart_origin(j1), a, b)


def one_point_field(base, k):
    """A chart field at one point; K is not checked, so the chart's own
    domain checks are the first to see it."""
    space = SampleSpace(base.shape[-1], np.ones(1))
    j = AcsField(space, base[None])
    return space, j, TangentField.derived(j, np.asarray(k, dtype=float)[None])


def refusal(make):
    """(class, message) of the error ``make()`` raises."""
    with pytest.raises(GeometryError) as info:
        make()
    return type(info.value), str(info.value)


class TestChartFieldResolvents:
    """A chart field inverts 1 - K^2 once and derives (1 - K)^{-1} from it."""

    # J0 = P J_std P^{-1}, non-orthogonal for conjugated=True
    @pytest.mark.parametrize("conjugated", [False, True])
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_derived_resolvent_is_the_direct_inverse(self, dim, conjugated):
        rng = np.random.default_rng(dim)
        p = np.eye(dim) + (0.3 * rng.uniform(-1.0, 1.0, (dim, dim)) if conjugated else 0.0)
        j0 = p @ standard_acs(dim) @ np.linalg.inv(p)
        space = SampleSpace(dim, np.ones(64))
        j = AcsField(space, np.tile(j0, (64, 1, 1)))
        # K = P K_std P^{-1}, spectral radius up to 0.999 for the last draws
        k_std = np.concatenate([random_anticommuting(rng, np.tile(standard_acs(dim), (16, 1, 1)),
                                                     bound=b) for b in (0.5, 0.9, 0.99, 0.999)])
        k = TangentField.derived(j, p @ k_std @ np.linalg.inv(p))
        c = ChartField(space, j, k)
        eye = np.eye(dim)
        direct, s = mat_inv_guarded(eye - k.ops), c.resolvents()
        # each inverse is within n eps kappa_F of the exact one, so the two
        # differ by at most the sum of the derived route's bound
        # (kappa_F(1 - K^2) ||1 + K||_F ||S||_F, from S and the product) and
        # the direct one's (kappa_F(1 - K) ||(1 - K)^{-1}||_F)
        norm = lambda m: np.linalg.norm(m, axis=(-2, -1))
        bound = dim * np.finfo(float).eps * (
            norm(eye - k.ops @ k.ops) * norm(s) * norm(eye + k.ops) * norm(s)
            + norm(eye - k.ops) * norm(direct) * norm(direct))
        assert (norm(c.coord.resolvent - direct) <= bound).all()
        assert not c.coord.resolvent.flags.writeable
        square = eye - k.ops @ k.ops
        # off J_std the real route keeps the bits of the guarded inverse; at
        # J_std the complex form is within kappa_F 64 eps n of it
        assert (c.coord.form is None) == conjugated
        if conjugated:
            assert np.array_equal(s, mat_inv_guarded(square))
        else:
            real = mat_inv_guarded(square)
            assert (norm(s - real) <= 64 * dim * np.finfo(float).eps
                    * norm(square) * norm(real) * norm(real)).all()

    def test_functionals_read_the_guarded_inverse_of_1_minus_k2(self):
        # at a base off J_std, where the chart point and the functionals
        # take the real route (at J_std they read the complex form)
        rng = np.random.default_rng(3)
        space = random_sample_space(rng, 4, 8)
        p = np.eye(4) + 0.3 * rng.uniform(-1.0, 1.0, (4, 4))
        j = AcsField(space, np.tile(p @ standard_acs(4) @ np.linalg.inv(p), (8, 1, 1)))
        k, a, b, d = (random_tangent_field(rng, j) for _ in range(4))
        c = ChartField(space, j, k)
        assert c.coord.form is None
        s = mat_inv_guarded(np.eye(4) - k.ops @ k.ops)
        # the same chart point with the resolvents inverted directly
        direct = dataclasses.replace(c)
        object.__setattr__(direct, "resolvents", lambda: s)
        assert direct.resolvents() is s and c.resolvents() is not s
        for f, args in ((christoffel, (a, b)), (curvature, (a, b, d))):
            assert np.array_equal(f(c, *args).ops, f(direct, *args).ops)
        for f in (chart_inner, chart_omega):
            assert f(c, a, b) == f(direct, a, b)

    def test_refusal_order(self):
        j2, j4 = standard_acs(2), standard_acs(4)
        eye2, eye4 = np.eye(2), np.eye(4)

        def chart(base, k):
            return lambda: ChartField(*one_point_field(base, k))

        # J0^2 = -1 first for a K made at the chart's base: K = 1 fails
        # that and the invertibility of 1 - K^2 = 0
        assert refusal(chart(np.array([[0.5, -1.0], [1.0, 0.0]]), eye2)) == (
            InvalidStructure, "base does not square to -identity")
        # a K made at another base field is remade at this one, which checks
        # its anticommutation (one made at its own base was checked there, or
        # derived, unchecked), before J0^2 = -1
        anticommutation = (AnticommutationViolation,
                           "tangent ops fail to anticommute with the base, residual 2.000e+00")
        space, j, k = one_point_field(j2, eye2)
        other = AcsField(space, j.ops.copy())
        assert refusal(lambda: ChartField(space, j, TangentField.derived(other, k.ops))) == (
            anticommutation)
        bad = AcsField(space, np.array([[[0.5, -1.0], [1.0, 0.0]]]))
        assert refusal(lambda: ChartField(space, bad, TangentField.derived(other, k.ops))) == (
            anticommutation)
        assert refusal(chart(j2, eye2)) == refusal(lambda: mat_inv_guarded(eye2 - eye2))
        # a base whose square overflows is refused, from the chart field's
        # kept residual
        huge_base = np.array([[1e200, 1e200], [-1e200, 0.0]])
        assert refusal(chart(huge_base, np.zeros((2, 2)))) == (
            InvalidStructure, "base does not square to -identity")
        # then 1 - K: exactly singular, or past the cap while 1 - K^2 is too
        singular = np.diag([1.0, -1.0])
        assert refusal(chart(j2, singular)) == refusal(lambda: mat_inv_guarded(eye2 - singular))
        d = 2.0 ** -43  # 1 - K^2 = diag(2d, 2d, 1, 1), exactly
        both = np.diag([1.0 - d, d - 1.0, 0.0, 0.0])
        kind, message = refusal(chart(j4, both))
        assert (kind, message) == refusal(lambda: mat_inv_guarded(eye4 - both))
        assert (kind, message) != refusal(lambda: mat_inv_guarded(eye4 - both @ both))
        # then 1 - K^2, when only it is past the cap: K anticommutes with J0
        # within 5.8e-11, and has eigenvalues near -1 and 1 at different distances
        square = np.diag([2.0 ** -50 - 1.0, 1.0 - 2.0 ** -34, 0.0, 0.0])
        kind, message = refusal(chart(j4, square))
        assert (kind, message) == refusal(lambda: mat_inv_guarded(eye4 - square @ square))
        # and so does the real route, at a base off J_std (the sign of one
        # block flipped) for which the same diagonal K anticommutes as well
        flip = np.diag([1.0, -1.0, 1.0, 1.0])
        assert refusal(chart(flip @ j4 @ flip, square)) == (kind, message)
        # an overflowing K^2 is refused as non-finite, after 1 - K's guard
        huge = np.diag([1e200, -1e200])
        assert refusal(chart(j2, huge)) == (NonFiniteValue, "matrix entries must be finite")
        ill = np.diag([1e200, -1e200, 0.0, 0.0])
        assert refusal(chart(j4, ill)) == refusal(lambda: mat_inv_guarded(eye4 - ill))

    @pytest.mark.parametrize("standard", [True, False])
    def test_a_coordinate_from_another_base_is_remade_once(self, standard, monkeypatch):
        # K made at an equal but distinct base field: the chart field remakes
        # it at its own base, one TangentField check, and then computes the
        # bits of a K made at the base, on the complex route at J_std and on
        # the real route off it
        rng = np.random.default_rng(11)
        space = random_sample_space(rng, 4, 6)
        j = standard_acs_field(space)
        if not standard:
            p = np.eye(4) + 0.3 * rng.uniform(-1.0, 1.0, (4, 4))
            j = AcsField(space, np.tile(p @ standard_acs(4) @ np.linalg.inv(p), (6, 1, 1)))
        other = AcsField(space, j.ops.copy())
        k, a, b, d = (random_tangent_field(rng, j) for _ in range(4))
        foreign = TangentField(space, other, k.ops)
        checks = []
        check = TangentField.__post_init__
        monkeypatch.setattr(TangentField, "__post_init__",
                            lambda self: (checks.append(self), check(self))[1])
        at_base = ChartField(space, j, k)
        assert checks == [] and at_base.K is k
        remade = ChartField(space, j, foreign)
        assert len(checks) == 1 and checks[0] is remade.K
        assert remade.K.base is remade.base and remade.K is not foreign
        assert (remade.coord.form is None) == (at_base.coord.form is None) == (not standard)
        assert np.array_equal(remade.resolvents(), at_base.resolvents())
        for f, args in ((christoffel, (a, b)), (curvature, (a, b, d))):
            assert np.array_equal(f(remade, *args).ops, f(at_base, *args).ops)
        for f in (chart_inner, chart_omega):
            assert bits(f(remade, a, b)) == bits(f(at_base, a, b))


def loop_sum(terms) -> float:
    """The left-to-right loop from 0.0 that point_order_sum replaces."""
    total = 0.0
    for term in terms:
        total += term
    return total


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324])


class TestPointOrderSum:
    """The stacked sum has the bits of the loop: signed zeros, NaN, +-inf,
    inf - inf and overflow included, with no warning."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), SPECIAL), min_size=1, max_size=3),
           st.integers(1, 40))
    @example([-0.0], 1)
    @example([-0.0], 7)
    @example([math.nan], 3)
    @example([math.inf, -math.inf], 2)
    @example([-math.inf], 5)
    @example([1e308, 1e308, -1e308], 1)
    def test_bits_of_the_loop(self, cycle, repeats):
        terms = np.array(cycle * repeats)
        got = point_order_sum(terms)
        assert type(got) is float
        assert bits(got) == bits(loop_sum(terms.tolist()))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.floats(), SPECIAL), min_size=4, max_size=4),
                    min_size=1, max_size=5))
    @example([[-0.0] * 4, [math.nan] * 4, [math.inf] * 4, [-math.inf] * 4])
    def test_rows_have_the_bits_of_one_loop_each(self, rows):
        got = point_order_sum(np.array(rows))
        assert got.shape == (len(rows),)
        assert [bits(x) for x in got.tolist()] == [bits(loop_sum(r)) for r in rows]


class TestAmbientOps:
    def test_inner_trace_value(self, origin2):
        space, j, _ = origin2
        a = tangent(space, j, A_DIAG)
        assert ambient_inner(j, a, a) == 2.0

    def test_inner_weights(self):
        space = SampleSpace(2, np.array([2.0, 3.0]))
        j = standard_acs_field(space)
        a = TangentField(space, j, np.tile(A_DIAG, (2, 1, 1)))
        assert ambient_inner(j, a, a) == 10.0

    def test_acs_on_tangent_squares_to_minus_one(self, origin2):
        space, j, _ = origin2
        a = tangent(space, j, A_DIAG)
        jja = acs_on_tangent(acs_on_tangent(a, j), j)
        assert np.array_equal(jja.ops, -a.ops)

    def test_omega_is_inner_with_j(self, origin2):
        space, j, _ = origin2
        a = tangent(space, j, A_DIAG)
        b = tangent(space, j, B_OFF)
        assert ambient_omega(j, a, b) == ambient_inner(j, acs_on_tangent(a, j), b)

    def test_omega_antisymmetric(self):
        space = random_sample_space(np.random.default_rng(0), 4, 3)
        j = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(1), j)
        b = random_tangent_field(np.random.default_rng(2), j)
        assert abs(ambient_omega(j, a, b) + ambient_omega(j, b, a)) < 1e-12


class TestChartMetric:
    def test_origin_matches_pushforward_scaling(self, origin2):
        # the chart pairing at K=0 is 4 tr(AB): the differential of the
        # chart map is A -> 2 J0 A, an isometry onto its image up to that 4
        space, j, c = origin2
        a = tangent(space, j, A_DIAG)
        assert chart_inner(c, a, a) == 4.0 * ambient_inner(j, a, a)

    def test_known_value_off_origin(self, flat2):
        space, j, c = flat2
        a = tangent(space, j, A_DIAG)
        assert_allclose(chart_inner(c, a, a), 128.0 / 9.0, rtol=1e-14)

    def test_omega_value_at_origin(self, origin2):
        space, j, c = origin2
        a = tangent(space, j, A_DIAG)
        b = tangent(space, j, B_OFF)
        # 4 tr(A J0 B) with A J0 B = diag(1,-1) J0 B
        assert_allclose(chart_omega(c, a, b),
                        4.0 * np.trace(A_DIAG @ standard_acs(2) @ B_OFF),
                        rtol=1e-15)

    def test_symmetry_and_bilinearity(self):
        space = random_sample_space(np.random.default_rng(3), 4, 4)
        j = standard_acs_field(space)
        k = random_tangent_field(np.random.default_rng(4), j, bound=0.7)
        c = ChartField(space, j, k)
        a = random_tangent_field(np.random.default_rng(5), j)
        b = random_tangent_field(np.random.default_rng(6), j)
        assert abs(chart_inner(c, a, b) - chart_inner(c, b, a)) < 1e-12
        two_a = TangentField(space, j, 2.0 * a.ops)
        assert abs(chart_inner(c, two_a, b) - 2.0 * chart_inner(c, a, b)) < 1e-11


class TestResolventDerivative:
    def test_vanishes_at_origin(self, origin2):
        space, j, c = origin2
        assert max_abs(c.resolvent_derivative(tangent(space, j, B_OFF))) == 0.0

    def test_known_value(self, flat2):
        # K = diag(1/2, -1/2): S = 4/3 and A K + K A = diag(2, 2) for A = diag(2, -2)
        space, j, c = flat2
        ds = c.resolvent_derivative(tangent(space, j, np.diag([2.0, -2.0])))
        assert_allclose(ds[0], np.diag([32.0 / 9.0, 32.0 / 9.0]), rtol=1e-15)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_on_a_ray(self, dim):
        # on K = t A: d/dt (1 - t^2 A^2)^{-1} = S (2t A^2) S
        space = random_sample_space(np.random.default_rng(40 + dim), dim, 3)
        j = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(50 + dim), j, bound=0.5)
        c = ChartField(space, j, TangentField.derived(j, 0.3 * a.ops))
        s = c.resolvents()
        assert_allclose(c.resolvent_derivative(a), s @ (0.6 * a.ops @ a.ops) @ s,
                        rtol=0, atol=1e-15)


class TestChristoffel:
    def test_known_value(self, flat2):
        space, j, c = flat2
        a = tangent(space, j, A_DIAG)
        gamma = christoffel(c, a, a)
        assert_allclose(gamma.ops[0], np.diag([4.0 / 3.0, -4.0 / 3.0]),
                        rtol=1e-15)

    def test_symmetric_in_arguments(self):
        space = random_sample_space(np.random.default_rng(7), 4, 3)
        j = standard_acs_field(space)
        c = ChartField(space, j, random_tangent_field(np.random.default_rng(8), j, bound=0.7))
        a = random_tangent_field(np.random.default_rng(9), j)
        b = random_tangent_field(np.random.default_rng(10), j)
        assert np.array_equal(christoffel(c, a, b).ops, christoffel(c, b, a).ops)

    def test_vanishes_at_origin(self, origin2):
        space, j, c = origin2
        a = tangent(space, j, B_OFF)
        assert max_abs(christoffel(c, a, a).ops) == 0.0


class TestCurvature:
    def test_hand_case_at_origin(self, origin2):
        # A = diag(1,-1), B = offdiagonal: R(A,B)B = diag(-4, 4)
        space, j, c = origin2
        a = tangent(space, j, A_DIAG)
        b = tangent(space, j, B_OFF)
        assert_allclose(curvature(c, a, b, b).ops[0], np.diag([-4.0, 4.0]),
                        atol=1e-14)

    def test_antisymmetry_exact(self):
        space = random_sample_space(np.random.default_rng(11), 4, 3)
        j = standard_acs_field(space)
        c = ChartField(space, j, random_tangent_field(np.random.default_rng(12), j, bound=0.6))
        a = random_tangent_field(np.random.default_rng(13), j)
        b = random_tangent_field(np.random.default_rng(14), j)
        d = random_tangent_field(np.random.default_rng(15), j)
        assert max_abs(curvature(c, a, b, d).ops + curvature(c, b, a, d).ops) == 0.0
        assert max_abs(curvature(c, a, a, d).ops) == 0.0

    def test_first_bianchi(self):
        space = random_sample_space(np.random.default_rng(16), 4, 3)
        j = standard_acs_field(space)
        c = ChartField(space, j, random_tangent_field(np.random.default_rng(17), j, bound=0.6))
        a = random_tangent_field(np.random.default_rng(18), j)
        b = random_tangent_field(np.random.default_rng(19), j)
        d = random_tangent_field(np.random.default_rng(20), j)
        cyc = (curvature(c, a, b, d).ops + curvature(c, b, d, a).ops
               + curvature(c, d, a, b).ops)
        assert max_abs(cyc) < 1e-10

    def test_origin_commutator_form(self, origin2):
        space, j, c = origin2
        a = tangent(space, j, A_DIAG)
        b = tangent(space, j, B_OFF)
        ab = a.ops[0] @ b.ops[0] - b.ops[0] @ a.ops[0]
        nested = ab @ b.ops[0] - b.ops[0] @ ab
        assert_allclose(curvature(c, a, b, b).ops[0], -nested, atol=1e-14)


class TestSectional:
    def test_known_plane(self, origin2):
        space, j, c = origin2
        a = tangent(space, j, A_DIAG)
        b = tangent(space, j, B_OFF)
        # numerator (R(A,B)B, A) = -32, Gram determinant (A,A)(B,B) - (A,B)^2 = 64
        assert_allclose(chart_inner(c, curvature(c, a, b, b), a), -32.0, rtol=1e-14)
        gram = chart_inner(c, a, a) * chart_inner(c, b, b) - chart_inner(c, a, b) ** 2
        assert_allclose(gram, 64.0, rtol=1e-14)


class TestGeodesics:
    def test_chart_matches_scalar_tanh(self):
        # diagonal velocity at dim 2 reduces to the scalar flow tanh(ta/2)
        space = one_point_space()
        j = standard_acs_field(space)
        a = tangent(space, j, np.diag([0.8, -0.8]))
        for t in (0.0, 0.3, 1.0, 2.0):
            k = geodesic_chart(a, t)
            assert_allclose(k.ops[0], np.diag([math.tanh(0.4 * t),
                                               -math.tanh(0.4 * t)]),
                            atol=1e-15)

    def test_starts_at_origin(self):
        space = random_sample_space(np.random.default_rng(25), 4, 3)
        j = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(26), j)
        assert max_abs(geodesic_chart(a, 0.0).ops) == 0.0
        assert np.array_equal(geodesic_ambient(j, a, 0.0).ops, j.ops)

    def test_ambient_closed_form(self):
        # J0 e^A for A = [[0,1],[1,0]]: e^A = [[cosh1, sinh1],[sinh1, cosh1]]
        space = one_point_space()
        j = standard_acs_field(space)
        jt = geodesic_ambient(j, tangent(space, j, B_OFF), 1.0)
        expected = [[-math.sinh(1.0), -math.cosh(1.0)],
                    [math.cosh(1.0), math.sinh(1.0)]]
        assert_allclose(jt.ops[0], expected, rtol=1e-15)

    def test_ambient_is_exponential(self):
        space = one_point_space()
        j = standard_acs_field(space)
        a = tangent(space, j, B_OFF)
        jt = geodesic_ambient(j, a, 1.5)
        assert_allclose(jt.ops[0], standard_acs(2) @ mat_exp(1.5 * B_OFF),
                        rtol=1e-15)

    def test_ambient_stays_acs(self):
        space = random_sample_space(np.random.default_rng(27), 4, 3)
        j = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(28), j)
        for t in (0.5, 1.0, 2.0):
            jt = geodesic_ambient(j, a, t)
            for i in range(space.npoints):
                assert max_abs(jt.ops[i] @ jt.ops[i] + np.eye(4)) < 1e-13

    def test_chart_and_ambient_agree(self):
        space = random_sample_space(np.random.default_rng(29), 4, 3)
        j = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(30), j)
        for t in (0.4, 1.2, 2.0):
            kt = geodesic_chart(a, t)
            jt = geodesic_ambient(j, a, t)
            assert max_abs(acs_to_cayley(j, jt) - kt.ops) < 1e-12

    def test_velocity_at_zero(self):
        # dK/dt at t=0 is A/2 (tanh'(0) = 1 with the half-angle argument)
        space = one_point_space()
        j = standard_acs_field(space)
        a = tangent(space, j, np.diag([0.6, -0.6]))
        h = 1e-6
        kdot = (geodesic_chart(a, h).ops - geodesic_chart(a, -h).ops) / (2 * h)
        assert max_abs(kdot - 0.5 * a.ops) < 1e-10


class TestDerivedTangents:
    """A tangent is checked where a caller builds it; tangents the geometry
    computes from checked ones are not checked again."""

    @pytest.fixture
    def checks(self, monkeypatch):
        counts = {"checks": 0, "draws": 0}
        check, draw = TangentField.__post_init__, verify.random_tangent_field

        def counted_check(self):
            counts["checks"] += 1
            check(self)

        def counted_draw(*args, **kwargs):
            counts["draws"] += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(TangentField, "__post_init__", counted_check)
        monkeypatch.setattr(verify, "random_tangent_field", counted_draw)
        return counts

    def test_derived_sites_run_no_check(self, checks):
        space = random_sample_space(np.random.default_rng(31), 4, 3)
        j = standard_acs_field(space)
        a, b, k = (random_tangent_field(np.random.default_rng(s), j, bound=0.5)
                   for s in (32, 33, 34))
        checks["checks"] = 0
        c = ChartField(space, j, k)
        chart_origin(j)
        shifted(c, a, 1e-3)
        acs_on_tangent(a, j)
        christoffel(c, a, b)
        curvature(c, a, b, a)
        geodesic_chart(a, 0.5)
        verify.geodesic_equation_residual(a, 0.5)
        assert checks["checks"] == 0
        # theorem2 builds its ray from a draw; only the draws are checked
        verify.check_theorem2(dims=(2,), points=2)
        assert checks["draws"] == 8 and checks["checks"] == 8

    def test_caller_made_tangents_are_still_checked(self, tmp_path):
        space = one_point_space()
        j = standard_acs_field(space)
        message = re.escape("tangent ops fail to anticommute with the base, residual 2.000e+00")
        with pytest.raises(AnticommutationViolation, match=f"^{message}$"):
            TangentField(space, j, np.eye(2)[None])
        path = tmp_path / "bad_k.json"
        path.write_text(json.dumps({"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "J": [0, -1, 1, 0], "K": [1, 0, 0, 1]}]}))
        with pytest.raises(AnticommutationViolation, match=f"^{message}$"):
            load_bundle(path)
