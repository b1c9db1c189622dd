"""The chart fields at the standard base in complex form.

At a base that is exactly J_std, a chart point whose K passes the form's
gate computes 1 - K^2, its inverse S and (1 - K)^{-1} on the (n/2) x (n/2)
complex forms of its operators, and the chart functionals read the forms of
their directions.  These tests hold the complex route to the real formulas,
kept here as the oracle, as the parent computed them: within
kappa_F 64 eps n relative error where the route runs, and bit for bit where
it does not (a base off J_std, a K or a direction outside the gate).
"""

import numpy as np
import pytest

from acsgeom import fiber
from acsgeom.charts import random_anticommuting, standard_acs
from acsgeom.errors import GeometryError
from acsgeom.fiber import COMMUTING_GATE, mat_inv, mat_inv_guarded
from acsgeom.geometry import (ChartField, chart_inner, chart_inner_terms, chart_omega,
                              chart_omega_terms, christoffel, curvature)
from acsgeom.structures import AcsField, SampleSpace, TangentField

EPS = np.finfo(float).eps


def norm(m):
    return np.linalg.norm(m, axis=(-2, -1))


def real_chart(k):
    """1 - K^2, its inverse and (1 - K)^{-1} as the real route computes them."""
    eye = np.eye(k.shape[-1])
    square = eye - k @ k
    s = mat_inv(square)
    return square, s, (eye + k) @ s


def real_guards(k):
    """The real route's domain checks, on the real formulas: 1 - K's guard
    on (1 - K)^{-1}, then 1 - K^2's on its inverse."""
    square, s, resolvent = real_chart(k)
    fiber.guard_inverse(np.eye(k.shape[-1]) - k, resolvent)
    fiber.guard_inverse(square, s)


def real_functionals(w, j, k, square, s, a, b, d):
    """Connection, curvature, pairing and 2-form terms by the real formulas."""
    x, y, z = s @ a, s @ b, s @ d
    xy = x @ y - y @ x
    return {"christoffel": a @ k @ s @ b + b @ k @ s @ a,
            "curvature": -square @ (xy @ z - z @ xy),
            "inner": w * 4.0 * np.trace(s @ a @ s @ b, axis1=-2, axis2=-1),
            "omega": w * 4.0 * np.trace(s @ a @ j @ s @ b, axis1=-2, axis2=-1)}


def chart_functionals(c, a, b, d):
    return {"christoffel": christoffel(c, a, b).ops, "curvature": curvature(c, a, b, d).ops,
            "inner": chart_inner_terms(c, a, b), "omega": chart_omega_terms(c, a, b)}


def fields(dim, points, rng, base=None, bound=0.9):
    """A sample space, a base (J_std, or P J_std P^-1 per point), a K and
    three directions made at that base, each anticommuting with it."""
    space = SampleSpace(dim, rng.uniform(0.5, 1.5, points))
    j_std = np.tile(standard_acs(dim), (points, 1, 1))
    p = np.eye(dim) if base is None else base
    j = AcsField(space, p @ j_std @ np.linalg.inv(p))
    made = [p @ random_anticommuting(rng, j_std, bound=bound) @ np.linalg.inv(p)
            for _ in range(4)]
    return space, j, *(TangentField.derived(j, m) for m in made)


@pytest.mark.parametrize("points", [1, 8, 1000, 1025])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_complex_route_agrees_with_the_real_formulas(dim, points):
    rng = np.random.default_rng(dim * 10_000 + points)
    space, j, k, a, b, d = fields(dim, points, rng)
    c = ChartField(space, j, k)
    assert c.coord.form is not None
    square, s, resolvent = real_chart(k.ops)
    eye = np.eye(dim)
    bound = 64 * dim * EPS * norm(square) * norm(s)  # kappa_F 64 eps n
    assert (norm(c.coord.square - square) <= 4 * dim * EPS * (1.0 + norm(k.ops) ** 2)).all()
    assert (norm(c.resolvents() - s) <= bound * norm(s)).all()
    assert (norm(c.coord.resolvent - resolvent) <= bound * norm(eye + k.ops) * norm(s)).all()
    want = real_functionals(space.weights, j.ops, k.ops, square, s, a.ops, b.ops, d.ops)
    got = chart_functionals(c, a, b, d)
    na, nb, nd, ns = norm(a.ops), norm(b.ops), norm(d.ops), norm(s)
    scale = {"christoffel": 2 * na * norm(k.ops) * ns * nb,
             "curvature": 4 * norm(square) * ns ** 3 * na * nb * nd,
             "inner": 4 * space.weights * ns ** 2 * na * nb,
             "omega": 4 * space.weights * ns ** 2 * na * nb}
    for name, value in want.items():
        error = np.abs(got[name] - value)
        if value.ndim > 1:
            error = norm(got[name] - value)
        assert (error <= bound * scale[name]).all(), name
    # the sums read the same terms
    assert chart_inner(c, a, b) == float(0.0 + np.cumsum(got["inner"])[-1])
    assert chart_omega(c, a, b) == float(0.0 + np.cumsum(got["omega"])[-1])


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_curvature_is_exactly_antisymmetric_on_the_complex_route(dim):
    rng = np.random.default_rng(dim)
    space, j, k, a, b, d = fields(dim, 24, rng)
    c = ChartField(space, j, k)
    assert c.coord.form is not None
    r = curvature(c, a, b, d).ops
    assert np.abs(curvature(c, b, a, d).ops + r).max() == 0.0
    assert np.abs(curvature(c, a, a, d).ops).max() == 0.0
    # Z = Y when d is b: the same bits as a copy of b
    twin = TangentField.derived(j, b.ops.copy())
    assert np.array_equal(curvature(c, a, b, b).ops, curvature(c, a, b, twin).ops)


def test_base_off_the_standard_structure_keeps_the_real_bits():
    rng = np.random.default_rng(5)
    p = np.eye(4) + 0.3 * rng.uniform(-1.0, 1.0, (4, 4))
    space, j, k, a, b, d = fields(4, 64, rng, base=p)
    c = ChartField(space, j, k)
    assert not j.is_standard and c.coord.form is None
    square, s, resolvent = real_chart(k.ops)
    assert np.array_equal(c.coord.square, square)
    assert np.array_equal(c.resolvents(), s)
    assert np.array_equal(c.coord.resolvent, resolvent)
    want = real_functionals(space.weights, j.ops, k.ops, square, s, a.ops, b.ops, d.ops)
    for name, value in chart_functionals(c, a, b, d).items():
        assert np.array_equal(value, want[name]), name
    # one point off J_std by one ulp sends the whole field to the real route
    ops = np.tile(standard_acs(4), (8, 1, 1))
    ops[3, 0, 1] = np.nextafter(-1.0, 0.0)
    assert not AcsField(SampleSpace(4, np.ones(8)), ops).is_standard


def perturbed(m, factor):
    """m with slice 0's anticommuting defect set to ``factor`` times the
    gate: its entry (0, 1), the c of block [[a, c], [b, d]], moved off b."""
    out = m.copy()
    largest = np.abs(out[0]).max()
    out[0, 0, 1] = out[0, 1, 0] + factor * COMMUTING_GATE * largest
    assert np.abs(out[0]).max() == largest
    return out


@pytest.mark.parametrize("dim", [2, 4])
def test_gate_boundary(dim):
    rng = np.random.default_rng(dim + 40)
    space, j, k, a, b, d = fields(dim, 16, rng, bound=0.5)
    # K at twice the gate: the real route, with the real formulas' bits
    outside = TangentField.derived(j, perturbed(k.ops, 2.0))
    c = ChartField(space, j, outside)
    assert outside.antilinear_form is None and c.coord.form is None
    square, s, _ = real_chart(outside.ops)
    assert np.array_equal(c.resolvents(), s)
    want = real_functionals(space.weights, j.ops, outside.ops, square, s, a.ops, b.ops, d.ops)
    for name, value in chart_functionals(c, a, b, d).items():
        assert np.array_equal(value, want[name]), name
    # K at a tenth of it: the complex route
    inside = TangentField.derived(j, perturbed(k.ops, 0.1))
    c = ChartField(space, j, inside)
    assert inside.antilinear_form is not None and c.coord.form is not None
    # a direction at twice the gate takes the real route at a complex chart
    # point, from the point's real resolvents
    a_out = TangentField.derived(j, perturbed(a.ops, 2.0))
    res, kk = c.resolvents(), inside.ops
    assert np.array_equal(christoffel(c, a_out, b).ops, a_out.ops @ kk @ res @ b.ops
                          + b.ops @ kk @ res @ a_out.ops)
    want = real_functionals(space.weights, j.ops, kk, c.coord.square, res, a_out.ops, b.ops,
                            d.ops)
    for name, value in chart_functionals(c, a_out, b, d).items():
        assert np.array_equal(value, want[name]), name
    # and so does an array of directions, or a family with leading axes
    assert np.array_equal(chart_inner_terms(c, a.ops, b.ops),
                          space.weights * 4.0 * np.trace(res @ a.ops @ res @ b.ops,
                                                         axis1=-2, axis2=-1))
    family = np.stack([a.ops, b.ops])
    assert chart_inner_terms(c, family[:, None], family[None]).shape == (2, 2, 16)
    # at a tenth of the gate the direction keeps the complex route
    assert fiber.antilinear_form(perturbed(a.ops, 0.1)) is not None


def refusal(make):
    """(class, message) of the GeometryError ``make()`` raises, or None."""
    try:
        make()
    except GeometryError as exc:
        return type(exc), str(exc)
    return None


def same_refusal(got, want, dim):
    """Both None, or the same class and message, where a refused condition
    estimate agrees to its own rounding: each route reads it from an
    inverse with relative error up to about n eps kappa, which reaches the
    percent level past kappa = 1e13."""
    if got is None or want is None:
        return got == want
    (kind, message), (want_kind, want_message) = got, want
    words, want_words = message.split(), want_message.split()
    if kind is not want_kind or len(words) != len(want_words):
        return False
    if "exceeds cap" not in message:
        return message == want_message
    estimate, want_estimate = float(words[2]), float(want_words[2])
    rel = max(5e-3, 64 * dim * EPS * want_estimate)
    return words[:2] + words[3:] == want_words[:2] + want_words[3:] and \
        abs(estimate - want_estimate) <= rel * want_estimate


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_refusals_as_the_norm_of_k_approaches_1(dim):
    # symmetric K of spectral norm 1 - gap have eigenvalues +-(1 - gap):
    # 1 - K and 1 - K^2 both approach singularity, and 1 - K is refused first
    rng = np.random.default_rng(dim + 80)
    j_std = standard_acs(dim)
    u = random_anticommuting(rng, np.tile(j_std, (4, 1, 1)), part="symmetric", bound=1.0)
    u /= np.linalg.norm(u, 2, axis=(-2, -1), keepdims=True)
    space = SampleSpace(dim, np.ones(4))
    j = AcsField(space, np.tile(j_std, (4, 1, 1)))
    eye = np.eye(dim)
    refused = 0
    for gap in 10.0 ** -np.arange(1.0, 16.0):
        k = TangentField.derived(j, (1.0 - gap) * u)
        assert k.antilinear_form is not None
        complex_route = refusal(lambda: ChartField(space, j, k))
        real_route = refusal(lambda: real_guards(k.ops))
        assert same_refusal(complex_route, real_route, dim), (gap, complex_route, real_route)
        if complex_route is not None:
            assert same_refusal(complex_route, refusal(lambda: mat_inv_guarded(eye - k.ops)), dim)
            refused += 1
        else:
            assert ChartField(space, j, k).coord.form is not None
    assert 0 < refused < 15
