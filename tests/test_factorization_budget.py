"""The number of LAPACK factorizations in one chart op is pinned.

The op is the one the ``field_1000`` benchmark workload repeats, on 16
points instead of 1000: the chart geodesic K(t), the chart field at K(t)
with its connection, curvature, pairing and 2-form, and two ambient
geodesics with their validators.  It makes no LAPACK call, so a change
that adds one has to change this count.  So are three bookkeeping
counts: the orientation markers (the reference field keeps its own), the
``np.linalg.norm`` calls (the guard sums squares with ``np.einsum``) and
the base's J^2 + 1 residuals, which the base field keeps across every
grid time.  The stacked solves of the ``cayley`` and ``theorem1``
checkers are pinned too, and so is the one ``eigvalsh`` of a default
``geodesic`` command, which validates its space's n x n identity metric;
the trace reads only the validators' verdicts, whose positivity a
Cholesky written out in numpy certifies.  Building a chart field admits
no array again, and its only finiteness tests are its two guards'.  Each
velocity builds its Pade basis once: a default ``geodesic`` builds one
for its 45 kernel calls, and a warmed op builds none.  The warmed op makes
one stacked inversion, the chart field's (1 - K^2)^{-1}, and it is a
``complex_inverse`` of the (n/2) x (n/2) complex form P = 1 - Q Q-bar: the
field's base is exactly J_std and its K passes the form's gate, so no
``mat_inv`` runs; its tanh and both exponentials run in the algebra of
A^2, which inverts in closed form.  So do all 984 exponential slices of
a default ``verify`` and all 336 of a default ``geodesic``: the matrix
route is reached by neither.  Each inversion is counted under its
public names in every module that binds them, and at ``fiber._solve``,
the one stacked solve that ``mat_inv``, the exponentials' matrix route
and a complex solve above dim 4 all pass through.  The chart field's
complex products are pinned as well: the functionals share each
direction's S Q and each pair's trace, which the chart point keeps, so
the warmed op makes 14 ``complex_product`` calls and one
``complex_trace``, and ``validate_associated`` forms W J once, so it
makes 2 stacked matmuls.
"""

from collections import Counter

import numpy as np
import pytest

from acsgeom import charts, cli, fiber
from acsgeom import geometry as ge
from acsgeom import structures as st
from acsgeom.verify import check_cayley, check_curvature_fd, check_theorem1

COUNTED = {np.linalg: ("solve", "inv", "svd", "eigvalsh", "cholesky", "norm"),
           st: ("orientation_marker", "pade_basis"),
           fiber: ("pade_basis", "mat_inv", "mat_inv_guarded", "_solve", "complex_inverse"),
           charts: ("mat_inv", "mat_inv_guarded", "complex_inverse", "complex_product"),
           ge: ("complex_product", "complex_trace")}
# per op, once the reference has kept its orientation.  The one stacked
# inversion left (4 before the algebra route: the chart field's, the tanh
# quotient's and each ambient exponential's; 1 mat_inv before the complex
# chart) is the chart field's guarded (1 - K^2)^{-1}, a complex_inverse of
# its complex form at the standard base, with no LAPACK call at dim 4; the
# tanh quotient and the exponentials run in the algebra of A^2 and invert
# in closed form.  validate_associated's positivity is certified by a
# Cholesky written out in numpy, and its min_eig (eigvalsh) no one reads;
# the identity metric's adjoint is a transpose; the marker is the
# orthogonal geodesic's; the three velocities keep their Pade bases.  Of
# the complex products (17 and 2 traces before the chart point kept what
# its functionals share), the chart point makes 2 (Q Q-bar and Q S-bar),
# christoffel 4, curvature 7 (S Q_A and S Q_B, which it keeps, and 5 for
# the brackets and 1 - K^2), chart_inner 1 (X_A S-bar) and its trace, and
# chart_omega none: it reads the trace chart_inner kept
BUDGET = {"solve": 0, "inv": 0, "svd": 0, "eigvalsh": 0, "cholesky": 0, "norm": 0,
          "orientation_marker": 1, "pade_basis": 0,
          "mat_inv": 0, "mat_inv_guarded": 0, "_solve": 0, "complex_inverse": 1,
          "complex_product": 14, "complex_trace": 1}
GRID = np.linspace(0.0, 2.0, 9)


def count_calls(monkeypatch, counted_names, counts):
    """Count into ``counts`` the calls of each module's named functions."""
    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for module, names in counted_names.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


@pytest.fixture
def counted(monkeypatch):
    return count_calls(monkeypatch, COUNTED, dict.fromkeys(BUDGET, 0))


def chart_op(fields, t):
    space, j0, a, b, a_sym, a_anti, w, g = fields
    kt = ge.geodesic_chart(a, t)
    c = ge.ChartField(space, j0, kt)
    ge.christoffel(c, a, b)
    ge.curvature(c, a, b, b)
    ge.chart_inner(c, a, b)
    ge.chart_omega(c, a, b)
    assoc = st.validate_associated(ge.geodesic_ambient(j0, a_sym, t), w)
    orth = st.validate_orthogonal(ge.geodesic_ambient(j0, a_anti, t), g, j0)
    return assoc.passed and orth.passed


def test_warmed_chart_op_keeps_its_factorization_budget(counted):
    rng = np.random.default_rng(0)
    space = st.random_sample_space(rng, 4, 16)
    j0 = st.standard_acs_field(space)
    a, b = st.random_tangent_field(rng, j0), st.random_tangent_field(rng, j0)
    a_sym = st.random_tangent_field(rng, j0, part="symmetric")
    a_anti = st.random_tangent_field(rng, j0, part="antisymmetric")
    fields = (space, j0, a, b, a_sym, a_anti, st.standard_symplectic_field(space),
              space.fiber_metric)
    # warm-up: j0 keeps its orientation, and each velocity its Pade basis
    assert chart_op(fields, 2.0)
    assert counted["pade_basis"] == 3
    counted.update(dict.fromkeys(BUDGET, 0))
    assert chart_op(fields, 1.5)
    assert counted == BUDGET


def test_base_square_residuals_are_computed_once_over_the_grid(monkeypatch):
    rng = np.random.default_rng(1)
    space = st.random_sample_space(rng, 4, 16)
    j0 = st.standard_acs_field(space)
    a, b = st.random_tangent_field(rng, j0), st.random_tangent_field(rng, j0)
    a_sym = st.random_tangent_field(rng, j0, part="symmetric")
    a_anti = st.random_tangent_field(rng, j0, part="antisymmetric")
    fields = (space, j0, a, b, a_sym, a_anti, st.standard_symplectic_field(space),
              space.fiber_metric)
    kept = st.AcsField.__dict__["square_residuals"]
    computed = []
    monkeypatch.setattr(kept, "func", lambda j, f=kept.func: computed.append(j) or f(j))
    for t in GRID:
        assert chart_op(fields, t)
    # the chart fields' base; the ambient geodesics' fields are validated
    # by validate_associated and validate_orthogonal, which read no J^2
    assert computed == [j0]
    assert st.validate_acs(j0).residuals is j0.square_residuals
    assert computed == [j0]


def test_chart_field_admits_nothing_again(monkeypatch):
    # the base and K are fields' admitted stacks; the two finiteness tests
    # are the guards' on their condition estimates
    rng = np.random.default_rng(2)
    space = st.random_sample_space(rng, 4, 16)
    j0 = st.standard_acs_field(space)
    kt = ge.geodesic_chart(st.random_tangent_field(rng, j0), 1.5)
    counts = count_calls(monkeypatch, {np: ("isfinite",), charts: ("as_fiber_matrix",)},
                         {"isfinite": 0, "as_fiber_matrix": 0})
    ge.ChartField(space, j0, kt)
    assert counts == {"isfinite": 2, "as_fiber_matrix": 0}


# every chart point of these checkers sits at J_std and inverts 1 - K^2
# in complex form, by the adjugate at dims 2 and 4; only acs_to_cayley's
# 1 - J J0, which does not commute with J_std, takes a stacked real solve,
# one per dim
@pytest.mark.parametrize("check, solves", [(check_theorem1, 0), (check_cayley, 2)])
def test_chart_checkers_solve_only_what_does_not_commute(counted, check, solves):
    assert check(dims=(2, 4)).passed
    assert counted["solve"] == solves


def test_geodesic_makes_one_eigenvalue_call_on_one_matrix(counted, monkeypatch, capsys):
    # counted from the start of the command: the space's identity metric is
    # one n x n matrix, validated once; the trace reads only the verdicts,
    # and each t's positivity is certified without LAPACK
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: shapes.append(np.shape(m)) or eigvalsh(m))
    assert cli.main(["geodesic"]) == 0
    assert capsys.readouterr().out.count("\n") > 9
    assert shapes == [(4, 4)]
    assert counted["cholesky"] == 0
    # one velocity: 9 times, each with one exponential and four tanh
    assert counted["pade_basis"] == 1


# every exponential slice of a default verify and geodesic (both in the
# cli_default benchmark workload) takes the algebra route, so the matrix
# route's stacked solve is reached by neither; a change that moves a
# slice off the algebra route, or adds exponentials, changes these counts
@pytest.mark.parametrize("command, slices", [("verify", 984), ("geodesic", 336)])
def test_default_commands_take_only_the_algebra_route(monkeypatch, capsys, command, slices):
    taken, routes = [], fiber._routes

    def recording(basis, c):
        even, matrix, algebra = routes(basis, c)
        taken.append((0 if even is None else int(even.sum()), matrix))
        return even, matrix, algebra

    monkeypatch.setattr(fiber, "_routes", recording)
    assert cli.main([command]) == 0
    assert capsys.readouterr().err == ""
    assert sum(even for even, _ in taken) == slices
    assert all(matrix is None for _, matrix in taken)


class CountingMatmul(np.ndarray):
    """An array that counts the matmuls it takes part in; what they return
    counts too."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            CountingMatmul.matmuls += 1

        def plain(x):
            return x.view(np.ndarray) if isinstance(x, CountingMatmul) else x

        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(CountingMatmul) if isinstance(result, np.ndarray) else result


def test_validate_associated_forms_w_j_once(monkeypatch):
    # P = W J serves both the residual of J^T P - W and S = sym(P): two
    # stacked matmuls, three before
    rng = np.random.default_rng(3)
    space = st.random_sample_space(rng, 4, 16)
    j0 = st.standard_acs_field(space)
    j = ge.geodesic_ambient(j0, st.random_tangent_field(rng, j0, part="symmetric"), 1.5)
    w = st.standard_symplectic_field(space)
    plain = st.validate_associated(j, w)
    j.ops, w.forms = j.ops.view(CountingMatmul), w.forms.view(CountingMatmul)
    monkeypatch.setattr(CountingMatmul, "matmuls", 0)
    counted = st.validate_associated(j, w)
    assert CountingMatmul.matmuls == 2
    assert counted.passed and plain.passed
    assert np.array_equal(counted.residuals, plain.residuals)


def test_curvature_fd_resolves_each_direction_once_per_chart_point(monkeypatch):
    # check_curvature_fd reads curvature five times at one chart point with
    # three directions, and once at the chart origin: each S Q_X is formed
    # once per chart point and direction, 3 + 3 per dim
    inverses, forms, resolved = [], [], Counter()  # the arrays are held, so no id is reused
    complex_inverse, complex_product = charts.complex_inverse, ge.complex_product

    def keep_inverse(p):
        inverses.append(complex_inverse(p))
        return inverses[-1]

    def product(x, y):
        if any(x is s for s in inverses):  # S Q_X
            forms.append(y)
            resolved[id(x), id(y)] += 1
        return complex_product(x, y)

    monkeypatch.setattr(charts, "complex_inverse", keep_inverse)
    monkeypatch.setattr(ge, "complex_product", product)
    assert check_curvature_fd().passed
    assert list(resolved.values()) == [1] * 12
