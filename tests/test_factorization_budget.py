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
one stacked inversion, the chart field's (1 - K^2)^{-1}: its tanh and both
exponentials run in the algebra of A^2, which inverts in closed form.  It
is counted under both public names in every module that binds them, and
at ``fiber._inverse_and_scale``, which every route passes through.
"""

import numpy as np
import pytest

from acsgeom import charts, cli, fiber
from acsgeom import geometry as ge
from acsgeom import structures as st
from acsgeom.verify import check_cayley, check_theorem1

COUNTED = {np.linalg: ("solve", "inv", "svd", "eigvalsh", "cholesky", "norm"),
           st: ("orientation_marker", "pade_basis"),
           fiber: ("pade_basis", "mat_inv", "mat_inv_guarded", "_inverse_and_scale"),
           charts: ("mat_inv", "mat_inv_guarded")}
# per op, once the reference has kept its orientation.  The one stacked
# inversion left (4 before the algebra route: the chart field's, the tanh
# quotient's and each ambient exponential's) is the chart field's guarded
# (1 - K^2)^{-1}, of an operator that commutes with the standard base,
# which fiber.mat_inv inverts in complex form with no LAPACK call at dim 4;
# the tanh quotient and the exponentials run in the algebra of A^2 and
# invert in closed form.  validate_associated's positivity is certified
# by a Cholesky written out in numpy, and its min_eig (eigvalsh) no one
# reads; the identity metric's adjoint is a transpose; the marker is the
# orthogonal geodesic's; the three velocities keep their Pade bases
BUDGET = {"solve": 0, "inv": 0, "svd": 0, "eigvalsh": 0, "cholesky": 0, "norm": 0,
          "orientation_marker": 1, "pade_basis": 0,
          "mat_inv": 1, "mat_inv_guarded": 0, "_inverse_and_scale": 1}
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


# a chart point inverts 1 - K^2 in complex form at dims 2 and 4; only
# acs_to_cayley's 1 - J J0, which does not commute with J_std, takes a
# stacked real solve, one per dim
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
