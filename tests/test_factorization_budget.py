"""The number of LAPACK factorizations in one chart op is pinned.

The op is the one the ``field_1000`` benchmark workload repeats, on 16
points instead of 1000: the chart geodesic K(t), the chart field at K(t)
with its connection, curvature, pairing and 2-form, and two ambient
geodesics with their validators.  Its cost is dominated by stacked
factorizations, so a change that adds one has to change this count.  So
are two bookkeeping counts: the orientation markers (the reference field
keeps its own) and the ``np.linalg.norm`` calls (the guard reads
``fiber.slice_norm_fro``).  The stacked solves of the ``cayley`` and
``theorem1`` checkers are pinned too, and so is the one ``eigvalsh`` of a
default ``geodesic`` command, which validates its space's n x n identity
metric; the trace reads only the validators' verdicts.
"""

import numpy as np
import pytest

from acsgeom import cli
from acsgeom import geometry as ge
from acsgeom import structures as st
from acsgeom.verify import check_cayley, check_theorem1

COUNTED = {np.linalg: ("solve", "inv", "svd", "eigvalsh", "cholesky", "norm"),
           st: ("orientation_marker",)}
# per op, once every metric has kept its inverse and the reference its
# orientation.  The guarded tanh quotient, the guarded (1 - K^2)^{-1} of
# the chart field and the Pade inversion of each ambient exponential all
# invert operators that commute with the standard base, which
# fiber.mat_inv inverts in complex form with no LAPACK call at dim 4; the
# Cholesky certifies validate_associated's positivity, whose min_eig
# (eigvalsh) no one reads; the marker is the orthogonal geodesic's
BUDGET = {"solve": 0, "inv": 0, "svd": 0, "eigvalsh": 0, "cholesky": 1, "norm": 0,
          "orientation_marker": 1}


@pytest.fixture
def counted(monkeypatch):
    counts = dict.fromkeys(BUDGET, 0)

    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for module, names in COUNTED.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


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
    # warm-up: the space's metric keeps its inverse, j0 its orientation
    assert chart_op(fields, 2.0)
    counted.update(dict.fromkeys(BUDGET, 0))
    assert chart_op(fields, 1.5)
    assert counted == BUDGET


# a chart point inverts 1 - K^2 in complex form at dims 2 and 4; only
# acs_to_cayley's 1 - J J0, which does not commute with J_std, takes a
# stacked real solve, one per dim
@pytest.mark.parametrize("check, solves", [(check_theorem1, 0), (check_cayley, 2)])
def test_chart_checkers_solve_only_what_does_not_commute(counted, check, solves):
    assert check(dims=(2, 4)).passed
    assert counted["solve"] == solves


def test_geodesic_makes_one_eigenvalue_call_on_one_matrix(counted, monkeypatch, capsys):
    # counted from the start of the command: the space's identity metric is
    # one n x n matrix, validated once; the trace reads only the verdicts
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: shapes.append(np.shape(m)) or eigvalsh(m))
    assert cli.main(["geodesic"]) == 0
    assert capsys.readouterr().out.count("\n") > 9
    assert shapes == [(4, 4)]
    assert counted["cholesky"] == 9  # one Cholesky per t
