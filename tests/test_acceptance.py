"""Acceptance gate.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible under ``pytest -s``) before
asserting, so a scan of the output gives the full scorecard even when a
later criterion aborts the run.
"""

import numpy as np

from acsgeom.cli import main
from acsgeom.fiber import max_abs
from acsgeom.geometry import chart_origin, curvature
from acsgeom.structures import (
    SampleSpace,
    TangentField,
    identity_metric_field,
    random_tangent_field,
    standard_acs_field,
    sym_antisym_split,
)
from acsgeom.verify import (
    check_cayley,
    check_curvature_fd,
    check_geodesics,
    check_metric_structure,
    check_signature,
    check_theorem1,
    check_theorem2,
    check_totally_geodesic,
)


def scorecard(number, description, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}{tail}")


def subs_by_prefix(report, prefix):
    picked = [s for s in report.details if s["name"].startswith(prefix)]
    assert picked, f"no subchecks named {prefix}* in {report.name}"
    return picked


def test_01_cayley_bijection():
    rep = check_cayley(seed=0, dims=(2, 4, 6), cases=100,
                       tolerance=1e-9, acs_tolerance=1e-10)
    ok = rep.passed
    scorecard(1, "Cayley round-trip <= 1e-9 and J^2 = -Id <= 1e-10 "
                 "over 100 draws per dim in {2, 4, 6}",
              ok, f"max_residual={rep.max_residual:.3g}")
    assert ok


def test_02_pushforward_intertwines():
    rep = check_theorem1(seed=0, dims=(2, 4, 6), cases=100, tolerance=1e-9)
    ok = rep.passed
    scorecard(2, "pushforward(A J0) - pushforward(A) J_K <= 1e-9 "
                 "over the same ensemble",
              ok, f"max_residual={rep.max_residual:.3g}")
    assert ok


def test_03_fundamental_form_closed():
    rep = check_theorem2(seed=0, dims=(2, 4), h=1e-4, tolerance=1e-6,
                         factor_window=(2.5, 6.0))
    terms_ok = all(s["passed"] for s in subs_by_prefix(rep, "terms_dim"))
    factors = [s["factor"] for s in subs_by_prefix(rep, "fd_order_dim")]
    order_ok = all(2.5 <= f <= 6.0 for f in factors)
    ok = rep.passed and terms_ok and order_ok
    scorecard(3, "every d-omega finite-difference term <= 1e-6 at the chart "
                 "center, original and recentered, with halving factor in "
                 "[2.5, 6]",
              ok, f"factors={[round(f, 2) for f in factors]}")
    assert ok


def test_04_curvature_tensor():
    rep = check_curvature_fd(seed=0, dims=(2, 4), tolerance=1e-5,
                             k_bound=0.5, bianchi_tolerance=1e-10,
                             origin_tolerance=1e-12)

    # hand-checked value at the chart origin in dim 2
    space = SampleSpace(2, np.ones(1))
    j0 = standard_acs_field(space)
    c = chart_origin(j0)
    a = TangentField(space, j0, np.array([[[1.0, 0.0], [0.0, -1.0]]]))
    b = TangentField(space, j0, np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    r = curvature(c, a, b, b)
    hand = max_abs(r.ops[0] - np.diag([-4.0, 4.0]))
    ok = rep.passed and hand < 1e-13
    scorecard(4, "finite-difference second derivatives match the closed-form "
                 "curvature <= 1e-5, antisymmetry exact, Bianchi <= 1e-10, "
                 "flat-origin commutator <= 1e-12, hand case R(A,B)B = "
                 "diag(-4, 4)",
              ok, f"max_residual={rep.max_residual:.3g}, hand={hand:.3g}")
    assert ok


def test_05_geodesics():
    rep = check_geodesics(seed=0, dims=(2, 4), t_grid=(0.2, 0.6, 1.0),
                          h=1e-4, tolerance=1e-6, chart_tolerance=1e-9,
                          t_max=2.0, t_steps=9)
    ode = max(s["residual"] for s in subs_by_prefix(rep, "ode_residual_dim"))
    chart = max(s["residual"] for s in subs_by_prefix(rep, "chart_ambient_dim"))
    ok = rep.passed
    scorecard(5, "geodesic-equation residual <= 1e-6 at t in {0.2, 0.6, 1.0} "
                 "and chart/ambient agreement <= 1e-9 on the 9-point grid",
              ok, f"ode={ode:.3g}, chart={chart:.3g}")
    assert ok


def test_06_metric_structure():
    rep = check_metric_structure(seed=0, dims=(2, 4), tolerance=1e-6,
                                 hermitian_tolerance=1e-10,
                                 omega_tolerance=1e-12,
                                 chart_ambient_tolerance=1e-9)
    worst = {
        "hermitian": max(s["residual"]
                         for s in subs_by_prefix(rep, "hermitian_dim")),
        "omega": max(s["residual"]
                     for s in subs_by_prefix(rep, "omega_is_inner_dim")),
        "chart": max(max(s["residual"] for s in
                         subs_by_prefix(rep, "chart_ambient_inner_dim")),
                     max(s["residual"] for s in
                         subs_by_prefix(rep, "chart_ambient_omega_dim"))),
        "compat_fd": max(s["residual"]
                         for s in subs_by_prefix(rep, "metric_compat_fd_dim")),
    }
    ok = rep.passed
    scorecard(6, "Hermitian invariance <= 1e-10, omega = (JA, B) <= 1e-12, "
                 "chart/ambient inner and omega <= 1e-9, metric "
                 "compatibility FD <= 1e-6",
              ok, ", ".join(f"{k}={v:.3g}" for k, v in worst.items()))
    assert ok


def test_07_signature_split():
    rep = check_signature(seed=0, dims=(2, 4), threshold=1e-10)
    sym = subs_by_prefix(rep, "symmetric_positive_dim4")[0]
    anti = subs_by_prefix(rep, "antisymmetric_negative_dim4")[0]
    full = subs_by_prefix(rep, "full_indefinite_dim4")[0]
    ok = (rep.passed and sym["min_eig"] > 1e-10 and anti["max_eig"] < -1e-10
          and full["min_eig"] < 0.0 < full["max_eig"])
    scorecard(7, "at dim 4 the metric Gram is positive definite on the "
                 "symmetric basis, negative definite on the antisymmetric "
                 "basis, indefinite on the full tangent space",
              ok, f"sym_min={sym['min_eig']:.3g}, anti_max={anti['max_eig']:.3g}")
    assert ok


def test_08_totally_geodesic_submanifolds():
    rep = check_totally_geodesic(seed=0, dims=(2, 4), t_max=2.0, t_steps=9,
                                 tolerance=1e-9, orthogonal_tolerance=1e-10)
    names = {s["name"] for s in rep.details}
    ok = (rep.passed
          and "associated_invariance_dim2" in names
          and "associated_invariance_dim4" in names
          and "orthogonal_invariance_dim4" in names
          and "orientation_preserved_dim4" in names)
    scorecard(8, "symmetric-direction geodesics keep the structure "
                 "associated (<= 1e-9 on [0, 2]); antisymmetric directions "
                 "at dim 4 keep it orthogonal with orientation (<= 1e-10)",
              ok, f"max_residual={rep.max_residual:.3g}")
    assert ok


def test_09_dim2_antisymmetric_space_is_zero():
    space = SampleSpace(2, np.ones(4))
    j0 = standard_acs_field(space)
    g = identity_metric_field(space)
    worst = 0.0
    for seed in range(100):
        k = random_tangent_field(np.random.default_rng(seed), j0)
        _, l = sym_antisym_split(k, g)
        worst = max(worst, max_abs(l))
    ok = worst == 0.0
    scorecard(9, "at dim 2 the antisymmetric part of every anticommuting "
                 "direction is exactly zero over 100 draws",
              ok, f"max|L|={worst}")
    assert ok


def test_10_verify_runs_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "report.json"
    args = ["verify", "--out", str(out)]
    code1 = main(list(args))
    first = out.read_bytes()
    code2 = main(list(args))
    second = out.read_bytes()
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and first == second
    scorecard(10, "two verify runs with identical flags produce "
                  "byte-identical report files",
              ok, f"bytes={len(first)}")
    assert ok
