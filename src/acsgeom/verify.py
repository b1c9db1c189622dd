"""Numerical certification of the geometry: finite-difference oracles and
checkers for the chart bijection, the pushforward identity, closedness of
the 2-form, curvature, geodesics, metric structure, definiteness on the
associated and orthogonal submanifolds, and their totally geodesic
property.

Every checker returns a :class:`CheckReport` whose headline residual and
tolerance are those of its worst sub-check in relative terms, so
``passed`` is equivalent to ``max_residual <= tolerance`` while the
individual sub-checks (each with its own tolerance) are kept in
``details``.  Bound-type assertions (eigenvalue signs, convergence-factor
windows) are encoded as distance-outside-the-allowed-region against a
zero tolerance.

Determinism: every random draw comes from a generator seeded with the
(master seed, checker name, dim, case index) tuple, so identical
configurations produce bitwise-identical reports.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .charts import (
    CayleyCoordinate,
    acs_to_cayley,
    anticommute_project,
    cayley_to_acs,
    pushforward,
    random_anticommuting,
    standard_acs,
)
from .errors import ConfigError
from .fiber import mat_inv_guarded, max_abs
from .geometry import (
    ChartField,
    acs_on_tangent,
    ambient_inner,
    ambient_omega,
    chart_inner,
    chart_inner_terms,
    chart_omega,
    chart_origin,
    christoffel,
    curvature,
    geodesic_ambient,
    geodesic_chart,
    point_order_sum,
    shifted,
)
from .structures import (
    AcsField,
    FieldBundle,
    FieldReport,
    TangentField,
    identity_metric_field,
    random_sample_space,
    random_tangent_field,
    standard_acs_field,
    standard_symplectic_field,
    validate_acs,
    validate_associated,
    validate_orthogonal,
)

CHECK_NAMES = (
    "cayley",
    "theorem1",
    "theorem2",
    "geodesics",
    "curvature_fd",
    "metric_structure",
    "totally_geodesic",
    "signature",
)


@dataclass
class CheckReport:
    """Outcome of one checker.

    ``max_residual`` and ``tolerance`` belong to the binding sub-check;
    ``passed`` holds iff max_residual <= tolerance, which by construction
    is equivalent to every sub-check in ``details`` passing.
    """

    name: str
    passed: bool
    max_residual: float
    tolerance: float
    seed: int
    dims: tuple
    params: dict = field(default_factory=dict)
    details: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return _plain({
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "dims": list(self.dims),
            "params": self.params,
            "details": self.details,
        })


def _plain(value):
    """Recursively convert numpy scalars and containers to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def derive_rng(seed: int, name: str, *extra: int) -> np.random.Generator:
    """The generator of one draw: seeded by the master seed, the crc32 of
    ``name`` and the integers ``extra`` (dim, case index)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("ascii")), *extra])


def _ratio(residual: float, tolerance: float) -> float:
    if math.isnan(residual):
        return math.nan
    if tolerance > 0.0:
        return residual / tolerance
    return 0.0 if residual <= 0.0 else float("inf")


def _rank(sub: dict) -> tuple[bool, float]:
    """Sort key of a sub-check: a NaN ratio ranks above every number."""
    ratio = _ratio(sub["residual"], sub["tolerance"])
    return math.isnan(ratio), ratio


def _compose(name, seed, dims, params, subchecks) -> CheckReport:
    """Merge sub-checks into one report, keeping the binding constraint."""
    for sub in subchecks:
        sub["passed"] = _ratio(sub["residual"], sub["tolerance"]) <= 1.0
    worst = max(subchecks, key=_rank)
    passed = all(s["passed"] for s in subchecks)
    return CheckReport(name, passed, float(worst["residual"]),
                       float(worst["tolerance"]), seed, tuple(dims),
                       _plain(params), _plain(subchecks))


def _worst(*values: float) -> float:
    """The largest of the values, NaN if any is NaN (Python's ``max``
    drops a NaN that is not its first argument, and a NaN must not pass)."""
    return float(np.max(values))


def _outside(value: float, lo: float, hi: float) -> float:
    """Distance of value from the closed interval [lo, hi] (0 inside)."""
    return _worst(0.0, lo - value, value - hi)


def fd_directional(f, c: ChartField, a: TangentField, h: float) -> float:
    """Central difference of a scalar chart functional along a:
    (f(K + hA) - f(K - hA)) / (2h), error O(h^2) for smooth f."""
    if not h > 0:
        raise ValueError("step size h must be positive")
    return (f(shifted(c, a, h)) - f(shifted(c, a, -h))) / (2.0 * float(h))


def geodesic_equation_residual(a: TangentField, t: float, h: float) -> float:
    """Max-norm residual of K'' + Gamma(K', K') = 0 at time t along the
    chart geodesic K(t) = tanh((t/2) A), with K' and K'' from central
    differences of step h."""
    kp = geodesic_chart(a, t + h)
    kc = geodesic_chart(a, t)
    km = geodesic_chart(a, t - h)
    kdot = TangentField(a.space, a.base, (kp.ops - km.ops) / (2.0 * h), 1e-9)
    kdd = (kp.ops - 2.0 * kc.ops + km.ops) / h**2
    gamma = christoffel(ChartField(a.space, a.base, kc), kdot, kdot)
    return max_abs(kdd + gamma.ops)


# ---------------------------------------------------------------------------
# checkers

def _case_draws(seed: int, name: str, dim: int, cases: int, count: int,
                bound: float) -> tuple[np.ndarray, ...]:
    """The standard structure and ``count`` anticommuting draws per case as
    (cases, n, n) stacks; each case draws from its own generator."""
    j0 = standard_acs(dim)
    draws = [[random_anticommuting(rng, j0, bound=bound) for _ in range(count)]
             for rng in (derive_rng(seed, name, dim, case) for case in range(cases))]
    return (np.tile(j0, (cases, 1, 1)), *np.stack(draws, axis=1))


def check_cayley(seed: int = 0, dims=(2, 4, 6), cases: int = 100,
                 tolerance: float = 1e-9, acs_tolerance: float = 1e-10,
                 bound: float = 0.9) -> CheckReport:
    """Chart bijection: coordinate -> structure -> coordinate round trip,
    and validity of every produced structure."""
    subs = []
    for dim in dims:
        j0, k = _case_draws(seed, "cayley", dim, cases, 1, bound)
        j = cayley_to_acs(CayleyCoordinate(j0, k))
        r_acs = max_abs(j @ j + np.eye(dim))
        r_round = max_abs(acs_to_cayley(j0, j).K - k)
        subs.append({"name": f"roundtrip_dim{dim}", "residual": r_round,
                     "tolerance": tolerance})
        subs.append({"name": f"acs_identity_dim{dim}", "residual": r_acs,
                     "tolerance": acs_tolerance})
    params = {"cases": cases, "bound": bound, "tolerance": tolerance,
              "acs_tolerance": acs_tolerance}
    return _compose("cayley", seed, dims, params, subs)


def check_theorem1(seed: int = 0, dims=(2, 4, 6), cases: int = 100,
                   tolerance: float = 1e-9, bound: float = 0.9) -> CheckReport:
    """Pushforward intertwines the complex structures:
    pushforward(A J0) = pushforward(A) J_K."""
    subs = []
    for dim in dims:
        j0, k, a = _case_draws(seed, "theorem1", dim, cases, 2, bound)
        coord = CayleyCoordinate(j0, k)
        jk = cayley_to_acs(coord)
        worst = max_abs(pushforward(coord, a @ j0) - pushforward(coord, a) @ jk)
        subs.append({"name": f"intertwine_dim{dim}", "residual": worst,
                     "tolerance": tolerance})
    params = {"cases": cases, "bound": bound, "tolerance": tolerance}
    return _compose("theorem1", seed, dims, params, subs)


def _omega_terms(c: ChartField, a0: TangentField, a1: TangentField,
                 a2: TangentField, h: float) -> tuple[float, float, float]:
    t0 = fd_directional(lambda cc: chart_omega(cc, a1, a2), c, a0, h)
    t1 = fd_directional(lambda cc: chart_omega(cc, a0, a2), c, a1, h)
    t2 = fd_directional(lambda cc: chart_omega(cc, a0, a1), c, a2, h)
    return t0, t1, t2


def _omega_ray_derivative(c: ChartField, a0: TangentField, a1: TangentField,
                          a2: TangentField, t: float) -> float:
    """Exact d/dt of chart_omega along K = t a0, from the resolvent
    derivative d/dt (1 - t^2 A^2)^{-1} = S (2t A^2) S."""
    x, b1, j0, b2 = a0.ops, a1.ops, c.base.ops, a2.ops
    s = mat_inv_guarded(np.eye(c.space.dim) - (t * x) @ (t * x))
    ds = s @ ((2.0 * t) * (x @ x)) @ s
    traces = (np.trace(ds @ b1 @ j0 @ s @ b2, axis1=1, axis2=2)
              + np.trace(s @ b1 @ j0 @ ds @ b2, axis1=1, axis2=2))
    return point_order_sum(c.space.weights * 4.0 * traces)


def check_theorem2(seed: int = 0, dims=(2, 4), cases: int = 3, points: int = 8,
                   h: float = 1e-4, tolerance: float = 1e-6,
                   factor_window=(2.5, 6.0), ray_t: float = 0.3,
                   bound: float = 0.9) -> CheckReport:
    """Closedness of the 2-form: every directional-derivative term of
    d Omega vanishes at the chart center, both at the reference structure
    and after recentering at a random chart point; plus an order-2
    convergence check of the difference stencil against the analytic
    derivative along a coordinate ray."""
    subs = []
    for dim in dims:
        term_worst, alt_worst = 0.0, 0.0
        best_rh, best_factor = -1.0, None
        for case in range(cases):
            rng = derive_rng(seed, "theorem2", dim, case)
            space = random_sample_space(rng, dim, points)
            j0f = standard_acs_field(space)
            a0, a1, a2 = (random_tangent_field(rng, j0f, bound=bound)
                          for _ in range(3))
            c0 = chart_origin(j0f)
            t0, t1, t2 = _omega_terms(c0, a0, a1, a2, h)
            term_worst = _worst(term_worst, abs(t0), abs(t1), abs(t2))
            alt_worst = _worst(alt_worst, abs(t0 - t1 + t2))

            # recenter: the same statement in the chart of a random J_K
            k1 = random_tangent_field(rng, j0f, bound=bound)
            j1f = AcsField(space, cayley_to_acs(CayleyCoordinate(j0f.ops, k1.ops)))
            b0, b1, b2 = (random_tangent_field(rng, j1f, bound=bound)
                          for _ in range(3))
            c1 = chart_origin(j1f)
            s0, s1, s2 = _omega_terms(c1, b0, b1, b2, h)
            term_worst = _worst(term_worst, abs(s0), abs(s1), abs(s2))
            alt_worst = _worst(alt_worst, abs(s0 - s1 + s2))

            # order-2 convergence, measured against the analytic value on
            # the off-center ray K = t a0 (the stencil at the center is
            # exactly zero and carries no signal)
            half = random_tangent_field(rng, j0f, bound=0.5)
            exact = _omega_ray_derivative(c0, half, a1, a2, ray_t)

            def along_ray(step: float) -> float:
                ray = TangentField(space, j0f, ray_t * half.ops)
                cc = ChartField(space, j0f, ray)
                return fd_directional(lambda ch: chart_omega(ch, a1, a2),
                                      cc, half, step)

            r_h = abs(along_ray(h) - exact)
            r_h2 = abs(along_ray(h / 2.0) - exact)
            if not r_h <= best_rh:  # a NaN r_h is kept as the worst case
                best_rh = r_h
                best_factor = r_h / r_h2 if r_h2 > 0.0 else float("inf")
        subs.append({"name": f"terms_dim{dim}", "residual": term_worst,
                     "tolerance": tolerance})
        subs.append({"name": f"alternating_sum_dim{dim}", "residual": alt_worst,
                     "tolerance": tolerance})
        subs.append({"name": f"fd_order_dim{dim}",
                     "residual": _outside(best_factor, *factor_window),
                     "tolerance": 0.0, "factor": best_factor,
                     "window": list(factor_window)})
    params = {"cases": cases, "points": points, "h": h, "bound": bound,
              "tolerance": tolerance, "factor_window": list(factor_window),
              "ray_t": ray_t}
    return _compose("theorem2", seed, dims, params, subs)


def check_geodesics(seed: int = 0, dims=(2, 4), cases: int = 3, points: int = 8,
                    t_grid=(0.2, 0.6, 1.0), h: float = 1e-4,
                    tolerance: float = 1e-6, chart_tolerance: float = 1e-9,
                    t_max: float = 2.0, t_steps: int = 9,
                    bound: float = 0.9) -> CheckReport:
    """Geodesic equation K'' + Gamma(K', K') = 0 by central differences,
    and chart/ambient consistency of the two geodesic descriptions."""
    full_grid = np.linspace(0.0, t_max, t_steps)
    subs = []
    for dim in dims:
        ode_worst, chart_worst = 0.0, 0.0
        for case in range(cases):
            rng = derive_rng(seed, "geodesics", dim, case)
            space = random_sample_space(rng, dim, points)
            j0f = standard_acs_field(space)
            a = random_tangent_field(rng, j0f, bound=bound)
            for t in t_grid:
                ode_worst = _worst(ode_worst, geodesic_equation_residual(a, t, h))
            for t in full_grid:
                jt = geodesic_ambient(j0f, a, float(t))
                kt = geodesic_chart(a, float(t))
                back = acs_to_cayley(j0f.ops, jt.ops).K
                chart_worst = _worst(chart_worst, max_abs(back - kt.ops))
        subs.append({"name": f"ode_residual_dim{dim}", "residual": ode_worst,
                     "tolerance": tolerance})
        subs.append({"name": f"chart_ambient_dim{dim}", "residual": chart_worst,
                     "tolerance": chart_tolerance})
    params = {"cases": cases, "points": points, "h": h, "bound": bound,
              "t_grid": list(t_grid), "t_max": t_max, "t_steps": t_steps,
              "tolerance": tolerance, "chart_tolerance": chart_tolerance}
    return _compose("geodesics", seed, dims, params, subs)


def check_curvature_fd(seed: int = 0, dims=(2, 4), cases: int = 3,
                       points: int = 8, h: float = 1e-4,
                       tolerance: float = 1e-5, k_bound: float = 0.5,
                       bianchi_tolerance: float = 1e-10,
                       origin_tolerance: float = 1e-12,
                       bound: float = 0.9) -> CheckReport:
    """Curvature as the commutator of covariant derivatives, assembled by
    finite differences of the connection, against the closed form; plus
    the exact antisymmetry, first Bianchi, and flat-origin identities.

    The coordinate K is kept at spectral radius <= k_bound so the stepped
    points K +- h A stay deep inside the chart.
    """
    subs = []
    for dim in dims:
        fd_worst = anti_worst = self_worst = bianchi_worst = origin_worst = 0.0
        for case in range(cases):
            rng = derive_rng(seed, "curvature_fd", dim, case)
            space = random_sample_space(rng, dim, points)
            j0f = standard_acs_field(space)
            k = random_tangent_field(rng, j0f, bound=k_bound)
            a, b, d = (random_tangent_field(rng, j0f, bound=bound) for _ in range(3))
            c = ChartField(space, j0f, k)
            closed = curvature(c, a, b, d)

            def grad(direction: TangentField, x: TangentField, y: TangentField):
                plus = christoffel(shifted(c, direction, h), x, y).ops
                minus = christoffel(shifted(c, direction, -h), x, y).ops
                return (plus - minus) / (2.0 * h)

            term_a = grad(a, b, d) + christoffel(c, a, christoffel(c, b, d)).ops
            term_b = grad(b, a, d) + christoffel(c, b, christoffel(c, a, d)).ops
            fd_worst = _worst(fd_worst, max_abs(term_a - term_b - closed.ops))
            anti_worst = _worst(anti_worst, max_abs(curvature(c, b, a, d).ops + closed.ops))
            self_worst = _worst(self_worst, max_abs(curvature(c, a, a, d).ops))
            bianchi_worst = _worst(bianchi_worst, max_abs(
                closed.ops + curvature(c, b, d, a).ops + curvature(c, d, a, b).ops))

            c0 = chart_origin(j0f)
            flat = curvature(c0, a, b, d)
            ab = a.ops @ b.ops - b.ops @ a.ops
            origin_worst = _worst(origin_worst, max_abs(flat.ops + (ab @ d.ops - d.ops @ ab)))
        subs.append({"name": f"fd_match_dim{dim}", "residual": fd_worst,
                     "tolerance": tolerance})
        subs.append({"name": f"antisymmetry_dim{dim}", "residual": anti_worst,
                     "tolerance": 0.0})
        subs.append({"name": f"self_pair_dim{dim}", "residual": self_worst,
                     "tolerance": 0.0})
        subs.append({"name": f"bianchi_dim{dim}", "residual": bianchi_worst,
                     "tolerance": bianchi_tolerance})
        subs.append({"name": f"origin_closed_form_dim{dim}", "residual": origin_worst,
                     "tolerance": origin_tolerance})
    params = {"cases": cases, "points": points, "h": h, "k_bound": k_bound,
              "bound": bound, "tolerance": tolerance,
              "bianchi_tolerance": bianchi_tolerance,
              "origin_tolerance": origin_tolerance}
    return _compose("curvature_fd", seed, dims, params, subs)


def check_metric_structure(seed: int = 0, dims=(2, 4), cases: int = 3,
                           points: int = 8, h: float = 1e-4,
                           tolerance: float = 1e-6,
                           hermitian_tolerance: float = 1e-10,
                           omega_tolerance: float = 1e-12,
                           chart_ambient_tolerance: float = 1e-9,
                           compat_tolerance: float = 1e-10,
                           k_bound: float = 0.5,
                           bound: float = 0.9) -> CheckReport:
    """Structural identities of the metric, the complex structure and the
    2-form, in ambient and chart form, plus metric compatibility of the
    connection by finite differences (primary tolerance)."""
    subs = []
    for dim in dims:
        r_herm = r_omega = r_ci = r_co = r_compat = r_fd = 0.0
        for case in range(cases):
            rng = derive_rng(seed, "metric_structure", dim, case)
            space = random_sample_space(rng, dim, points)
            j0f = standard_acs_field(space)
            a = random_tangent_field(rng, j0f, bound=bound)
            b = random_tangent_field(rng, j0f, bound=bound)
            ja = acs_on_tangent(a, j0f)
            jb = acs_on_tangent(b, j0f)
            r_herm = _worst(r_herm, abs(ambient_inner(j0f, ja, jb)
                                        - ambient_inner(j0f, a, b)))
            r_omega = _worst(r_omega, abs(ambient_omega(j0f, a, b)
                                          - ambient_inner(j0f, ja, b)))

            # chart expressions against pushforwards at a random chart point
            k = random_tangent_field(rng, j0f, bound=bound)
            c = ChartField(space, j0f, k)
            coord = CayleyCoordinate(j0f.ops, k.ops)
            jkf = AcsField(space, cayley_to_acs(coord))
            astar_f = TangentField(space, jkf, pushforward(coord, a.ops), 1e-9)
            bstar_f = TangentField(space, jkf, pushforward(coord, b.ops), 1e-9)
            r_ci = _worst(r_ci, abs(chart_inner(c, a, b)
                                    - ambient_inner(jkf, astar_f, bstar_f)))
            r_co = _worst(r_co, abs(chart_omega(c, a, b)
                                    - ambient_omega(jkf, astar_f, bstar_f)))
            r_compat = _worst(r_compat, abs(chart_omega(c, a, b)
                                            - chart_inner(c, ja, b)))

            # connection compatibility: d_A (B,C) = (Gamma(A,B), C) + (B, Gamma(A,C))
            kf = random_tangent_field(rng, j0f, bound=k_bound)
            cf = ChartField(space, j0f, kf)
            d = random_tangent_field(rng, j0f, bound=bound)
            lhs = fd_directional(lambda ch: chart_inner(ch, b, d), cf, a, h)
            rhs = chart_inner(cf, christoffel(cf, a, b), d) \
                + chart_inner(cf, b, christoffel(cf, a, d))
            r_fd = _worst(r_fd, abs(lhs - rhs))
        subs.append({"name": f"metric_compat_fd_dim{dim}", "residual": r_fd,
                     "tolerance": tolerance})
        subs.append({"name": f"hermitian_dim{dim}", "residual": r_herm,
                     "tolerance": hermitian_tolerance})
        subs.append({"name": f"omega_is_inner_dim{dim}", "residual": r_omega,
                     "tolerance": omega_tolerance})
        subs.append({"name": f"chart_ambient_inner_dim{dim}", "residual": r_ci,
                     "tolerance": chart_ambient_tolerance})
        subs.append({"name": f"chart_ambient_omega_dim{dim}", "residual": r_co,
                     "tolerance": chart_ambient_tolerance})
        subs.append({"name": f"omega_compat_dim{dim}", "residual": r_compat,
                     "tolerance": compat_tolerance})
    params = {"cases": cases, "points": points, "h": h, "k_bound": k_bound,
              "bound": bound, "tolerance": tolerance,
              "hermitian_tolerance": hermitian_tolerance,
              "omega_tolerance": omega_tolerance,
              "chart_ambient_tolerance": chart_ambient_tolerance,
              "compat_tolerance": compat_tolerance}
    return _compose("metric_structure", seed, dims, params, subs)


def check_totally_geodesic(seed: int = 0, dims=(2, 4), cases: int = 3,
                           points: int = 8, t_max: float = 2.0,
                           t_steps: int = 9, tolerance: float = 1e-9,
                           orthogonal_tolerance: float = 1e-10,
                           bound: float = 0.9) -> CheckReport:
    """Geodesics stay inside the two submanifolds.

    For a metric-symmetric initial velocity the whole geodesic remains
    positively associated with the reference form; for a metric-antisymmetric
    velocity (possible only at dim >= 4, the antisymmetric space is trivial
    at dim 2) it remains orthogonal with the reference orientation.
    """
    grid = np.linspace(0.0, t_max, t_steps)
    subs = []
    for dim in dims:
        assoc_res, min_eig = 0.0, float("inf")
        orth_res, mismatches = 0.0, 0
        for case in range(cases):
            rng = derive_rng(seed, "totally_geodesic", dim, case)
            space = random_sample_space(rng, dim, points)
            j0f = standard_acs_field(space)
            wf = standard_symplectic_field(space)
            gf = identity_metric_field(space)

            a_sym = random_tangent_field(rng, j0f, part="symmetric", bound=bound)
            for t in grid:
                jt = geodesic_ambient(j0f, a_sym, float(t))
                rep = validate_associated(jt, wf, tol=tolerance)
                assoc_res = _worst(assoc_res, rep.max_residual)
                min_eig = float(np.min([min_eig, *(e["min_eig"] for e in rep.per_point)]))

            if dim >= 4:
                a_anti = random_tangent_field(rng, j0f, part="antisymmetric",
                                              bound=bound)
                for t in grid:
                    jt = geodesic_ambient(j0f, a_anti, float(t))
                    rep = validate_orthogonal(jt, gf, j0f, tol=orthogonal_tolerance)
                    orth_res = _worst(orth_res, rep.max_residual)
                    mismatches += sum(
                        1 for e in rep.per_point
                        if e["orientation"] != e["reference_orientation"])
        subs.append({"name": f"associated_invariance_dim{dim}",
                     "residual": assoc_res, "tolerance": tolerance})
        subs.append({"name": f"associated_positivity_dim{dim}",
                     "residual": _worst(0.0, 1e-12 - min_eig), "tolerance": 0.0,
                     "min_eig": min_eig})
        if dim >= 4:
            subs.append({"name": f"orthogonal_invariance_dim{dim}",
                         "residual": orth_res, "tolerance": orthogonal_tolerance})
            subs.append({"name": f"orientation_preserved_dim{dim}",
                         "residual": float(mismatches), "tolerance": 0.0})
        else:
            subs.append({"name": f"antisymmetric_trivial_dim{dim}",
                         "residual": 0.0, "tolerance": 0.0,
                         "note": "antisymmetric tangent space is {0} at dim 2"})
    params = {"cases": cases, "points": points, "t_max": t_max,
              "t_steps": t_steps, "bound": bound, "tolerance": tolerance,
              "orthogonal_tolerance": orthogonal_tolerance}
    return _compose("totally_geodesic", seed, dims, params, subs)


def _anticommuting_part_basis(j0: np.ndarray, part: str) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the anticommuting matrices that are
    plain-symmetric ('symmetric') or plain-antisymmetric ('antisymmetric')."""
    dim = j0.shape[0]
    basis: list[np.ndarray] = []
    for r in range(dim):
        for s in range(dim):
            e = np.zeros((dim, dim))
            e[r, s] = 1.0
            m = anticommute_project(e, j0)
            m = 0.5 * (m + m.T) if part == "symmetric" else 0.5 * (m - m.T)
            for b in basis:
                m = m - float(np.sum(b * m)) * b
            norm = float(np.linalg.norm(m))
            if norm > 1e-8:
                basis.append(m / norm)
    return basis


def check_signature(seed: int = 0, dims=(2, 4), points: int = 8,
                    threshold: float = 1e-10) -> CheckReport:
    """Signature of the pairing at the chart origin.

    On single-point tangent fields spanning the metric-symmetric part the
    Gram matrix of chart_inner must be positive definite; on the
    antisymmetric part (dim >= 4) negative definite; on the full tangent
    space indefinite.  Basis dimensions per fiber must be n^2 + n and
    n^2 - n.
    """
    subs = []
    for dim in dims:
        rng = derive_rng(seed, "signature", dim, 0)
        space = random_sample_space(rng, dim, points)
        j0f = standard_acs_field(space)
        j0 = standard_acs(dim)
        n = dim // 2
        sym_basis = _anticommuting_part_basis(j0, "symmetric")
        anti_basis = _anticommuting_part_basis(j0, "antisymmetric")
        dim_residual = float(abs(len(sym_basis) - (n * n + n))
                             + abs(len(anti_basis) - (n * n - n)))
        subs.append({"name": f"basis_dims_dim{dim}", "residual": dim_residual,
                     "tolerance": 0.0, "sym_count": len(sym_basis),
                     "antisym_count": len(anti_basis)})

        c0 = chart_origin(j0f)

        def gram_eigs(fiber_basis):
            """Eigenvalues of the Gram matrix on the fields that are one basis
            element at one point: block diagonal, one block per point."""
            e = np.array(fiber_basis)
            terms = chart_inner_terms(c0, e[:, None, None], e[None, :, None])
            blocks = np.triu(np.moveaxis(terms, -1, 0))  # pairs i <= j, mirrored below
            return np.linalg.eigvalsh(block_diag(*(blocks + np.triu(blocks, 1).mT)))

        sym_eigs = gram_eigs(sym_basis)
        subs.append({"name": f"symmetric_positive_dim{dim}",
                     "residual": _worst(0.0, threshold - float(sym_eigs[0])),
                     "tolerance": 0.0, "min_eig": float(sym_eigs[0])})
        if anti_basis:
            anti_eigs = gram_eigs(anti_basis)
            subs.append({"name": f"antisymmetric_negative_dim{dim}",
                         "residual": _worst(0.0, float(anti_eigs[-1]) + threshold),
                         "tolerance": 0.0, "max_eig": float(anti_eigs[-1])})
            full_eigs = gram_eigs(sym_basis + anti_basis)
            subs.append({"name": f"full_indefinite_dim{dim}",
                         "residual": _worst(0.0, float(full_eigs[0]) + threshold,
                                            threshold - float(full_eigs[-1])),
                         "tolerance": 0.0, "min_eig": float(full_eigs[0]),
                         "max_eig": float(full_eigs[-1])})
    params = {"points": points, "threshold": threshold}
    return _compose("signature", seed, dims, params, subs)


# ---------------------------------------------------------------------------
# suite

@dataclass
class VerifyConfig:
    """Configuration of the full suite.

    ``dims`` drive the cheap algebraic ensembles; ``fd_dims`` the
    finite-difference and eigenbasis checks.  ``tolerances`` may override
    each checker's primary tolerance by name (see CHECK_NAMES).  An
    optional input ``bundle`` is validated ahead of the theorem checks.
    """

    seed: int = 0
    dims: tuple = (2, 4, 6)
    fd_dims: tuple = (2, 4)
    cases: int = 100
    fd_cases: int = 3
    points: int = 8
    h: float = 1e-4
    t_max: float = 2.0
    t_steps: int = 9
    tolerances: dict = field(default_factory=dict)
    bundle: FieldBundle | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` for any value the checkers cannot use.

        The command line validates its settings here too, so each rule is
        stated once.
        """
        _require_int("seed", self.seed, 0)
        for label, dims in (("dims", self.dims), ("fd_dims", self.fd_dims)):
            if len(dims) == 0:
                raise ConfigError(f"{label} must not be empty")
            for d in dims:
                if not isinstance(d, int) or d < 2 or d % 2:
                    raise ConfigError(f"{label} entries must be even integers >= 2, got {d!r}")
        for name in ("cases", "fd_cases", "points", "t_steps"):
            _require_int(name, getattr(self, name), 1)
        _require_positive("h", self.h)
        _require_positive("t_max", self.t_max)
        for name, tol in self.tolerances.items():
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown tolerance override {name!r}")
            _require_positive(f"tolerance override {name!r}", tol)


def _require_int(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_positive(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")


def _override(config: VerifyConfig, name: str, key: str = "tolerance") -> dict:
    """The keyword argument overriding checker ``name``'s primary tolerance,
    or none, so that the checker's own default applies."""
    if name in config.tolerances:
        return {key: float(config.tolerances[name])}
    return {}


_RUNNERS = {
    "cayley": lambda c: check_cayley(c.seed, c.dims, c.cases, **_override(c, "cayley")),
    "theorem1": lambda c: check_theorem1(c.seed, c.dims, c.cases,
                                         **_override(c, "theorem1")),
    "theorem2": lambda c: check_theorem2(c.seed, c.fd_dims, c.fd_cases, c.points, c.h,
                                         **_override(c, "theorem2")),
    "geodesics": lambda c: check_geodesics(c.seed, c.fd_dims, c.fd_cases, c.points, h=c.h,
                                           t_max=c.t_max, t_steps=c.t_steps,
                                           **_override(c, "geodesics")),
    "curvature_fd": lambda c: check_curvature_fd(c.seed, c.fd_dims, c.fd_cases, c.points,
                                                 h=c.h, **_override(c, "curvature_fd")),
    "metric_structure": lambda c: check_metric_structure(
        c.seed, c.fd_dims, c.fd_cases, c.points, h=c.h, **_override(c, "metric_structure")),
    "totally_geodesic": lambda c: check_totally_geodesic(
        c.seed, c.fd_dims, c.fd_cases, c.points, t_max=c.t_max, t_steps=c.t_steps,
        **_override(c, "totally_geodesic")),
    "signature": lambda c: check_signature(c.seed, c.fd_dims, c.points,
                                           **_override(c, "signature", "threshold")),
}


def run_check(config: VerifyConfig, name: str) -> CheckReport:
    """Run the checker ``name`` (one of CHECK_NAMES) exactly as
    :func:`run_suite` runs it.  ``config`` must already be validated."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown check {name!r}")
    return _RUNNERS[name](config)


def _bundle_reports(config: VerifyConfig) -> list[CheckReport]:
    bundle = config.bundle
    reports = []
    dims = (bundle.space.dim,)
    if bundle.J is not None:
        fr = validate_acs(bundle.J)
        reports.append(_from_field_report("field_acs", fr, config.seed, dims,
                                          [{"name": "acs_identity",
                                            "residual": fr.max_residual,
                                            "tolerance": fr.tolerance}]))
        if bundle.W is not None:
            fr = validate_associated(bundle.J, bundle.W)
            min_eig = float(np.min([e["min_eig"] for e in fr.per_point]))
            reports.append(_from_field_report(
                "field_associated", fr, config.seed, dims,
                [{"name": "invariance", "residual": fr.max_residual,
                  "tolerance": fr.tolerance},
                 {"name": "positivity", "residual": _worst(0.0, 1e-12 - min_eig),
                  "tolerance": 0.0, "min_eig": min_eig}]))
    return reports


def _from_field_report(name: str, fr: FieldReport, seed: int, dims,
                       subchecks) -> CheckReport:
    report = _compose(name, seed, dims, {"worst_point": fr.worst_point},
                      subchecks)
    report.details.extend(_plain(fr.per_point))
    return report


def run_suite(config: VerifyConfig) -> list[CheckReport]:
    """Run every checker with seeds derived from the master seed.

    Returns the reports sorted by checker name; overall success is their
    conjunction.  Only configuration problems raise; check failures are
    reported, not raised.
    """
    config.validate()
    reports = _bundle_reports(config) if config.bundle is not None else []
    reports.extend(run_check(config, name) for name in CHECK_NAMES)
    reports.sort(key=lambda r: r.name)
    return reports


def report_document(reports: list[CheckReport], config: VerifyConfig,
                    input_path: str | None = None) -> dict:
    """Merge reports into one JSON-ready document with stable content."""
    return _plain({
        "passed": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
        "config": {
            "seed": config.seed,
            "dims": list(config.dims),
            "fd_dims": list(config.fd_dims),
            "cases": config.cases,
            "fd_cases": config.fd_cases,
            "points": config.points,
            "h": config.h,
            "t_max": config.t_max,
            "t_steps": config.t_steps,
            "tolerances": dict(config.tolerances),
            "input": input_path,
        },
    })
