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

import inspect
import math
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .charts import (
    CayleyCoordinate,
    acs_to_cayley,
    cayley_to_acs,
    pushforward,
    random_anticommuting,
    shape_anticommuting,
    standard_acs,
)
from .errors import ConfigError, GeometryError
from .fiber import max_abs
from .geometry import (
    ChartField,
    acs_on_tangent,
    ambient_inner_terms,
    ambient_omega_terms,
    chart_inner_terms,
    chart_omega_terms,
    chart_origin,
    christoffel,
    curvature,
    geodesic_ambient,
    geodesic_chart,
    point_order_sum,
    shifted,
)
from .structures import (
    MAX_FIBER_DIM,
    POSITIVITY_FLOOR,
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
        return _plain(vars(self))


def _plain(value):
    """Recursively convert numpy scalars and containers to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


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


def _sub(name: str, residual: float, tolerance: float, **extra) -> dict:
    """One sub-check record; ``extra`` holds its diagnostic values."""
    return {"name": name, "residual": residual, "tolerance": tolerance, **extra}


def _compose(name: str, args: dict, subchecks: list) -> CheckReport:
    """Merge sub-checks into one report, keeping the binding constraint.

    Of the checker's arguments ``args``, all but seed and dims are echoed
    as the report's params."""
    for sub in subchecks:
        sub["passed"] = _ratio(sub["residual"], sub["tolerance"]) <= 1.0
    worst = max(subchecks, key=_rank)
    passed = all(s["passed"] for s in subchecks)
    params = {k: v for k, v in args.items() if k not in ("seed", "dims")}
    return CheckReport(name, passed, float(worst["residual"]),
                       float(worst["tolerance"]), args["seed"], tuple(args["dims"]),
                       _plain(params), _plain(subchecks))


def _worst(*values: float) -> float:
    """The largest of the values, NaN if any is NaN (Python's ``max``
    drops a NaN that is not its first argument, and a NaN must not pass)."""
    return float(np.max(values))


def _positivity(name: str, min_eig: float) -> dict:
    """The sub-check that a smallest eigenvalue exceeds POSITIVITY_FLOOR."""
    return _sub(name, _worst(0.0, POSITIVITY_FLOOR - min_eig), 0.0, min_eig=min_eig)


def _outside(value: float, lo: float, hi: float) -> float:
    """Distance of value from the closed interval [lo, hi] (0 inside)."""
    return _worst(0.0, lo - value, value - hi)


def fd_directional(f, c: ChartField, a: TangentField, h: float):
    """Central difference of a chart functional along a:
    (f(K + hA) - f(K - hA)) / (2h), error O(h^2) for smooth f.  ``f`` gives
    a scalar, or an array of them (one per case), differenced entrywise."""
    if not h > 0:
        raise ValueError("step size h must be positive")
    return (f(shifted(c, a, h)) - f(shifted(c, a, -h))) / (2.0 * float(h))


def geodesic_equation_residual(a: TangentField, t: float, h: float) -> float:
    """Max-norm residual of K'' + Gamma(K', K') = 0 at time t along the
    chart geodesic K(t) = tanh((t/2) A), by central differences of step h;
    NaN where t + h or t - h rounds to t and the stencil collapses."""
    if t + h == t or t - h == t:
        return math.nan
    kp, kc, km = (geodesic_chart(a, s) for s in (t + h, t, t - h))
    kdot = TangentField.derived(a.base, (kp.ops - km.ops) / (2.0 * h))
    kdd = (kp.ops - 2.0 * kc.ops + km.ops) / h**2
    gamma = christoffel(ChartField(a.space, a.base, kc), kdot, kdot)
    return max_abs(kdd + gamma.ops)


# ---------------------------------------------------------------------------
# checkers

class _Cases:
    """The cases of a checker at one dim, drawn per case and computed per
    stack.  ``uniform`` draws like one generator: a draw whose leading size
    is ``count * m`` takes m rows from each case's own generator in turn, so
    the cases lie one after another on the leading (point) axis.  A max-norm
    residual over a stack is the max over the cases."""

    def __init__(self, seed: int, name: str, dim: int, count: int):
        self.rngs = [derive_rng(seed, name, dim, case) for case in range(count)]

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        rows, *rest = np.atleast_1d(size)
        return np.concatenate([rng.uniform(low, high, (rows // len(self.rngs), *rest))
                               for rng in self.rngs])

    def sums(self, terms: np.ndarray) -> np.ndarray:
        """Per case, the point-order sum of the per-point terms of its points."""
        return np.array([point_order_sum(t) for t in terms.reshape(len(self.rngs), -1)])

    def pairing(self, terms, at, x: TangentField, y: TangentField) -> np.ndarray:
        """Per case, the pairing of x and y whose per-point terms ``terms`` gives."""
        return self.sums(terms(at, x.ops, y.ops))


def _case_draws(seed: int, name: str, dim: int, cases: int, count: int,
                bound: float) -> tuple[np.ndarray, ...]:
    """The standard structure and ``count`` anticommuting draws per case as
    (cases, n, n) stacks, each case drawing from its own generator."""
    j0 = np.tile(standard_acs(dim), (cases, 1, 1))
    by_case = _Cases(seed, name, dim, cases)
    return (j0, *(random_anticommuting(by_case, j0, bound=bound) for _ in range(count)))


def _case_space(seed: int, name: str, dim: int, cases: int, points: int):
    """The cases, a random sample space of ``cases * points`` points drawn
    from them and the standard structure on it."""
    by_case = _Cases(seed, name, dim, cases)
    space = random_sample_space(by_case, dim, cases * points)
    return by_case, space, standard_acs_field(space)


def check_cayley(seed: int = 0, dims=(2, 4, 6), cases: int = 100,
                 tolerance: float = 1e-9, acs_tolerance: float = 1e-10,
                 bound: float = 0.9) -> CheckReport:
    """Chart bijection: coordinate -> structure -> coordinate round trip,
    and validity of every produced structure."""
    args = dict(locals())
    subs = []
    for dim in dims:
        j0, k = _case_draws(seed, "cayley", dim, cases, 1, bound)
        j = cayley_to_acs(CayleyCoordinate(j0, k))
        subs += [_sub(f"roundtrip_dim{dim}", max_abs(acs_to_cayley(j0, j).K - k), tolerance),
                 _sub(f"acs_identity_dim{dim}", max_abs(j @ j + np.eye(dim)), acs_tolerance)]
    return _compose("cayley", args, subs)


def check_theorem1(seed: int = 0, dims=(2, 4, 6), cases: int = 100,
                   tolerance: float = 1e-9, bound: float = 0.9) -> CheckReport:
    """Pushforward intertwines the complex structures:
    pushforward(A J0) = pushforward(A) J_K."""
    args = dict(locals())
    subs = []
    for dim in dims:
        j0, k, a = _case_draws(seed, "theorem1", dim, cases, 2, bound)
        coord = CayleyCoordinate(j0, k)
        jk = cayley_to_acs(coord)
        worst = max_abs(pushforward(coord, a @ j0) - pushforward(coord, a) @ jk)
        subs.append(_sub(f"intertwine_dim{dim}", worst, tolerance))
    return _compose("theorem1", args, subs)


def _omega_terms(c: ChartField, a0: TangentField, a1: TangentField,
                 a2: TangentField, h: float, by_case: _Cases) -> tuple[np.ndarray, ...]:
    """Per case, the three directional-derivative terms of
    d Omega(a0, a1, a2) at c."""
    return tuple(fd_directional(lambda cc: by_case.pairing(chart_omega_terms, cc, x, y), c, d, h)
                 for d, x, y in ((a0, a1, a2), (a1, a0, a2), (a2, a0, a1)))


def _omega_ray_derivative(ray: ChartField, a0: TangentField, a1: TangentField,
                          a2: TangentField, t: float, by_case: _Cases) -> np.ndarray:
    """Per case, the exact d/dt of chart_omega along K = t a0 at ``ray``,
    the chart point t a0, from the resolvent derivative
    d/dt (1 - t^2 A^2)^{-1} = S (2t A^2) S, with S the ray's resolvents."""
    x, b1, j0, b2 = a0.ops, a1.ops, ray.base.ops, a2.ops
    s = ray.resolvents()
    ds = s @ ((2.0 * t) * (x @ x)) @ s
    traces = (np.trace(ds @ b1 @ j0 @ s @ b2, axis1=1, axis2=2)
              + np.trace(s @ b1 @ j0 @ ds @ b2, axis1=1, axis2=2))
    return by_case.sums(ray.space.weights * 4.0 * traces)


def check_theorem2(seed: int = 0, dims=(2, 4), cases: int = 3, points: int = 8,
                   h: float = 1e-4, tolerance: float = 1e-6,
                   factor_window=(2.5, 6.0), ray_t: float = 0.3,
                   bound: float = 0.9) -> CheckReport:
    """Closedness of the 2-form: every directional-derivative term of
    d Omega vanishes at the chart center, both at the reference structure
    and after recentering at a random chart point; plus an order-2
    convergence check of the difference stencil against the analytic
    derivative along a coordinate ray."""
    args = dict(locals())
    subs = []
    for dim in dims:
        by_case, space, j0f = _case_space(seed, "theorem2", dim, cases, points)
        a0, a1, a2 = (random_tangent_field(by_case, j0f, bound=bound) for _ in range(3))
        c0 = chart_origin(j0f)
        t0, t1, t2 = _omega_terms(c0, a0, a1, a2, h, by_case)

        # recenter: the same statement in the chart of a random J_K
        k1 = random_tangent_field(by_case, j0f, bound=bound)
        j1f = AcsField(space, cayley_to_acs(CayleyCoordinate(j0f.ops, k1.ops)))
        b0, b1, b2 = (random_tangent_field(by_case, j1f, bound=bound) for _ in range(3))
        s0, s1, s2 = _omega_terms(chart_origin(j1f), b0, b1, b2, h, by_case)

        # order-2 convergence, measured against the analytic value on
        # the off-center ray K = t a0 (the stencil at the center is
        # exactly zero and carries no signal)
        half = random_tangent_field(by_case, j0f, bound=0.5)
        ray = ChartField(space, j0f, TangentField.derived(j0f, ray_t * half.ops))
        exact = _omega_ray_derivative(ray, half, a1, a2, ray_t, by_case)
        r_h, r_h2 = (np.abs(fd_directional(lambda c: by_case.pairing(chart_omega_terms, c, a1, a2),
                                          ray, half, step) - exact) for step in (h, h / 2.0))
        worst = int(np.argmax(r_h))  # the binding case: largest r_h, a NaN first
        factor = r_h[worst] / r_h2[worst] if r_h2[worst] > 0.0 else float("inf")
        subs += [_sub(f"terms_dim{dim}", max_abs([t0, t1, t2, s0, s1, s2]), tolerance),
                 _sub(f"alternating_sum_dim{dim}", max_abs([t0 - t1 + t2, s0 - s1 + s2]),
                      tolerance),
                 _sub(f"fd_order_dim{dim}", _outside(factor, *factor_window), 0.0,
                      factor=factor, window=factor_window)]
    return _compose("theorem2", args, subs)


def check_geodesics(seed: int = 0, dims=(2, 4), cases: int = 3, points: int = 8,
                    t_grid=(0.2, 0.6, 1.0), h: float = 1e-4,
                    tolerance: float = 1e-6, chart_tolerance: float = 1e-9,
                    t_max: float = 2.0, t_steps: int = 9,
                    bound: float = 0.9) -> CheckReport:
    """Geodesic equation K'' + Gamma(K', K') = 0 by central differences,
    and chart/ambient consistency of the two geodesic descriptions."""
    args = dict(locals())
    full_grid = np.linspace(0.0, t_max, t_steps).tolist()
    subs = []
    for dim in dims:
        by_case, _, j0f = _case_space(seed, "geodesics", dim, cases, points)
        a = random_tangent_field(by_case, j0f, bound=bound)
        ode = [geodesic_equation_residual(a, t, h) for t in t_grid]
        chart = [max_abs(acs_to_cayley(j0f.ops, geodesic_ambient(j0f, a, t).ops).K
                         - geodesic_chart(a, t).ops) for t in full_grid]
        subs += [_sub(f"ode_residual_dim{dim}", max_abs(ode), tolerance),
                 _sub(f"chart_ambient_dim{dim}", max_abs(chart), chart_tolerance)]
    return _compose("geodesics", args, subs)


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
    args = dict(locals())
    subs = []
    for dim in dims:
        by_case, space, j0f = _case_space(seed, "curvature_fd", dim, cases, points)
        k = random_tangent_field(by_case, j0f, bound=k_bound)
        a, b, d = (random_tangent_field(by_case, j0f, bound=bound) for _ in range(3))
        c = ChartField(space, j0f, k)
        closed = curvature(c, a, b, d).ops

        def grad(direction: TangentField, x: TangentField, y: TangentField):
            return fd_directional(lambda cc: christoffel(cc, x, y).ops, c, direction, h)

        term_a = grad(a, b, d) + christoffel(c, a, christoffel(c, b, d)).ops
        term_b = grad(b, a, d) + christoffel(c, b, christoffel(c, a, d)).ops
        flat = curvature(chart_origin(j0f), a, b, d).ops
        ab = a.ops @ b.ops - b.ops @ a.ops
        bianchi = closed + curvature(c, b, d, a).ops + curvature(c, d, a, b).ops
        subs += [_sub(f"fd_match_dim{dim}", max_abs(term_a - term_b - closed), tolerance),
                 _sub(f"antisymmetry_dim{dim}", max_abs(curvature(c, b, a, d).ops + closed), 0.0),
                 _sub(f"self_pair_dim{dim}", max_abs(curvature(c, a, a, d).ops), 0.0),
                 _sub(f"bianchi_dim{dim}", max_abs(bianchi), bianchi_tolerance),
                 _sub(f"origin_closed_form_dim{dim}", max_abs(flat + (ab @ d.ops - d.ops @ ab)),
                      origin_tolerance)]
    return _compose("curvature_fd", args, subs)


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
    args = dict(locals())
    subs = []
    for dim in dims:
        by_case, space, j0f = _case_space(seed, "metric_structure", dim, cases, points)
        total = by_case.pairing
        a, b = (random_tangent_field(by_case, j0f, bound=bound) for _ in range(2))
        ja, jb = acs_on_tangent(a, j0f), acs_on_tangent(b, j0f)
        r_herm = max_abs(total(ambient_inner_terms, j0f, ja, jb)
                         - total(ambient_inner_terms, j0f, a, b))
        r_omega = max_abs(total(ambient_omega_terms, j0f, a, b)
                          - total(ambient_inner_terms, j0f, ja, b))

        # chart expressions against pushforwards at a random chart point
        k = random_tangent_field(by_case, j0f, bound=bound)
        c = ChartField(space, j0f, k)
        jkf = AcsField(space, cayley_to_acs(c.coord))
        astar, bstar = pushforward(c.coord, a.ops), pushforward(c.coord, b.ops)
        omega = total(chart_omega_terms, c, a, b)
        r_ci = max_abs(total(chart_inner_terms, c, a, b)
                       - by_case.sums(ambient_inner_terms(jkf, astar, bstar)))
        r_co = max_abs(omega - by_case.sums(ambient_omega_terms(jkf, astar, bstar)))
        r_compat = max_abs(omega - total(chart_inner_terms, c, ja, b))

        # connection compatibility: d_A (B,C) = (Gamma(A,B), C) + (B, Gamma(A,C))
        kf = random_tangent_field(by_case, j0f, bound=k_bound)
        cf = ChartField(space, j0f, kf)
        d = random_tangent_field(by_case, j0f, bound=bound)
        lhs = fd_directional(lambda ch: total(chart_inner_terms, ch, b, d), cf, a, h)
        rhs = total(chart_inner_terms, cf, christoffel(cf, a, b), d) \
            + total(chart_inner_terms, cf, b, christoffel(cf, a, d))
        subs += [_sub(f"metric_compat_fd_dim{dim}", max_abs(lhs - rhs), tolerance),
                 _sub(f"hermitian_dim{dim}", r_herm, hermitian_tolerance),
                 _sub(f"omega_is_inner_dim{dim}", r_omega, omega_tolerance),
                 _sub(f"chart_ambient_inner_dim{dim}", r_ci, chart_ambient_tolerance),
                 _sub(f"chart_ambient_omega_dim{dim}", r_co, chart_ambient_tolerance),
                 _sub(f"omega_compat_dim{dim}", r_compat, compat_tolerance)]
    return _compose("metric_structure", args, subs)


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
    args = dict(locals())
    grid = np.linspace(0.0, t_max, t_steps).tolist()
    subs = []
    for dim in dims:
        by_case, space, j0f = _case_space(seed, "totally_geodesic", dim, cases, points)
        a_sym = random_tangent_field(by_case, j0f, part="symmetric", bound=bound)
        wf = standard_symplectic_field(space)
        reports = [validate_associated(geodesic_ambient(j0f, a_sym, t), wf, tol=tolerance)
                   for t in grid]
        res, eigs = zip(*[(r.residuals, r.values["min_eig"]) for r in reports])
        subs += [_sub(f"associated_invariance_dim{dim}", max_abs(res), tolerance),
                 _positivity(f"associated_positivity_dim{dim}", float(np.min(eigs)))]
        if dim >= 4:
            a_anti = random_tangent_field(by_case, j0f, part="antisymmetric", bound=bound)
            gf = identity_metric_field(space)
            reports = [validate_orthogonal(geodesic_ambient(j0f, a_anti, t), gf, j0f,
                                           tol=orthogonal_tolerance) for t in grid]
            res, marks, refs = zip(*[(r.residuals, r.values["orientation"],
                                      r.values["reference_orientation"]) for r in reports])
            subs += [_sub(f"orthogonal_invariance_dim{dim}", max_abs(res), orthogonal_tolerance),
                     _sub(f"orientation_preserved_dim{dim}",
                          float(np.count_nonzero(np.not_equal(marks, refs))), 0.0)]
        else:
            subs.append(_sub(f"antisymmetric_trivial_dim{dim}", 0.0, 0.0,
                             note="antisymmetric tangent space is {0} at dim 2"))
    return _compose("totally_geodesic", args, subs)


def _anticommuting_part_basis(j0: np.ndarray, part: str) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the anticommuting matrices that are
    plain-symmetric ('symmetric') or plain-antisymmetric ('antisymmetric')."""
    dim = j0.shape[0]
    units = np.eye(dim * dim).reshape(-1, dim, dim)
    basis: list[np.ndarray] = []
    for m in shape_anticommuting(units, j0, part=part, bound=np.inf):
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
    args = dict(locals())
    subs = []
    for dim in dims:
        _, _, j0f = _case_space(seed, "signature", dim, 1, points)
        j0 = standard_acs(dim)
        n = dim // 2
        sym_basis = _anticommuting_part_basis(j0, "symmetric")
        anti_basis = _anticommuting_part_basis(j0, "antisymmetric")
        dim_residual = float(abs(len(sym_basis) - (n * n + n))
                             + abs(len(anti_basis) - (n * n - n)))
        subs.append(_sub(f"basis_dims_dim{dim}", dim_residual, 0.0,
                         sym_count=len(sym_basis), antisym_count=len(anti_basis)))

        c0 = chart_origin(j0f)

        def gram_eigs(fiber_basis):
            """Sorted eigenvalues of the Gram matrix on the fields that are one
            basis element at one point: block diagonal, one block per point,
            of which only the pairs i <= j are read."""
            e = np.array(fiber_basis)
            terms = chart_inner_terms(c0, e[:, None, None], e[None, :, None])
            blocks = np.moveaxis(terms, -1, 0)
            return np.sort(np.linalg.eigvalsh(blocks, UPLO="U"), axis=None)

        lo = float(gram_eigs(sym_basis)[0])
        subs.append(_sub(f"symmetric_positive_dim{dim}", _worst(0.0, threshold - lo), 0.0,
                         min_eig=lo))
        if anti_basis:
            hi = float(gram_eigs(anti_basis)[-1])
            subs.append(_sub(f"antisymmetric_negative_dim{dim}", _worst(0.0, hi + threshold),
                             0.0, max_eig=hi))
            lo, hi = (float(x) for x in gram_eigs(sym_basis + anti_basis)[[0, -1]])
            subs.append(_sub(f"full_indefinite_dim{dim}",
                             _worst(0.0, lo + threshold, threshold - hi), 0.0,
                             min_eig=lo, max_eig=hi))
    return _compose("signature", args, subs)


# ---------------------------------------------------------------------------
# suite

# Size caps, refused before anything is allocated: the entries of one stack a
# checker builds at its largest dim, fd_cases * points * dim**2 (the fd cases
# side by side on the point axis), points * (dim**2 / 2)**2 * dim**2 (the Gram
# stack of signature, capped only where signature runs) and cases * dim**2 (the
# algebraic ones); the grid length.
MAX_STACK_ENTRIES = 2**22
MAX_T_STEPS = 10**6
# The command-line flag that sets each field, named in validation messages.
FLAGS = {"seed": "--seed", "dims": "--dim", "fd_dims": "--dim", "points": "--points",
         "t_steps": "--t-steps", "h": "--h", "t_max": "--t-max"}


def tolerance_flag(name: str) -> str:
    """The command-line flag that overrides the tolerance of check ``name``."""
    return f"--tol-{name.replace('_', '-')}"


def _named(name: str) -> str:
    """A field name for a validation message, with the flag that sets it."""
    return f"{name} ({FLAGS[name]})" if name in FLAGS else name


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

    def validate(self, checks=CHECK_NAMES) -> None:
        """Raise :class:`ConfigError` for any value the checkers cannot use.

        The size cap of a stack only one checker builds applies when
        ``checks`` (by default all of CHECK_NAMES) names that checker.  The
        command line validates its settings here too, so each rule is
        stated once; each message names the flag that sets the value.
        """
        _require_int("seed", self.seed, 0)
        for label, dims in (("dims", self.dims), ("fd_dims", self.fd_dims)):
            if len(dims) == 0:
                raise ConfigError(f"{_named(label)} must not be empty")
            for d in dims:
                if not isinstance(d, int) or d < 2 or d % 2 or d > MAX_FIBER_DIM:
                    raise ConfigError(f"{_named(label)} entries must be even integers "
                                      f"from 2 to {MAX_FIBER_DIM}, got {d!r}")
        for name in ("cases", "fd_cases", "points", "t_steps"):
            _require_int(name, getattr(self, name), 1)
        dim = max(*self.dims, *self.fd_dims)
        if self.fd_cases * self.points * dim**2 > MAX_STACK_ENTRIES:
            raise ConfigError(f"fd_cases * points * dim**2 ({FLAGS['points']}, {FLAGS['dims']}) "
                              f"must be at most {MAX_STACK_ENTRIES}, got {self.fd_cases} cases "
                              f"of {self.points} points at dim {dim}")
        top = max(self.fd_dims)  # the largest dim signature runs at
        if "signature" in checks and self.points * (top**2 // 2)**2 * top**2 > MAX_STACK_ENTRIES:
            raise ConfigError(f"points * (dim**2 / 2)**2 * dim**2 ({FLAGS['points']}, "
                              f"{FLAGS['dims']}) must be at most {MAX_STACK_ENTRIES}, "
                              f"got {self.points} points at dim {top}")
        if self.cases * max(self.dims)**2 > MAX_STACK_ENTRIES:
            raise ConfigError(f"cases * dim**2 must be at most {MAX_STACK_ENTRIES}, "
                              f"got {self.cases} cases at dim {max(self.dims)}")
        if self.t_steps > MAX_T_STEPS:
            raise ConfigError(f"{_named('t_steps')} must be at most {MAX_T_STEPS}, "
                              f"got {self.t_steps}")
        _require_positive("h", self.h)
        least = math.sqrt(np.finfo(float).tiny)  # the least h whose square is a normal float
        if self.h < least:
            raise ConfigError(f"{_named('h')} must be at least {least!r}, got {self.h!r}")
        _require_positive("t_max", self.t_max)
        for name, tol in self.tolerances.items():
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown tolerance override {name!r}")
            _require_positive(f"tolerance override {name!r} ({tolerance_flag(name)})", tol)


def _require_int(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{_named(name)} must be an integer >= {least}, got {value!r}")


def _require_positive(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{_named(name)} must be a finite positive number, got {value!r}")


def run_check(config: VerifyConfig, name: str) -> CheckReport:
    """Run the checker ``name`` (one of CHECK_NAMES) exactly as
    :func:`run_suite` runs it.  ``config`` must already be validated.

    The checker, looked up in this module at call time, gets the config
    values its signature names and any override of its primary tolerance.
    The two algebraic checks take ``dims`` and ``cases``; the others take
    ``fd_dims`` and ``fd_cases`` in their place.  A :class:`GeometryError`
    the checker raises is raised again, as the same type, with a prefix
    that names the check and the flags of the values it took.
    """
    if name not in CHECK_NAMES:
        raise ConfigError(f"unknown check {name!r}")
    check = globals()[f"check_{name}"]
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    if name not in ("cayley", "theorem1"):
        values.update(dims=config.fd_dims, cases=config.fd_cases)
    if name in config.tolerances:
        key = "threshold" if name == "signature" else "tolerance"
        values[key] = float(config.tolerances[name])
    wanted = inspect.signature(check).parameters
    taken = {k: v for k, v in values.items() if k in wanted}
    try:
        return check(**taken)
    except GeometryError as exc:
        flags = ", ".join(dict.fromkeys(FLAGS[k] for k in taken if k in FLAGS))
        raise type(exc)(f"check {name} fails ({flags}): {exc}") from None


def _bundle_reports(config: VerifyConfig) -> list[CheckReport]:
    bundle = config.bundle
    reports = []
    args = {"seed": config.seed, "dims": (bundle.space.dim,)}
    if bundle.J is not None:
        fr = validate_acs(bundle.J)
        reports.append(_from_field_report("field_acs", fr, args, [
            _sub("acs_identity", fr.max_residual, fr.tolerance)]))
        if bundle.W is not None:
            fr = validate_associated(bundle.J, bundle.W)
            reports.append(_from_field_report("field_associated", fr, args, [
                _sub("invariance", fr.max_residual, fr.tolerance),
                _positivity("positivity", float(np.min(fr.values["min_eig"])))]))
    return reports


def _from_field_report(name: str, fr: FieldReport, args: dict, subchecks: list) -> CheckReport:
    report = _compose(name, {**args, "worst_point": fr.worst_point}, subchecks)
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
        "config": {**{f.name: getattr(config, f.name) for f in fields(VerifyConfig)
                      if f.name != "bundle"},
                   "input": input_path},
    })
