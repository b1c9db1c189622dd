"""Geometry of the structure space: metric, 2-form, connection, curvature,
geodesics.

The space of structures carries the integral pairing (A, B) = sum of
w_i tr(A_i B_i) over the sample points, a compatible almost complex
structure A -> A J, and the 2-form Omega(A, B) = (A J, B).  In the
rational chart at a base field all three have closed forms in the
coordinate K, as do the Levi-Civita connection, its curvature and its
geodesics.  Each is computed on the (points, n, n) stacks at once; only
the final sums over the points are accumulated left to right in point
order, so results are reproducible bit for bit.  A chart field checks
its domain once: its base's J0^2 residuals are kept on the base field,
and its coordinate is checked at that base once, where made or remade.

The tangent space at J is the set of J-antilinear maps, and the pairing and
Omega are the real and imaginary parts of one Hermitian trace.  So where a
chart field's base is exactly J_std (``AcsField.is_standard``, an exact
comparison) and K passes the gate of :func:`acsgeom.fiber.antilinear_form`
at every point (antilinear defect at most 64 eps of its largest entry,
``fiber.ANTILINEAR_GATE``), its chart point is complex
(:class:`~acsgeom.charts.ComplexChart`), and the chart functionals compute
on the (n/2) x (n/2) complex forms that each direction keeps
(``TangentField.antilinear_form``), within about kappa 64 eps n relative of
the real formulas, kappa that of 1 - K^2.  Only these complex forms know
the layout of J_std: every other kernel, ``fiber.mat_inv`` and the
exponentials included, is plain real arithmetic.  Each product the
functionals share at one chart point, a direction's S Q and a pair's
trace, is formed once there and kept for as long as the chart point
lives.  Every other input keeps the real route, bit for bit: a base off
J_std, a K or a direction outside the gate, and an array of directions,
such as a family with leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import CayleyCoordinate, same_space
from .fiber import complex_product, complex_trace, mat_exp, mat_tanh_half, real_form
from .structures import AcsField, SampleSpace, TangentField


@dataclass(frozen=True)
class ChartField:
    """A point of the field-level rational chart: base structure field plus
    a coordinate field K.

    Construction builds ``coord``, the :class:`CayleyCoordinate` of the
    fields, the one place a chart point is made, which checks the chart
    domain at every point at once and inverts 1 - K^2 only: the guarded
    resolvents (1 - K^2)^{-1} that every chart functional reads, and the
    chart resolvent (1 - K)^{-1} = (1 + K)(1 - K^2)^{-1} derived from them.
    Each check runs once: J0^2 = -1 is read from the base's kept
    ``square_residuals``, and a :class:`TangentField` is checked against
    its own base where a caller makes it (:meth:`TangentField.derived`
    exempts by design the tangents the geometry computes), so a K made at
    another base field is remade first, as ``TangentField(space, base,
    K.ops)``, before J0^2 = -1 is read.  No other array is admitted.  At
    a base that is exactly J_std (``base.is_standard``) the coordinate
    computes in complex form where K's kept ``antilinear_form`` passes its
    gate (``coord.form``).

    A complex chart point also keeps, in ``kept``, what its functionals
    share: each direction's resolved form X = S Q_X and each ordered pair's
    trace 2 tr(S Q_A S-bar Q_B-bar) (:func:`_pair_trace`), each computed on
    first read.  They are keyed by the ``id`` of the direction's kept
    ``antilinear_form``, and each entry holds that form, so no key is
    reused while the entry lives.  They live as long as the chart point;
    nothing is kept across chart points.
    """

    space: SampleSpace
    base: AcsField
    K: TangentField
    coord: CayleyCoordinate = field(init=False, repr=False, compare=False)
    kept: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        same_space(self, self.base, self.K)
        if self.K.base is not self.base:
            object.__setattr__(self, "K", TangentField(self.space, self.base, self.K.ops))
        object.__setattr__(self, "coord", CayleyCoordinate(self.base, self.K))
        object.__setattr__(self, "kept", {})

    def resolvents(self) -> np.ndarray:
        """(1 - K^2)^{-1} per point, guarded; computed once (on the complex
        route from S, on first read), read-only."""
        return self.coord.square_resolvent


def chart_origin(j: AcsField) -> ChartField:
    """The chart centered at j with coordinate zero."""
    return ChartField(j.space, j, TangentField.derived(j, np.zeros_like(j.ops)))


def shifted(c: ChartField, a: TangentField, h: float) -> ChartField:
    """The chart point with coordinate K + h a (used by difference stencils)."""
    return ChartField(c.space, c.base, TangentField.derived(c.base, c.K.ops + float(h) * a.ops))


# ---------------------------------------------------------------------------
# ambient functionals (fields of structures and tangents, no chart)

# A direction of a per-point terms function: a tangent field, or a
# (..., points, n, n) array of directions
Direction = TangentField | np.ndarray


def _ops(d: Direction) -> np.ndarray:
    return d.ops if isinstance(d, TangentField) else d


def point_order_sum(terms: np.ndarray):
    """Per-point terms summed along the last axis, left to right from 0.0 (no
    sum reads -0.0): a float for one row, an array for a stack of rows.  As in
    a Python loop, an overflow or inf - inf reads inf or NaN without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = 0.0 + np.cumsum(terms, axis=-1)[..., -1]
    return float(sums) if np.ndim(sums) == 0 else sums


def _weighted_traces(space: SampleSpace, products: np.ndarray,
                     scale: float = 1.0) -> np.ndarray:
    """w_i * scale * tr(products_i) per point, for a (..., points, n, n)
    array of products."""
    return space.weights * scale * np.trace(products, axis1=-2, axis2=-1)


def ambient_inner_terms(j: AcsField, a: Direction, b: Direction) -> np.ndarray:
    """The per-point terms w_i tr(A_i B_i) of the pairing (A, B) at J."""
    return _weighted_traces(j.space, _ops(a) @ _ops(b))


def acs_on_tangent(a: TangentField, j: AcsField) -> TangentField:
    """The almost complex structure of the ambient space: A -> A J."""
    same_space(a, j)
    return TangentField.derived(j, a.ops @ j.ops)


def ambient_omega_terms(j: AcsField, a: Direction, b: Direction) -> np.ndarray:
    """The per-point terms w_i tr(A_i J_i B_i) of the 2-form Omega(A, B) at J."""
    return _weighted_traces(j.space, _ops(a) @ j.ops @ _ops(b))


# ---------------------------------------------------------------------------
# chart expressions

def _forms(c: ChartField, *directions: Direction) -> tuple | None:
    """The complex route's forms: each direction's ``antilinear_form``, or
    None, for the real route, unless the chart point and all of them have
    one.  An array of directions has none."""
    if c.coord.form is None or not all(isinstance(d, TangentField) for d in directions):
        return None
    forms = tuple(d.antilinear_form for d in directions)
    return None if any(f is None for f in forms) else forms


def _resolved(c: ChartField, q: np.ndarray) -> np.ndarray:
    """X = S Q, the linear form of (1 - K^2)^{-1} A for the direction of
    form ``q`` at the complex chart point c, kept by c."""
    entry = c.kept.get(id(q))
    if entry is None:
        entry = c.kept[id(q)] = q, complex_product(c.coord.form.s, q)
    return entry[1]


def _pair_trace(c: ChartField, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """2 tr(S Q_A S-bar Q_B-bar) per point, from the kept X_A = S Q_A
    (:func:`_resolved`), and kept by c for the ordered pair: S A S B is the
    linear map of that form, and S A J0 S B, with J0 = J_std acting as i,
    that of -i times it, so the real part is tr(S A S B), which
    :func:`chart_inner_terms` reads, and the imaginary part tr(S A J0 S B),
    which :func:`chart_omega_terms` reads."""
    key = id(qa), id(qb)
    entry = c.kept.get(key)
    if entry is None:
        product = complex_product(_resolved(c, qa), c.coord.form.s.conj())
        entry = c.kept[key] = qa, qb, complex_trace(product, qb.conj())
    return entry[2]


def chart_inner_terms(c: ChartField, a: Direction, b: Direction) -> np.ndarray:
    """The per-point terms 4 w_i tr(S_i A_i S_i B_i) of :func:`chart_inner`,
    S = (1-K^2)^{-1}.  ``a`` and ``b`` are tangent fields at the chart's
    points, or (..., points, n, n) arrays of directions; their leading axes
    broadcast, so one call pairs whole families of directions.  Where the
    chart point and both fields have complex forms each term is 4 w_i times
    the real part of 2 tr(S Q_A S-bar Q_B-bar) (:func:`_pair_trace`)."""
    forms = _forms(c, a, b)
    if forms is not None:
        return c.space.weights * 4.0 * _pair_trace(c, *forms).real
    res = c.resolvents()
    return _weighted_traces(c.space, res @ _ops(a) @ res @ _ops(b), 4.0)


def chart_inner(c: ChartField, a: TangentField, b: TangentField) -> float:
    """The pairing in chart coordinates:
    4 sum of w_i tr((1-K^2)^{-1} A (1-K^2)^{-1} B)."""
    same_space(c.K, a, b)
    return point_order_sum(chart_inner_terms(c, a, b))


def chart_omega_terms(c: ChartField, a: Direction, b: Direction) -> np.ndarray:
    """The per-point terms 4 w_i tr(S_i A_i J0_i S_i B_i) of
    :func:`chart_omega`, S = (1-K^2)^{-1}, for directions as in
    :func:`chart_inner_terms`; on the complex route the imaginary parts of
    the same traces."""
    forms = _forms(c, a, b)
    if forms is not None:
        return c.space.weights * 4.0 * _pair_trace(c, *forms).imag
    res = c.resolvents()
    return _weighted_traces(c.space, res @ _ops(a) @ c.base.ops @ res @ _ops(b), 4.0)


def chart_omega(c: ChartField, a: TangentField, b: TangentField) -> float:
    """The 2-form in chart coordinates:
    4 sum of w_i tr((1-K^2)^{-1} A J0 (1-K^2)^{-1} B)."""
    same_space(c.K, a, b)
    return point_order_sum(chart_omega_terms(c, a, b))


def christoffel(c: ChartField, a: TangentField, b: TangentField) -> TangentField:
    """Connection coefficients at the chart point c for constant fields:
    Gamma(A, B) = A K (1-K^2)^{-1} B + B K (1-K^2)^{-1} A; on the complex
    route Q_A Q_K-bar S Q_B + Q_B Q_K-bar S Q_A, with Q_K-bar S = R-bar
    read from the chart point."""
    same_space(c.K, a, b)
    forms = _forms(c, a, b)
    if forms is not None:
        qa, qb = forms
        ks = c.coord.form.r.conj()
        gamma = (complex_product(complex_product(qa, ks), qb)
                 + complex_product(complex_product(qb, ks), qa))
        return TangentField.derived(c.base, real_form(antilinear=gamma))
    k, res = c.K.ops, c.resolvents()
    stack = a.ops @ k @ res @ b.ops + b.ops @ k @ res @ a.ops
    return TangentField.derived(c.base, stack)


def curvature(c: ChartField, a: TangentField, b: TangentField,
              d: TangentField) -> TangentField:
    """Curvature in chart coordinates:
    R(A, B) D = -(1-K^2) [[X, Y], Z] with X = (1-K^2)^{-1} A and so on;
    1 - K^2 is the chart point's own.  On the complex route X = S Q_A,
    [X, Y] = X Y-bar - Y X-bar, a linear form L, and [L, Z] = L Z - Z L-bar,
    with X, Y and Z the chart point's kept resolved forms (:func:`_resolved`),
    so a direction read again, as d is b, is resolved once.  The route
    depends on a, b and d alike, and swapping a and b negates L exactly, so
    R(A, B) D = -R(B, A) D and R(A, A) D = 0 hold bit for bit on either
    route."""
    same_space(c.K, a, b, d)
    forms = _forms(c, a, b, d)
    if forms is not None:
        x, y, z = (_resolved(c, q) for q in forms)
        xy = complex_product(x, y.conj()) - complex_product(y, x.conj())
        bracket = complex_product(xy, z) - complex_product(z, xy.conj())
        stack = real_form(antilinear=-complex_product(c.coord.form.p, bracket))
        return TangentField.derived(c.base, stack)
    res = c.resolvents()
    x, y, z = res @ a.ops, res @ b.ops, res @ d.ops
    xy = x @ y - y @ x
    stack = -c.coord.square @ (xy @ z - z @ xy)
    return TangentField.derived(c.base, stack)


# ---------------------------------------------------------------------------
# geodesics

def geodesic_chart(a: TangentField, t: float) -> TangentField:
    """Chart coordinate of the geodesic through the base with velocity a:
    K(t) = tanh((t/2) A) per point, from the velocity's kept Pade basis
    (``a.pade``), so a sweep over t builds A's routes once; each slice
    takes its route at t / 2.

    The curve satisfies K'' + Gamma(K', K') = 0 with Gamma the bilinear
    connection term returned by :func:`christoffel`.
    """
    return TangentField.derived(a.base, mat_tanh_half(a.pade, t))


def geodesic_ambient(j0: AcsField, a: TangentField, t: float) -> AcsField:
    """The same geodesic as a structure field: J(t) = J0 exp(t A), from
    the velocity's kept Pade basis, as :func:`geodesic_chart`."""
    same_space(j0, a)
    return AcsField(a.space, j0.ops @ mat_exp(a.pade, t))
