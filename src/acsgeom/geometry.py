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
and a coordinate made at that base was checked where it was made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import CayleyCoordinate
from .fiber import mat_tanh_half, mat_exp
from .structures import AcsField, SampleSpace, TangentField, same_space


@dataclass(frozen=True)
class ChartField:
    """A point of the field-level rational chart: base structure field plus
    a coordinate field K.

    Construction builds ``coord``, the :class:`CayleyCoordinate` of the
    stacks, which checks the chart domain at every point at once and
    inverts 1 - K^2 only: the guarded resolvents (1 - K^2)^{-1} that every
    chart functional reads, and the chart resolvent
    (1 - K)^{-1} = (1 + K)(1 - K^2)^{-1} derived from them.  Each check
    runs once: J0^2 = -1 is read from the base's kept
    ``square_residuals``, and the anticommutation of K is checked only
    when K was made at another base field, since a :class:`TangentField`
    is checked against its own base where a caller makes it
    (:meth:`TangentField.derived` exempts by design the tangents the
    geometry computes).  No array is admitted again: the base's stack, and
    K's when made at that base, are the fields' own, taken as they are.
    """

    space: SampleSpace
    base: AcsField
    K: TangentField
    coord: CayleyCoordinate = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        same_space(self, self.base, self.K)
        object.__setattr__(self, "coord", CayleyCoordinate(
            self.base.ops, self.K.ops, base_residuals=self.base.square_residuals,
            anticommuting=self.K.base is self.base))

    def resolvents(self) -> np.ndarray:
        """(1 - K^2)^{-1} per point, guarded; computed once, read-only."""
        return self.coord.square_resolvent


def chart_origin(j: AcsField) -> ChartField:
    """The chart centered at j with coordinate zero."""
    return ChartField(j.space, j, TangentField.derived(j, np.zeros_like(j.ops)))


def shifted(c: ChartField, a: TangentField, h: float) -> ChartField:
    """The chart point with coordinate K + h a (used by difference stencils)."""
    return ChartField(c.space, c.base, TangentField.derived(c.base, c.K.ops + float(h) * a.ops))


# ---------------------------------------------------------------------------
# ambient functionals (fields of structures and tangents, no chart)

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


def ambient_inner_terms(j: AcsField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The per-point terms w_i tr(A_i B_i) of the pairing (A, B) at J."""
    return _weighted_traces(j.space, a @ b)


def acs_on_tangent(a: TangentField, j: AcsField) -> TangentField:
    """The almost complex structure of the ambient space: A -> A J."""
    same_space(a, j)
    return TangentField.derived(j, a.ops @ j.ops)


def ambient_omega_terms(j: AcsField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The per-point terms w_i tr(A_i J_i B_i) of the 2-form Omega(A, B) at J."""
    return _weighted_traces(j.space, a @ j.ops @ b)


# ---------------------------------------------------------------------------
# chart expressions

def chart_inner_terms(c: ChartField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The per-point terms 4 w_i tr(S_i A_i S_i B_i) of :func:`chart_inner`,
    S = (1-K^2)^{-1}.  ``a`` and ``b`` are (..., points, n, n) arrays of
    directions at the chart's points; their leading axes broadcast, so one
    call pairs whole families of directions."""
    res = c.resolvents()
    return _weighted_traces(c.space, res @ a @ res @ b, 4.0)


def chart_inner(c: ChartField, a: TangentField, b: TangentField) -> float:
    """The pairing in chart coordinates:
    4 sum of w_i tr((1-K^2)^{-1} A (1-K^2)^{-1} B)."""
    same_space(c.K, a, b)
    return point_order_sum(chart_inner_terms(c, a.ops, b.ops))


def chart_omega_terms(c: ChartField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The per-point terms 4 w_i tr(S_i A_i J0_i S_i B_i) of
    :func:`chart_omega`, S = (1-K^2)^{-1}."""
    res = c.resolvents()
    return _weighted_traces(c.space, res @ a @ c.base.ops @ res @ b, 4.0)


def chart_omega(c: ChartField, a: TangentField, b: TangentField) -> float:
    """The 2-form in chart coordinates:
    4 sum of w_i tr((1-K^2)^{-1} A J0 (1-K^2)^{-1} B)."""
    same_space(c.K, a, b)
    return point_order_sum(chart_omega_terms(c, a.ops, b.ops))


def christoffel(c: ChartField, a: TangentField, b: TangentField) -> TangentField:
    """Connection coefficients at the chart point c for constant fields:
    Gamma(A, B) = A K (1-K^2)^{-1} B + B K (1-K^2)^{-1} A."""
    same_space(c.K, a, b)
    k, res = c.K.ops, c.resolvents()
    stack = a.ops @ k @ res @ b.ops + b.ops @ k @ res @ a.ops
    return TangentField.derived(c.base, stack)


def curvature(c: ChartField, a: TangentField, b: TangentField,
              d: TangentField) -> TangentField:
    """Curvature in chart coordinates:
    R(A, B) D = -(1-K^2) [[X, Y], Z] with X = (1-K^2)^{-1} A and so on;
    1 - K^2 is the chart point's own."""
    same_space(c.K, a, b, d)
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
    (``a.pade``), so a sweep over t pays for A's powers once.

    The curve satisfies K'' + Gamma(K', K') = 0 with Gamma the bilinear
    connection term returned by :func:`christoffel`.
    """
    return TangentField.derived(a.base, mat_tanh_half(a.pade, t))


def geodesic_ambient(j0: AcsField, a: TangentField, t: float) -> AcsField:
    """The same geodesic as a structure field: J(t) = J0 exp(t A), from
    the velocity's kept Pade basis, as :func:`geodesic_chart`."""
    same_space(j0, a)
    return AcsField(a.space, j0.ops @ mat_exp(a.pade, t))
