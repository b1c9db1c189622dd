"""Geometry of the structure space: metric, 2-form, connection, curvature,
geodesics.

The space of structures carries the integral pairing (A, B) = sum of
w_i tr(A_i B_i) over the sample points, a compatible almost complex
structure A -> A J, and the 2-form Omega(A, B) = (A J, B).  In the
rational chart at a base field all three have closed forms in the
coordinate K, as do the Levi-Civita connection, its curvature and its
geodesics.  Each is computed on the (points, n, n) stacks at once; only
the final sums over the points are accumulated left to right in point
order, so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import CayleyCoordinate
from .fiber import mat_inv_guarded, mat_tanh_half, mat_exp
from .structures import AcsField, SampleSpace, TangentField, same_space


@dataclass(frozen=True)
class ChartField:
    """A point of the field-level rational chart: base structure field plus
    a coordinate field K.

    Construction builds ``coord``, the :class:`CayleyCoordinate` of the
    stacks, which checks the chart domain at every point at once, then
    computes the guarded resolvents (1 - K^2)^{-1} that every chart
    functional reads.
    """

    space: SampleSpace
    base: AcsField
    K: TangentField
    coord: CayleyCoordinate = field(init=False, repr=False, compare=False)
    _resolvents: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        same_space(self, self.base, self.K)
        object.__setattr__(self, "coord", CayleyCoordinate(self.base.ops, self.K.ops))
        k = self.K.ops
        with np.errstate(over="ignore"):  # an overflowing K^2 is refused as non-finite
            res = mat_inv_guarded(np.eye(self.space.dim) - k @ k)
        res.flags.writeable = False
        object.__setattr__(self, "_resolvents", res)

    def resolvents(self) -> np.ndarray:
        """(1 - K^2)^{-1} per point, guarded; computed once, read-only."""
        return self._resolvents


def chart_origin(j: AcsField) -> ChartField:
    """The chart centered at j with coordinate zero."""
    return ChartField(j.space, j, TangentField.derived(j, np.zeros_like(j.ops)))


def shifted(c: ChartField, a: TangentField, h: float) -> ChartField:
    """The chart point with coordinate K + h a (used by difference stencils)."""
    return ChartField(c.space, c.base, TangentField.derived(c.base, c.K.ops + float(h) * a.ops))


# ---------------------------------------------------------------------------
# ambient functionals (fields of structures and tangents, no chart)

def point_order_sum(terms: np.ndarray) -> float:
    """Sum of per-point terms, accumulated left to right in point order."""
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


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
    R(A, B) D = -(1-K^2) [[X, Y], Z] with X = (1-K^2)^{-1} A and so on."""
    same_space(c.K, a, b, d)
    k, res = c.K.ops, c.resolvents()
    x, y, z = res @ a.ops, res @ b.ops, res @ d.ops
    xy = x @ y - y @ x
    stack = -(np.eye(c.space.dim) - k @ k) @ (xy @ z - z @ xy)
    return TangentField.derived(c.base, stack)


# ---------------------------------------------------------------------------
# geodesics

def geodesic_chart(a: TangentField, t: float) -> TangentField:
    """Chart coordinate of the geodesic through the base with velocity a:
    K(t) = tanh((t/2) A) per point.

    The curve satisfies K'' + Gamma(K', K') = 0 with Gamma the bilinear
    connection term returned by :func:`christoffel`.
    """
    return TangentField.derived(a.base, mat_tanh_half(a.ops, t))


def geodesic_ambient(j0: AcsField, a: TangentField, t: float) -> AcsField:
    """The same geodesic as a structure field: J(t) = J0 exp(t A)."""
    same_space(j0, a)
    return AcsField(a.space, j0.ops @ mat_exp(float(t) * a.ops))
