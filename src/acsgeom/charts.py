"""The rational (Cayley) chart of the structure space at a base J0.

Coordinates are matrices K that anticommute with the base.  The chart
sends K to J0 (1 + K)(1 - K)^{-1}; it is a diffeomorphism onto the set of
structures J for which 1 - J J0 is invertible, and its inverse is
K = (1 - J J0)^{-1} (1 + J J0).  The exponential map J0 exp(t A) is the
geodesic :func:`acsgeom.geometry.geodesic_ambient`.  A chart point is a
:class:`CayleyCoordinate` of a structure field and a tangent field, which
a chart field (:class:`acsgeom.geometry.ChartField`) builds: it alone
decides the chart domain, by one inversion of 1 - K^2 at construction,
from which the (1 - K)^{-1} = (1 + K)(1 - K^2)^{-1} that the chart map
and its differential share follows with one matmul.  It takes only a K
made at its base, and reads J0^2 = -1, the admission of both stacks and
K's anticommutation from the fields, so each check runs once.  At a base
field that is exactly J_std, where K passes the gate of
:func:`acsgeom.fiber.antilinear_form` (its antilinear defect at most
64 eps of its largest entry, ``fiber.ANTILINEAR_GATE``), the chart point
computes from K's complex form Q: 1 - K^2 = 1 - Q Q-bar, its inverse S by
the complex adjugate at dims 2 and 4 and a complex solve above,
(1 - K)^{-1} = S + Q S-bar, and both guards in closed form, within about
kappa 64 eps n relative of the real route.  Only these complex forms know
the layout of J_std; every other chart point is real arithmetic, with
one stacked solve of 1 - K^2 (:func:`acsgeom.fiber.mat_inv`).  The chart
maps take fields and act on each point independently; the fields live in
the structures module, which this module does not import, so it reads
them by attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import AnticommutationViolation, DimensionMismatch, InvalidStructure
from .fiber import (FiberMetric, as_fiber_matrix, complex_inverse, complex_product, form_scale,
                    g_adjoint, guard_forms, guard_inverse, mat_inv, mat_inv_guarded, real_form,
                    slice_max_abs)

if TYPE_CHECKING:  # the fields import this module
    from .structures import AcsField, TangentField

# The one identity tolerance: the largest max norm of a point's J^2 + 1,
# A J + J A or validator residual that passes, in every field module.
FIELD_TOL = 1e-10


def same_space(*fields) -> None:
    """Raise DimensionMismatch unless all fields share fiber dimension and
    point count."""
    first = fields[0].space
    for f in fields[1:]:
        if f.space.dim != first.dim or f.space.npoints != first.npoints:
            raise DimensionMismatch("fields live on different sample spaces")


def standard_acs(dim: int) -> np.ndarray:
    """The block-diagonal reference structure: 2x2 blocks [[0,-1],[1,0]]."""
    if dim < 2 or dim % 2:
        raise DimensionMismatch(f"dimension must be even and >= 2, got {dim}")
    j = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        j[i, i + 1] = -1.0
        j[i + 1, i] = 1.0
    return j


class ComplexChart(NamedTuple):
    """A chart point at the base J_std in complex form, every array with the
    point index last, shape (n/2, n/2, points)
    (:func:`~acsgeom.fiber.antilinear_form`):
    K maps z to Q z-bar, 1 - K^2 = P = 1 - Q Q-bar, S = P^{-1}, and
    (1 - K)^{-1} = (1 + K) S = S + R with antilinear part R = Q S-bar."""

    q: np.ndarray
    p: np.ndarray
    s: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class CayleyCoordinate:
    """The point K of the rational chart at a base J0, from a structure
    field ``base`` (:class:`acsgeom.structures.AcsField`) and a tangent
    field ``K`` (``TangentField``) on one sample space, whose
    (points, n, n) stacks were admitted where the fields were made.

    Construction checks, in this order: K was made at ``base``
    (``K.base is base``; a chart field remakes any other K at its base,
    which checks it there), an :class:`AnticommutationViolation` else; K's
    stack is an array of the base's shape, a :class:`DimensionMismatch`
    else; and the chart domain at every point: J0^2 = -1, read from the
    base's kept ``square_residuals``; 1 - K passes :func:`guard_inverse`,
    and then so does 1 - K^2.  A NaN residual fails, and a non-finite
    derived K is refused at 1 - K^2, where :func:`mat_inv_guarded` of
    1 - K admits it first.

    1 - K^2 is kept as the read-only ``square``, inverted once by
    :func:`mat_inv`, one stacked solve, and its inverse is kept as the
    read-only ``square_resolvent``; its finiteness test and its guard read
    one slice scale.  The read-only ``resolvent``, the (1 - K)^{-1} that
    the chart map and its differential share, is derived as
    (1 + K)(1 - K^2)^{-1}.
    That is exact for any K, since 1 + K and 1 - K commute; no identity of
    J0 is used.  Its rounding error is about
    eps kappa(1 - K^2) ||1 + K|| ||(1 - K^2)^{-1}||, against
    eps kappa(1 - K) ||(1 - K)^{-1}|| for a solve of 1 - K; both are of
    order eps when 1 - K^2 is well conditioned.

    Where the base is exactly J_std (its kept ``is_standard``) and K's
    kept ``antilinear_form`` passes the gate of
    :func:`~acsgeom.fiber.antilinear_form`, the chart point computes in
    complex form, kept as ``form`` (a :class:`ComplexChart`):
    P = 1 - Q Q-bar for K's form Q, S = P^{-1} by :func:`complex_inverse`
    (the adjugate at dims 2 and 4, a complex solve above), R = Q S-bar,
    and both guards' kappa_F in closed form (:func:`guard_forms`), in the
    same order, with the same rule and messages.  The gate bounds the
    antilinear defect of K by 64 eps of its largest entry, so the complex
    form adds at most about kappa 64 eps n relative error, the order of
    LU's own backward error.  Only these complex forms know the layout of
    J_std; the real route is plain real arithmetic.  ``square``,
    ``square_resolvent`` and ``resolvent`` are then real stacks computed on
    first read.  A 1 - K^2 that is not finite takes the real route, which
    refuses it as above; ``form`` is then None, as it is on every other
    point.
    """

    base: AcsField
    K: TangentField
    form: ComplexChart | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base, j0, k = self.base, self.base.ops, self.K.ops
        if self.K.base is not base:
            raise AnticommutationViolation("coordinate was not made at the chart's base field")
        if not (isinstance(k, np.ndarray) and k.shape == j0.shape):  # a derived K
            got = k.shape if isinstance(k, np.ndarray) else type(k).__name__
            raise DimensionMismatch(f"coordinate must have shape {j0.shape}, got {got}")
        if not np.all(base.square_residuals <= FIELD_TOL):
            raise InvalidStructure("base does not square to -identity")
        antilinear = self.K.antilinear_form if base.is_standard else None
        form = None if antilinear is None else _complex_chart(antilinear)
        object.__setattr__(self, "form", form)
        if form is not None:
            return
        eye = np.eye(j0.shape[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            square = eye - k @ k
        scale = slice_max_abs(square)
        if not (scale < np.inf).all():  # a NaN too: refused as non-finite, after 1 - K's guard
            mat_inv_guarded(eye - k)
            as_fiber_matrix(square)
        inv = mat_inv(square)
        resolvent = guard_inverse(eye - k, (eye + k) @ inv)
        inv = guard_inverse(square, inv, scale)
        resolvent.flags.writeable = square.flags.writeable = inv.flags.writeable = False
        object.__setattr__(self, "resolvent", resolvent)
        object.__setattr__(self, "square", square)
        object.__setattr__(self, "square_resolvent", inv)

    @property
    def dim(self) -> int:
        return self.base.ops.shape[-1]

    @cached_property
    def square(self) -> np.ndarray:
        """1 - K^2 per point, read-only."""
        return _read_only(real_form(self.form.p))

    @cached_property
    def square_resolvent(self) -> np.ndarray:
        """(1 - K^2)^{-1} per point, guarded, read-only."""
        return _read_only(real_form(self.form.s))

    @cached_property
    def resolvent(self) -> np.ndarray:
        """(1 - K)^{-1} per point, guarded, read-only."""
        return _read_only(real_form(self.form.s, self.form.r))


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# an overflow leaves inf or nan, for the guards to refuse
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _complex_chart(q: np.ndarray) -> ComplexChart | None:
    """The :class:`ComplexChart` of the coordinate whose form is ``q``,
    through both guards, or None where 1 - K^2 is not finite."""
    p = np.eye(len(q))[..., None] - complex_product(q, q.conj())
    scale = form_scale(p)
    if not (scale < np.inf).all():
        return None
    s = complex_inverse(p)
    r = complex_product(q, s.conj())
    guard_forms((1.0, q), (s, r), np.maximum(1.0, form_scale(q)))  # 1 - K
    guard_forms((p,), (s,), scale)
    return ComplexChart(q, p, s, r)


def cayley_to_acs(coord: CayleyCoordinate) -> np.ndarray:
    """J0 (1 + K)(1 - K)^{-1} per point, the rational chart at the base
    field ``coord.base``."""
    return coord.base.ops @ (np.eye(coord.dim) + coord.K.ops) @ coord.resolvent


def acs_to_cayley(j0, j) -> np.ndarray:
    """The chart coordinate K = (1 - J J0)^{-1} (1 + J J0) per point of the
    structure field j in the rational chart at the structure field j0.

    The guarded inverse of 1 - J J0 decides the chart domain: it raises
    SingularOperator where j lies outside the chart (e.g. j = -j0).  Where
    it passes, 1 - K = -2 (1 - J J0)^{-1} J J0 and 1 + K = 2 (1 - J J0)^{-1}
    are invertible too, and K anticommutes with J0 when J and J0 square to
    -1; no chart point is built.
    """
    same_space(j, j0)
    eye = np.eye(j0.ops.shape[-1])
    jj0 = j.ops @ j0.ops
    return mat_inv_guarded(eye - jj0) @ (eye + jj0)


def pushforward(coord: CayleyCoordinate, a) -> np.ndarray:
    """Differential of the rational chart at coord applied to the tangent
    field a at the chart's base.

    A tangent direction a at the chart origin (anticommuting with the
    base) is carried to 2 J0 (1-K)^{-1} a (1-K)^{-1} per point, a tangent
    at the structure cayley_to_acs(coord).
    """
    same_space(a, coord.base)
    r = coord.resolvent
    return 2.0 * coord.base.ops @ r @ a.ops @ r


def random_anticommuting(rng: np.random.Generator, j0, *,
                         metric: FiberMetric | None = None,
                         part: str | None = None,
                         bound: float = 0.9) -> np.ndarray:
    """Draw a random matrix anticommuting with j0, one per slice of a
    (points, n, n) stack j0.

    Dense uniform[-1, 1) entries, drawn for the whole stack at once (the
    same stream as one draw per slice in order), are shaped by
    :func:`shape_anticommuting`.
    """
    return shape_anticommuting(rng.uniform(-1.0, 1.0, size=np.shape(j0)), j0,
                               metric=metric, part=part, bound=bound)


def shape_anticommuting(raw, j0, *, metric: FiberMetric | None = None,
                        part: str | None = None, bound: float = 0.9) -> np.ndarray:
    """Shape a (..., n, n) stack of raw matrices into matrices that
    anticommute with j0, which is broadcast over the stack.

    Each raw slice b is projected onto the anticommuting subspace, as
    (b + j0 b j0)/2, optionally reduced to the metric-symmetric or
    antisymmetric part, and rescaled to spectral norm ``bound`` if its norm
    exceeds it (which keeps 1 - K invertible with margin whenever
    bound < 1).  Each slice gets the bits of shaping that slice alone.

    Part selection assumes j0 is skew-adjoint for the metric, which holds
    for the standard structure with the identity metric; only then do the
    two parts stay inside the anticommuting subspace.
    """
    j, m = as_fiber_matrix(j0), as_fiber_matrix(raw)
    j = np.broadcast_to(j, m.shape)
    k = 0.5 * (m + j @ m @ j)
    if part is not None:
        if part not in ("symmetric", "antisymmetric"):
            raise ValueError(f"unknown part {part!r}")
        g = metric if metric is not None else FiberMetric.identity(k.shape[-1])
        sharp = g_adjoint(k, g)
        k = 0.5 * (k + sharp) if part == "symmetric" else 0.5 * (k - sharp)
    norm = np.linalg.norm(k, 2, axis=(-2, -1), keepdims=True)
    # scale 1 elsewhere, so no slice is divided by its (possibly zero) norm
    return k * np.divide(bound, norm, out=np.ones_like(norm), where=norm > bound)
