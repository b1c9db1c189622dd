"""The rational (Cayley) chart of the structure space at a base J0.

Coordinates are matrices K that anticommute with the base.  The chart
sends K to J0 (1 + K)(1 - K)^{-1}; it is a diffeomorphism onto the set of
structures J for which 1 - J J0 is invertible, and its inverse is
K = (1 - J J0)^{-1} (1 + J J0).  The exponential map J0 exp(t A) is the
geodesic :func:`acsgeom.geometry.geodesic_ambient`.  A chart point is a
:class:`CayleyCoordinate`: it alone decides the chart domain, by one
inversion of 1 - K^2 at construction, from which the (1 - K)^{-1} =
(1 + K)(1 - K^2)^{-1} that the chart map and its differential share
follows with one matmul.  On raw arrays it admits J0 and K
(:func:`acsgeom.fiber.as_fiber_matrix`) and checks J0^2 = -1 and the
anticommutation of K first; a field-level caller that already holds those
checks (:class:`acsgeom.geometry.ChartField`) passes them in, and they
vouch for admission too, so each runs once.
Every map takes a single matrix or a (points, n, n) stack and acts on each
fiber independently; field-level wrappers live in the structures and
geometry modules.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import AnticommutationViolation, DimensionMismatch, InvalidStructure
from .fiber import (FiberMetric, as_fiber_matrix, g_adjoint, guard_inverse, mat_inv,
                    mat_inv_guarded, max_abs, slice_max_abs)

# Tolerance of the chart domain checks; caller-made tangents meet it too.
COORD_TOL = 1e-10


def standard_acs(dim: int) -> np.ndarray:
    """The block-diagonal reference structure: 2x2 blocks [[0,-1],[1,0]]."""
    if dim < 2 or dim % 2:
        raise DimensionMismatch(f"dimension must be even and >= 2, got {dim}")
    j = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        j[i, i + 1] = -1.0
        j[i + 1, i] = 1.0
    return j


@dataclass(frozen=True)
class CayleyCoordinate:
    """Points of the rational chart: base structure plus coordinate K,
    single matrices or (points, n, n) stacks of the same shape.

    Construction checks the chart domain at every point, in this order:
    J0^2 = -1, K anticommutes with J0, 1 - K passes :func:`guard_inverse`,
    and then so does 1 - K^2.  A NaN residual fails.  A caller that has
    checked part of this passes what it knows: ``base_residuals``, the kept
    per-point max |J0^2 + 1| of its base, is read in place of computing
    J0^2, and ``anticommuting=True`` says K was checked against this very
    base where it was made, so that check is skipped.  Each also vouches
    for admission: the base, or K, is then a field's admitted stack, taken
    as it is, with no pass over its entries; a vouched K that is not an
    array of the base's shape is refused as :class:`DimensionMismatch`, and
    a non-finite derived K is refused at 1 - K^2, where
    :func:`mat_inv_guarded` of 1 - K admits it first.  1 - K^2 commutes with
    J0, since K anticommutes with it; it is kept as the read-only
    ``square``, inverted once, and its inverse is kept as the read-only
    ``square_resolvent``; its gate and its guard read one slice scale.
    The read-only ``resolvent``, the (1 - K)^{-1}
    that the chart map and its differential share, is derived as
    (1 + K)(1 - K^2)^{-1}.  That is exact for any K, since 1 + K and 1 - K
    commute; no identity of J0 is used.  Its rounding error is about
    eps kappa(1 - K^2) ||1 + K|| ||(1 - K^2)^{-1}||, against
    eps kappa(1 - K) ||(1 - K)^{-1}|| for a solve of 1 - K; both are of
    order eps when 1 - K^2 is well conditioned.
    """

    base: np.ndarray
    K: np.ndarray
    base_residuals: InitVar[np.ndarray | None] = None
    anticommuting: InitVar[bool] = False
    resolvent: np.ndarray = field(init=False, repr=False, compare=False)
    square: np.ndarray = field(init=False, repr=False, compare=False)
    square_resolvent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, base_residuals, anticommuting):
        j0 = self.base if base_residuals is not None else as_fiber_matrix(self.base)
        k = self.K if anticommuting else as_fiber_matrix(self.K, j0.shape, "coordinate")
        if not (isinstance(k, np.ndarray) and k.shape == j0.shape):  # a vouched K
            got = k.shape if isinstance(k, np.ndarray) else type(k).__name__
            raise DimensionMismatch(f"coordinate must have shape {j0.shape}, got {got}")
        eye = np.eye(j0.shape[-1])
        if base_residuals is None:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
                base_residuals = max_abs(j0 @ j0 + eye)
        if not np.all(base_residuals <= COORD_TOL):
            raise InvalidStructure("base does not square to -identity")
        if not anticommuting:
            with np.errstate(over="ignore", invalid="ignore"):
                worst = max_abs(k @ j0 + j0 @ k)
            if not worst <= COORD_TOL:
                raise AnticommutationViolation(
                    "coordinate does not anticommute with the base structure")
        with np.errstate(over="ignore", invalid="ignore"):
            square = eye - k @ k
        scale = slice_max_abs(square)
        if not (scale < np.inf).all():  # a NaN too: refused as non-finite, after 1 - K's guard
            mat_inv_guarded(eye - k)
            as_fiber_matrix(square)
        inv = mat_inv(square, scale)
        resolvent = guard_inverse(eye - k, (eye + k) @ inv)
        inv = guard_inverse(square, inv, scale)
        resolvent.flags.writeable = square.flags.writeable = inv.flags.writeable = False
        object.__setattr__(self, "base", j0)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "resolvent", resolvent)
        object.__setattr__(self, "square", square)
        object.__setattr__(self, "square_resolvent", inv)

    @property
    def dim(self) -> int:
        return self.base.shape[-1]


def cayley_to_acs(coord: CayleyCoordinate) -> np.ndarray:
    """J0 (1 + K)(1 - K)^{-1}, the rational chart at coord.base."""
    return coord.base @ (np.eye(coord.dim) + coord.K) @ coord.resolvent


def acs_to_cayley(j0, j) -> CayleyCoordinate:
    """Chart coordinate of j in the rational chart at j0.

    K = (1 - J J0)^{-1} (1 + J J0).  Raises SingularOperator when j lies
    outside the chart (1 - J J0 singular, e.g. j = -j0).
    """
    base = as_fiber_matrix(j0)
    target = as_fiber_matrix(j, base.shape, "structure")
    eye = np.eye(base.shape[-1])
    jj0 = target @ base
    k = mat_inv_guarded(eye - jj0) @ (eye + jj0)
    return CayleyCoordinate(base, k)


def pushforward(coord: CayleyCoordinate, a) -> np.ndarray:
    """Differential of the rational chart at coord applied to a.

    A tangent direction a at the chart origin (anticommuting with the
    base) is carried to 2 J0 (1-K)^{-1} a (1-K)^{-1}, a tangent at the
    structure cayley_to_acs(coord).
    """
    m = as_fiber_matrix(a, coord.base.shape, "tangent")
    r = coord.resolvent
    return 2.0 * coord.base @ r @ m @ r


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
