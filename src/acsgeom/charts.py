"""The rational (Cayley) chart of the structure space at a base J0.

Coordinates are matrices K that anticommute with the base.  The chart
sends K to J0 (1 + K)(1 - K)^{-1}; it is a diffeomorphism onto the set of
structures J for which 1 - J J0 is invertible, and its inverse is
K = (1 - J J0)^{-1} (1 + J J0).  The exponential map J0 exp(t A) is the
geodesic :func:`acsgeom.geometry.geodesic_ambient`.  A chart point is a
:class:`CayleyCoordinate`: it alone decides the chart domain, by inverting
1 - K through the guarded inversion once at construction, and it holds that
inverse for the chart map and its differential to share.
Every map takes a single matrix or a (points, n, n) stack and acts on each
fiber independently; field-level wrappers live in the structures and
geometry modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnticommutationViolation, DimensionMismatch, InvalidStructure
from .fiber import FiberMetric, as_fiber_matrix, g_adjoint, mat_inv_guarded, max_abs

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


def _like_base(a, base: np.ndarray, what: str) -> np.ndarray:
    """``a`` as fiber matrices, required to have the shape of ``base``."""
    m = as_fiber_matrix(a)
    if m.shape != base.shape:
        raise DimensionMismatch(
            f"{what} shape {m.shape} does not match base shape {base.shape}")
    return m


def anticommute_project(b, j0) -> np.ndarray:
    """Project onto the subspace anticommuting with j0: (b + j0 b j0)/2."""
    j = as_fiber_matrix(j0)
    m = _like_base(b, j, "matrix")
    return 0.5 * (m + j @ m @ j)


@dataclass(frozen=True)
class CayleyCoordinate:
    """Points of the rational chart: base structure plus coordinate K,
    single matrices or (points, n, n) stacks of the same shape.

    Construction checks the chart domain at every point: J0^2 = -1, K
    anticommutes with J0, and 1 - K passes :func:`mat_inv_guarded`.  The
    inverse that guard returns is kept as ``resolvent``, the read-only
    (1 - K)^{-1} that the chart map and its differential share.
    """

    base: np.ndarray
    K: np.ndarray
    resolvent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        j0 = as_fiber_matrix(self.base)
        k = _like_base(self.K, j0, "coordinate")
        eye = np.eye(j0.shape[-1])
        if max_abs(j0 @ j0 + eye) > COORD_TOL:
            raise InvalidStructure("base does not square to -identity")
        if max_abs(k @ j0 + j0 @ k) > COORD_TOL:
            raise AnticommutationViolation(
                "coordinate does not anticommute with the base structure")
        resolvent = mat_inv_guarded(eye - k)
        resolvent.flags.writeable = False
        object.__setattr__(self, "base", j0)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "resolvent", resolvent)

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
    target = _like_base(j, base, "structure")
    eye = np.eye(base.shape[-1])
    jj0 = target @ base
    k = mat_inv_guarded(eye - jj0) @ (eye + jj0)
    return CayleyCoordinate(base, k)


def chart_transition(coord: CayleyCoordinate, j1) -> np.ndarray:
    """Coordinate of the same structure in the rational chart at j1.

    With T = (1 - K)(1 + K)^{-1} J0 J1, the new coordinate is
    (1 - T)^{-1} (1 + T); it anticommutes with j1.
    """
    new_base = _like_base(j1, coord.base, "new base")
    eye = np.eye(coord.dim)
    t = (eye - coord.K) @ mat_inv_guarded(eye + coord.K) @ coord.base @ new_base
    return mat_inv_guarded(eye - t) @ (eye + t)


def pushforward(coord: CayleyCoordinate, a) -> np.ndarray:
    """Differential of the rational chart at coord applied to a.

    A tangent direction a at the chart origin (anticommuting with the
    base) is carried to 2 J0 (1-K)^{-1} a (1-K)^{-1}, a tangent at the
    structure cayley_to_acs(coord).
    """
    m = _like_base(a, coord.base, "tangent")
    r = coord.resolvent
    return 2.0 * coord.base @ r @ m @ r


def pullback(coord: CayleyCoordinate, a_star) -> np.ndarray:
    """Inverse of :func:`pushforward`: -(1/2) (1-K) J0 a* (1-K)."""
    m = _like_base(a_star, coord.base, "tangent")
    eye_k = np.eye(coord.dim) - coord.K
    return -0.5 * eye_k @ coord.base @ m @ eye_k


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
    j = as_fiber_matrix(j0)
    return shape_anticommuting(rng.uniform(-1.0, 1.0, size=j.shape), j,
                               metric=metric, part=part, bound=bound)


def shape_anticommuting(raw, j0, *, metric: FiberMetric | None = None,
                        part: str | None = None, bound: float = 0.9) -> np.ndarray:
    """Shape a (..., n, n) stack of raw matrices into matrices that
    anticommute with j0, which is broadcast over the stack.

    Each raw slice is projected onto the anticommuting subspace, optionally
    reduced to the metric-symmetric or antisymmetric part, and rescaled to
    spectral norm ``bound`` if its norm exceeds it (which keeps 1 - K
    invertible with margin whenever bound < 1).  Each slice gets the bits of
    shaping that slice alone.

    Part selection assumes j0 is skew-adjoint for the metric, which holds
    for the standard structure with the identity metric; only then do the
    two parts stay inside the anticommuting subspace.
    """
    k = anticommute_project(raw, np.broadcast_to(j0, np.shape(raw)))
    if part is not None:
        if part not in ("symmetric", "antisymmetric"):
            raise ValueError(f"unknown part {part!r}")
        g = metric if metric is not None else FiberMetric.identity(k.shape[-1])
        sharp = g_adjoint(k, g)
        k = 0.5 * (k + sharp) if part == "symmetric" else 0.5 * (k - sharp)
    norm = np.linalg.norm(k, 2, axis=(-2, -1), keepdims=True)
    # scale 1 elsewhere, so no slice is divided by its (possibly zero) norm
    return k * np.divide(bound, norm, out=np.ones_like(norm), where=norm > bound)
