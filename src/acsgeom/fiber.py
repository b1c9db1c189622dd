"""Dense matrix kernels on stacks of tangent fibers.

Everything above this module reduces to a few operations on real 2n x 2n
float64 matrices: guarded inversion, the matrix exponential, tanh of a
scaled matrix, and adjoints with respect to a fiber metric.  Each kernel
takes a (..., n, n) stack, one matrix per fiber (a single matrix is the
(n, n) case), and gives each slice the bits of that slice alone.
Operands are assumed unit-scale (norms of order one); the default
tolerances used by callers are calibrated for that regime.  The guarded
inversion, the package's only inversion guard, reads kappa_F from the
inverse it returns: no SVD, and up to n times tighter than kappa_2.

The exponentials are scipy's compiled Pade kernels (the private
``scipy.linalg._matfuncs_expm``, which no other module imports), driven
across a whole stack: one stacked classification of the slices, one
kernel call per generic slice and stacked squarings, bit-identical to
``scipy.linalg.expm`` slice for slice.  scipy is imported on the first
exponential rather than with the package: ``import acsgeom`` and the
commands that compute no exponential (``signature``, ``curvature``,
``project``) never load it, while ``verify``'s geodesic checks and
``geodesic`` load it once.  An exponential that overflows raises
:class:`NonFiniteValue` without a numpy warning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, SingularOperator

DEFAULT_COND_CAP = 1e12


def as_fiber_matrix(a) -> np.ndarray:
    """Coerce to a float64 (..., n, n) stack of square matrices of even
    dimension n >= 2."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    if m.shape[-1] < 2 or m.shape[-1] % 2:
        raise DimensionMismatch(
            f"fiber dimension must be even and >= 2, got {m.shape[-1]}")
    if not np.isfinite(m).all():
        raise NonFiniteValue("matrix entries must be finite")
    return m


def max_abs(a) -> float:
    """Entrywise max norm, the residual measure used throughout."""
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


@dataclass(frozen=True)
class FiberMetric:
    """Symmetric positive-definite inner products: one matrix, or a
    (points, n, n) stack with one per fiber."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_fiber_matrix(self.matrix)
        if max_abs(m - m.mT) > 1e-12:
            raise ValueError("fiber metric must be symmetric within 1e-12")
        if not (np.linalg.eigvalsh(m)[..., 0] > 0.0).all():
            raise ValueError("fiber metric must be positive definite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def identity(cls, dim: int) -> "FiberMetric":
        return cls(np.eye(dim))


def mat_inv_guarded(a) -> np.ndarray:
    """Invert every matrix of a stack, refusing ill-conditioned input.

    Each slice is solved first; its condition is then read from that same
    inverse as kappa_F = ||M||_F ||M^{-1}||_F, which bounds the 2-norm
    condition number from above (kappa_2 <= kappa_F <= n kappa_2), so it
    costs no SVD and refuses at most n times more than kappa_2 would.  If
    any estimate is above ``DEFAULT_COND_CAP`` or not finite (an overflow
    reads as inf), :class:`SingularOperator` names the largest instead of
    returning garbage.  Chart operations rely on this guard to surface
    domain violations (1 - K close to singular) as errors rather than noise.
    """
    m = as_fiber_matrix(a)
    try:
        inv = np.linalg.solve(m, np.eye(m.shape[-1]))
    except np.linalg.LinAlgError as exc:  # exactly singular
        raise SingularOperator(str(exc)) from None
    # rescaled by each slice's largest entry, so no square leaves the range
    scale = np.max(np.abs(m), axis=(-2, -1), keepdims=True)
    with np.errstate(over="ignore"):
        cond = np.linalg.norm(m / scale, axis=(-2, -1)) * np.linalg.norm(inv * scale, axis=(-2, -1))
    if not (np.isfinite(cond) & (cond <= DEFAULT_COND_CAP)).all():
        raise SingularOperator(
            f"condition estimate {np.max(cond):.6e} exceeds cap {DEFAULT_COND_CAP:.6e}")
    return inv


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught below
def _expm(m: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of every slice of a float64 (..., n, n) stack,
    bit for bit, without scipy's per-slice Python wrapper.

    One stacked test sorts the slices by where their nonzeros lie, which is
    the test scipy's ``bandwidth`` makes per slice.  Diagonal slices take
    one ``np.exp`` over their diagonals.  Triangular slices, for which scipy
    recomputes the diagonals during the squarings (Al-Mohy & Higham 2009,
    Code Fragment 2.1), go to ``scipy.linalg.expm`` as one stack.  Each
    generic slice runs scipy's compiled Pade kernels in a reused scratch
    array, and the squarings are then done stacked: at step k, every slice
    that needs more than k squarings is squared in one matmul.  An
    exponential that overflows raises :class:`NonFiniteValue`.
    """
    from scipy.linalg import expm
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

    n = m.shape[-1]
    a = m.reshape(-1, n, n)
    out = np.zeros(a.shape)
    nonzero = a != 0
    lower = np.tri(n, k=-1, dtype=bool)
    below = (nonzero & lower).any(axis=(1, 2))
    above = (nonzero & lower.T).any(axis=(1, 2))

    diagonal = ~(below | above)
    np.einsum("kii->ki", out)[diagonal] = np.exp(np.einsum("kii->ki", a)[diagonal])
    triangular = below != above
    if triangular.any():
        out[triangular] = expm(a[triangular])

    generic = np.flatnonzero(below & above)
    squarings = np.empty(len(generic), dtype=int)
    scratch = np.empty((5, n, n))
    for i, k in enumerate(generic):
        scratch[0] = a[k]
        order, squarings[i] = pick_pade_structure(scratch)
        if order < 0:
            raise MemoryError(f"expm could not allocate its Pade workspace (code {order})")
        info = pade_UV_calc(scratch, order)
        if info != 0:
            raise RuntimeError(f"expm failed in its Pade solve (code {info})")
        out[k] = scratch[0]
    for step in range(squarings.max(initial=0)):
        todo = generic[squarings > step]
        out[todo] = out[todo] @ out[todo]
    if not np.isfinite(out).all():
        raise NonFiniteValue("matrix exponential entries must be finite")
    return out.reshape(m.shape)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of every slice: scipy's compiled Pade kernels with
    a stacked classification and stacked squarings, bit-identical to
    ``scipy.linalg.expm`` (see :func:`_expm`)."""
    return _expm(as_fiber_matrix(a))


def mat_tanh_half(a, t: float) -> np.ndarray:
    """tanh((t/2) a), computed as the quotient of exponentials.

    Returns (e + f)^{-1} (e - f) with e = exp(t a / 2) and f = exp(-t a / 2),
    both from one :func:`_expm` call over the two stacks, so each is
    bit-identical to ``scipy.linalg.expm``.  The cosh factor e + f can only
    degenerate when the spectrum of (t/2) a approaches an odd multiple of
    i pi / 2; a failed inversion surfaces as :class:`SingularOperator`.
    """
    m = as_fiber_matrix(a)
    e, f = _expm(np.stack(((0.5 * float(t)) * m, (-0.5 * float(t)) * m)))
    return mat_inv_guarded(e + f) @ (e - f)


def g_adjoint(a, g: FiberMetric) -> np.ndarray:
    """Adjoint of ``a`` with respect to the fiber metric: G^{-1} a^T G,
    slice by slice; a single metric matrix serves a whole stack."""
    m = as_fiber_matrix(a)
    if m.shape[-1] != g.dim:
        raise DimensionMismatch(
            f"operand dimension {m.shape[-1]} does not match metric dimension {g.dim}")
    return np.linalg.solve(g.matrix, m.mT @ g.matrix)
