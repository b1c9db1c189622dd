"""Dense matrix kernels on stacks of tangent fibers.

Everything above this module reduces to a few operations on real 2n x 2n
float64 matrices: guarded inversion, the matrix exponential, tanh of a
scaled matrix, and adjoints with respect to a fiber metric.  Each kernel
takes a (..., n, n) stack, one matrix per fiber (a single matrix is the
(n, n) case), and gives each slice the bits of that slice alone.
Operands are assumed unit-scale (norms of order one); the default
tolerances used by callers are calibrated for that regime.  The guarded
inversion reads kappa_F from the inverse it returns: no SVD, and up to n
times tighter than kappa_2.  ``SymplecticField`` tests nondegeneracy
against the same cap with ``np.linalg.cond``, one SVD per point.

The exponentials need numpy only: one scaling-and-squaring Pade-13
(Higham 2005) runs over a whole stack, with one stacked solve and masked,
stacked squarings.  ``mat_tanh_half`` builds the polynomial once for both
signs of its exponent, which share the scaling and swap the approximant's
numerator and denominator.  The package imports no scipy.  An exponential
whose norm or result is not finite raises :class:`NonFiniteValue` without
a numpy warning.
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
        with np.errstate(over="ignore"):  # an overflow reads as asymmetric
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


# Pade-13 coefficients b_0 .. b_13 and the 1-norm up to which the
# approximant alone is accurate to unit roundoff (Higham 2005, Table 2.3)
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
THETA_13 = 5.371920351148152


# overflow and nan are refused below; log2(0) of a tiny norm is clipped to s = 0
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _pade_13(a: np.ndarray):
    """Scaled Pade-13 parts of a float64 (k, n, n) stack (Higham 2005):
    the mask of diagonal slices, and for each other slice A its squaring
    count s = max(0, ceil(log2(||A||_1 / theta_13))) and the numerator
    V + U and denominator V - U at 2^-s A.  U is odd and V even, and
    negation is exact, so -a gets the same mask and s with the two swapped,
    bit for bit.  A non-finite norm raises :class:`NonFiniteValue`."""
    n = a.shape[-1]
    diagonal = (a[:, ~np.eye(n, dtype=bool)] == 0).all(axis=1)
    x = a[~diagonal]
    norm = np.abs(x).sum(axis=1).max(axis=-1)
    if not np.isfinite(norm).all():
        raise NonFiniteValue("matrix exponential entries must be finite")
    squarings = np.maximum(np.ceil(np.log2(norm / THETA_13)), 0.0).astype(int)
    x = np.ldexp(x, -squarings[:, None, None])
    b, eye = PADE_13, np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    return diagonal, squarings, v + u, v - u


@np.errstate(over="ignore", invalid="ignore")
def _expm(a, diagonal, squarings, num, den) -> np.ndarray:
    """exp of every slice of a (k, n, n) stack from its :func:`_pade_13`
    parts.  Diagonal slices take ``np.exp`` of their diagonals, so a zero
    slice gives the identity exactly; the others solve den r = num in one
    stacked solve and are squared back, every slice with s > k in one
    matmul at step k.  A non-finite result raises :class:`NonFiniteValue`."""
    out = np.zeros(a.shape)
    np.einsum("kii->ki", out)[diagonal] = np.exp(np.einsum("kii->ki", a)[diagonal])
    r = np.linalg.solve(den, num)
    for step in range(squarings.max(initial=0)):
        todo = squarings > step
        r[todo] = r[todo] @ r[todo]
    out[~diagonal] = r
    if not np.isfinite(out).all():
        raise NonFiniteValue("matrix exponential entries must be finite")
    return out


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of every slice: a stacked scaling-and-squaring
    Pade-13 in numpy (see :func:`_pade_13` and :func:`_expm`)."""
    m = as_fiber_matrix(a)
    stack = m.reshape(-1, m.shape[-1], m.shape[-1])
    return _expm(stack, *_pade_13(stack)).reshape(m.shape)


def mat_tanh_half(a, t: float) -> np.ndarray:
    """tanh((t/2) a), computed as the quotient of exponentials.

    Returns (e + f)^{-1} (e - f) with e = exp(h) and f = exp(-h), h = t a / 2.
    Both come from one Pade polynomial: -h shares the scaling of h, with
    numerator and denominator swapped, so one stacked solve and one run of
    squarings over the doubled stack give e and f with the bits of two
    :func:`mat_exp` calls.  Swapping the signs swaps e and f, so tanh is
    odd in t bit for bit and t = 0 gives exactly 0.  The cosh factor e + f
    can only degenerate when the spectrum of h approaches an odd multiple
    of i pi / 2; a failed inversion surfaces as :class:`SingularOperator`.
    """
    m = as_fiber_matrix(a)
    with np.errstate(invalid="ignore"):  # inf * 0 is refused by _pade_13
        h = (0.5 * float(t)) * m.reshape(-1, m.shape[-1], m.shape[-1])
    diagonal, squarings, num, den = _pade_13(h)
    e, f = np.split(_expm(np.concatenate([h, -h]), np.tile(diagonal, 2), np.tile(squarings, 2),
                          np.concatenate([num, den]), np.concatenate([den, num])), 2)
    return (mat_inv_guarded(e + f) @ (e - f)).reshape(m.shape)


def g_adjoint(a, g: FiberMetric) -> np.ndarray:
    """Adjoint of ``a`` with respect to the fiber metric: G^{-1} a^T G,
    slice by slice; a single metric matrix serves a whole stack."""
    m = as_fiber_matrix(a)
    if m.shape[-1] != g.dim:
        raise DimensionMismatch(
            f"operand dimension {m.shape[-1]} does not match metric dimension {g.dim}")
    return np.linalg.solve(g.matrix, m.mT @ g.matrix)
