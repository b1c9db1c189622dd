"""Dense matrix kernels on stacks of tangent fibers.

Everything above this module reduces to a few operations on real 2n x 2n
float64 matrices: guarded inversion, the matrix exponential, tanh of a
scaled matrix, and adjoints with respect to a fiber metric.  Each kernel
takes a (..., n, n) stack, one matrix per fiber (a single matrix is the
(n, n) case), and gives each slice the bits of that slice alone.
Operands are assumed unit-scale (norms of order one); the default
tolerances used by callers are calibrated for that regime.  The guard
(:func:`guard_inverse`) reads kappa_F from an inverse it is given, solved
or derived in closed form: no SVD, and up to n times tighter than
kappa_2.  It reads each sum of squares with one ``np.einsum``, with no
squared temporary, and takes each slice's scale from a caller that has
it.  A :class:`FiberMetric` inverts itself once, on first use, and every
metric adjoint reads that; the identity metric inverts nothing, and its
adjoint is the transpose.

Every real or complex inversion is one stacked ``np.linalg.solve``, in
:func:`_solve` alone, so every slice meets one singular-slice rule: an
exactly singular slice raises :class:`SingularOperator` ("Singular
matrix"), and an inverse that overflows is left as inf or nan, for the
guard to refuse.  :func:`mat_inv` solves against the identity; the
exponentials' matrix route takes its Pade quotient from the solve
D r = N.

Only the chart's complex forms know the layout of the standard structure
J_std.  With z_r = x_2r + i x_2r+1, J_std is multiplication by i, a
J_std-linear map is z -> P z and an antilinear one (a chart tangent)
z -> Q z-bar, where P and Q are (n/2) x (n/2) complex matrices; their
forms are kept with the slice index last, shape (n/2, n/2, k).
:func:`antilinear_form` reads Q of a stack whose every slice passes
``ANTILINEAR_GATE`` on its anticommuting defect (else None),
:func:`complex_product`, :func:`complex_inverse` and
:func:`complex_trace` compute on forms across slices,
:func:`real_form` writes forms back as real stacks, and
:func:`guard_forms` reads kappa_F in closed form,
||M||_F^2 = 2 (||P||^2 + ||Q||^2), under the guard's rule and messages.
The gate is 64 eps of a slice's largest entry, so computing on a gated
form adds at most about kappa 64 eps n relative error, the order of LU's
own backward error.

The exponentials need numpy only: a scaling-and-squaring Pade-13
(Higham 2005) over a whole stack.  A geodesic takes exp(c A) at many c
of one velocity A, so A's :class:`PadeBasis` (its route masks, 1-norms
and algebra) is computed once and kept (``TangentField.pade``).  Each
slice takes one of two routes, from that slice and c alone; c = 0 gives
exactly I and exactly 0 with no route.  At n <= 4 a slice that passes
``EVEN_GATE`` (|tr A| and |tr A^3| at most 64 eps m and m^3, m its
largest entry within 2^-120 .. 2^120: every tangent of a structure)
takes the algebra route where it needs no squaring,
|c| ||A||_1 <= theta_13.  Its odd characteristic coefficients are
rounding noise, so Cayley-Hamilton gives Y^2 = sigma Y - pi I for
Y = A^2, every polynomial in A is c0 I + c1 A + c2 Y + c3 AY, and the
approximant runs on four scalars per slice, with its quotients in closed
form and no stacked inversion.  The gate drops e1 A^3 - e3 A from A^4, at
most about 64 eps n m ||A||^3: up to 64 times the rounding n eps ||A||^4
of forming A^4 itself, as ``ANTILINEAR_GATE`` is to LU's backward error.
Every other slice, at every c, takes the matrix route: the powers of
2^-s c A formed afresh, one stacked solve and masked, stacked squarings.
Its coefficients are read over b_0, so a zero slice (which the gate's
range keeps off the algebra route) has numerator and denominator I and
gives exactly I and exactly +0.0.  ``mat_tanh_half`` builds the
polynomial once for both signs of its exponent, which share the scaling
and swap numerator and denominator; where no squaring is needed it takes
the quotient from those two parts, with no exponential.  A one-route
stack takes no boolean mask, gather or scatter; a mixed stack splits by
masks, with the same bits per slice.  The package imports no scipy.  An
exponential whose norm or result is not finite raises
:class:`NonFiniteValue` without a numpy warning.

A per-slice reduction of a stack (the guard's scale, the Pade 1-norm,
the validators' residuals) goes through :func:`slice_max_abs` or
:func:`norm_1`.  They copy |entries| of up to ``REDUCE_BLOCK`` slices
into a buffer with the slice index last and reduce it row by row across
slices, where numpy would run one short loop per slice.  A stack of
slices wider than ``REDUCE_WIDEST`` entries keeps numpy's own reduce,
which is then faster.  Their results are bit for bit those of the plain
numpy reductions, NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, SingularOperator

DEFAULT_COND_CAP = 1e12
# Largest anticommuting defect with J_std, relative to a slice's largest
# entry, at which antilinear_form reads a slice's complex form: chart
# tangents anticommute with J_std only to a few ulps, not bit for bit.
ANTILINEAR_GATE = 64 * np.finfo(float).eps
ADJUGATE_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def as_fiber_matrix(a, shape: tuple | None = None, what: str = "matrix") -> np.ndarray:
    """The one admission rule for array input: a float64 (..., n, n) stack
    of square matrices of even dimension n >= 2, of ``shape`` if one is
    given, with finite entries.  Each public function or field that takes
    arrays calls it once, where they enter; its refusals name ``what``."""
    m = np.asarray(a, dtype=float)
    if shape is not None and m.shape != shape:
        raise DimensionMismatch(f"{what} must have shape {shape}, got {m.shape}")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    if m.shape[-1] < 2 or m.shape[-1] % 2:
        raise DimensionMismatch(
            f"fiber dimension must be even and >= 2, got {m.shape[-1]}")
    if not np.isfinite(m).all():
        raise NonFiniteValue(f"{what} entries must be finite")
    return m


def max_abs(a) -> float:
    """Entrywise max norm, the residual measure used throughout."""
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


# Slices per block of a per-slice reduction, and the most entries per slice
# at which reducing a block row by row beats numpy's own per-slice loop; a
# block of the widest slices is 512 KB.
REDUCE_BLOCK = 1024
REDUCE_WIDEST = 64


def slice_max_abs(x: np.ndarray) -> np.ndarray:
    """Largest |entry| of each (n, m) slice of a float64 (..., n, m) stack,
    shape (...): the bits of ``np.abs(x).max(axis=(-2, -1))``, a NaN entry
    giving NaN.  numpy reduces a 16-entry slice in a short loop of its own;
    here |x| of up to ``REDUCE_BLOCK`` slices is written with the slice
    index last, into one contiguous (n m, b) block, and reduced row by row.
    A max is exact in any order.  Slices of more than ``REDUCE_WIDEST``
    entries keep numpy's reduce, which is then faster."""
    flat = x.reshape(-1, x.shape[-2] * x.shape[-1])
    if flat.shape[1] > REDUCE_WIDEST:
        return np.abs(flat).max(axis=1).reshape(x.shape[:-2])
    out = np.empty(len(flat))
    for at in range(0, len(flat), REDUCE_BLOCK):
        block = np.abs(flat[at:at + REDUCE_BLOCK].T, order="C")
        block.max(axis=0, out=out[at:at + REDUCE_BLOCK])
    return out.reshape(x.shape[:-2])


def norm_1(a: np.ndarray) -> np.ndarray:
    """Each slice's 1-norm, its largest column sum of |entries|, of a
    float64 (k, n, n) stack, from (n, n, b) blocks as in
    :func:`slice_max_abs`.  The column sums add the rows in order, as
    ``np.abs(a).sum(axis=1)`` does, so the norms keep the bits of the plain
    numpy expression, NaN included; slices wider than the blocks take are
    reduced by numpy in the same way, one (k, n, n) stack at once."""
    if a.shape[-1] ** 2 > REDUCE_WIDEST:
        return np.abs(a).sum(axis=1).max(axis=-1)
    norm = np.empty(len(a))
    for at in range(0, len(a), REDUCE_BLOCK):
        block = np.abs(a[at:at + REDUCE_BLOCK].transpose(1, 2, 0), order="C")
        block.sum(axis=0).max(axis=0, out=norm[at:at + REDUCE_BLOCK])
    return norm


@dataclass(frozen=True)
class FiberMetric:
    """Symmetric positive-definite inner products: one matrix, or a
    (points, n, n) stack with one per fiber.  Its inverse, which every
    metric adjoint reads, is computed on first use and kept (so a metric
    that is only loaded or validated pays no inversion).  A single matrix
    that is exactly the identity is ``is_identity``: it is never inverted,
    since its adjoint is the transpose."""

    matrix: np.ndarray
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_fiber_matrix(self.matrix)
        with np.errstate(over="ignore"):  # an overflow reads as asymmetric
            if max_abs(m - m.mT) > 1e-12:
                raise ValueError("fiber metric must be symmetric within 1e-12")
        if not (np.linalg.eigvalsh(m)[..., 0] > 0.0).all():
            raise ValueError("fiber metric must be positive definite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "is_identity",
                           m.ndim == 2 and bool((m == np.eye(m.shape[-1])).all()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def inverse(self) -> np.ndarray:
        """G^{-1} per fiber, read-only; one :func:`mat_inv`, on first use."""
        inv = mat_inv(self.matrix)
        inv.flags.writeable = False
        return inv

    @classmethod
    def identity(cls, dim: int) -> "FiberMetric":
        return cls(np.eye(dim))


def guard_inverse(m: np.ndarray, inv: np.ndarray,
                  scale: np.ndarray | None = None) -> np.ndarray:
    """Return ``inv``, the inverse of every matrix of the stack ``m``,
    unless some slice is ill-conditioned.

    The condition of each slice is read as kappa_F = ||M||_F ||M^{-1}||_F,
    which bounds the 2-norm condition number from above (kappa_2 <= kappa_F
    <= n kappa_2), so it costs no SVD and refuses at most n times more than
    kappa_2 would.  Instead of returning garbage, :class:`SingularOperator`
    names the first slice whose estimate is not finite (an inverse that
    overflowed, to inf or to inf * 0 = nan), or else the largest estimate
    if it is above ``DEFAULT_COND_CAP``.  ``inv`` may come from a solve of
    ``m`` or from a closed form; the rule is the same.  Each slice is
    rescaled by its largest |entry|, ``scale`` (``slice_max_abs(m)``, of
    shape ``m.shape[:-2]``), which a caller that has it passes, so no
    square leaves the range; each sum of squares is one ``np.einsum``.
    """
    _refuse_ill_conditioned(_condition_f(m, inv, scale))
    return inv


def _condition_f(m: np.ndarray, inv: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """kappa_F of every slice, as :func:`guard_inverse` reads it."""
    if scale is None:
        scale = slice_max_abs(m)
    scale = scale[..., None, None]
    with np.errstate(over="ignore"):
        scaled = m / scale
        norm = np.einsum("...ij,...ij->...", scaled, scaled)
        np.multiply(inv, scale, out=scaled)
        return np.sqrt(norm) * np.sqrt(np.einsum("...ij,...ij->...", scaled, scaled))


def _refuse_ill_conditioned(cond: np.ndarray) -> None:
    """:func:`guard_inverse`'s rule on the condition estimates ``cond``.  A
    refused estimate is printed to 3 significant digits: near and above the
    cap its own rounding reaches the percent level, so more digits would
    only move with the bits of the inverse."""
    finite = np.isfinite(cond)
    if not finite.all():
        raise SingularOperator(
            f"condition estimate of slice {np.flatnonzero(~finite)[0]} is not finite")
    if (cond > DEFAULT_COND_CAP).any():
        raise SingularOperator(
            f"condition estimate {np.max(cond):.2e} exceeds cap {DEFAULT_COND_CAP:.6e}")


def antilinear_form(a) -> np.ndarray | None:
    """The complex form Q of a (k, n, n) stack that anticommutes with J_std
    (``charts.standard_acs``): with z_r = x_2r + i x_2r+1, each slice maps
    z to Q z-bar, and Q, the (n/2) x (n/2) complex matrix of entries a + ib
    of its blocks [[a, b], [b, -a]], is returned with the slice index last,
    shape (n/2, n/2, k).  None unless every slice passes the gate: its
    anticommuting defect max(|b - c|, |d + a|) over its blocks
    [[a, c], [b, d]] is at most ``ANTILINEAR_GATE`` times its largest entry
    (NaN fails).  The stack is read once, into a copy with the slice index
    last, so the defect is a few operations across slices.  Q is read from
    the even rows, so it is the form of a slice that close to the given
    one."""
    k, n = a.shape[:2]
    flat = a.reshape(k, n * n).T.copy()
    blocks = flat.reshape(n // 2, 2, n // 2, 2, k)  # entry (2r + p, 2c + q) at [r, p, c, q]
    defect = np.maximum(np.abs(blocks[:, 1, :, 0] - blocks[:, 0, :, 1]),
                        np.abs(blocks[:, 1, :, 1] + blocks[:, 0, :, 0]))
    if not (defect.reshape((n // 2) ** 2, k).max(axis=0)
            <= ANTILINEAR_GATE * np.abs(flat).max(axis=0)).all():
        return None
    q = np.empty((n // 2, n // 2, k), dtype=complex)
    q.real = blocks[:, 0, :, 0]
    q.imag = blocks[:, 0, :, 1]
    return q


def complex_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X Y of every slice of two stacks of complex matrices with the slice
    index last, (h, h, k): each entry sums its h products in index order, as
    vector operations across slices, so every slice gets the same
    arithmetic.  Composing forms: two linear maps compose as P1 P2, a linear
    after an antilinear one as P Q, an antilinear after a linear one as
    Q P-bar, and two antilinear maps as Q1 Q2-bar, a linear map.  Above
    h = 1 the sum starts from 0.0, so no entry reads -0.0, and takes one
    (h, h, k) product at a time."""
    if len(x) == 1:
        return x * y
    out = x[:, :1] * y[:1]
    out += 0.0
    for j in range(1, len(x)):
        out += x[:, j:j + 1] * y[j:j + 1]
    return out


def complex_inverse(p: np.ndarray) -> np.ndarray:
    """The inverse of every slice of a stack of complex matrices with the
    slice index last, (h, h, k): 1/z at h = 1 and the adjugate over the
    determinant at h = 2, vector operations across slices; above, one
    stacked complex solve.  A zero determinant raises
    :class:`SingularOperator` as LAPACK would; an overflow leaves inf or
    nan for the caller's guard."""
    h = len(p)
    if h > 2:
        return np.ascontiguousarray(_solve(p.transpose(2, 0, 1), np.eye(h)).transpose(1, 2, 0))
    if h == 1:
        det, adjugate = p, 1.0
    else:
        det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
        adjugate = p[::-1, ::-1].transpose(1, 0, 2) * ADJUGATE_SIGN[..., None]
    if not det.all():
        raise SingularOperator("Singular matrix")
    return np.divide(adjugate, det)


def complex_trace(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2 tr(X Y) of every slice of two stacks of complex forms with the
    slice index last, shape (k,): the real part is the trace of the real
    matrix of the linear map X Y, and the imaginary part that of -i X Y."""
    return 2.0 * (x * y.transpose(1, 0, 2)).sum(axis=(0, 1))


def real_form(linear: np.ndarray | None = None,
              antilinear: np.ndarray | None = None) -> np.ndarray:
    """The real (k, n, n) stack of the map z -> P z + Q z-bar from its
    complex forms with the slice index last, either of them None for 0:
    blocks [[Re p + Re q, -Im p + Im q], [Im p + Im q, Re p - Re q]].  Its
    even rows are P-bar + Q and its odd rows i (P-bar - Q)."""
    form = linear if antilinear is None else antilinear
    h, k = len(form), form.shape[-1]
    out = np.empty((h, 2, h, k), dtype=complex)
    if antilinear is None:
        np.conjugate(linear, out=out[:, 0])
        np.multiply(out[:, 0], 1j, out=out[:, 1])
    elif linear is None:
        out[:, 0] = antilinear
        np.multiply(antilinear, -1j, out=out[:, 1])
    else:
        conj = linear.conj()
        np.add(conj, antilinear, out=out[:, 0])
        np.multiply(conj - antilinear, 1j, out=out[:, 1])
    return np.ascontiguousarray(out.transpose(3, 0, 1, 2)).view(float).reshape(k, 2 * h, 2 * h)


def form_scale(x: np.ndarray) -> np.ndarray:
    """The largest |Re| or |Im| of an entry of each slice of a stack of
    complex forms with the slice index last, shape (k,): the largest
    |entry| of the real matrix of a linear or antilinear form; NaN where
    an entry is."""
    h, k = len(x), x.shape[-1]
    largest = np.abs(x.view(float).reshape(h * h, 2 * k)).max(axis=0)
    return np.maximum(largest[0::2], largest[1::2])


def guard_forms(parts: tuple, inverse_parts: tuple, scale: np.ndarray) -> None:
    """:func:`guard_inverse`'s rule, with its cap and messages, for an
    operator M given by the complex forms of its linear and antilinear
    parts (``parts``, slice index last, each (h, h, k); a float c stands
    for c times the identity) and its inverse by those of its own.
    kappa_F is read in closed form: ||M||_F^2 = 2 (||P||^2 + ||Q||^2) for
    linear part P and antilinear part Q.  As :func:`guard_inverse` does,
    each slice is rescaled by ``scale``, shape (k,): its largest |entry|,
    or a bound of it within a constant factor, so that no square leaves
    the range."""
    h = len(inverse_parts[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        down = 1.0 / scale
        norm = sum(h * (x * down) ** 2 if isinstance(x, float) else _sum_squares(x * down)
                   for x in parts)
        inverse_norm = sum(_sum_squares(x * scale) for x in inverse_parts)
        _refuse_ill_conditioned(2.0 * np.sqrt(norm) * np.sqrt(inverse_norm))


def _sum_squares(x: np.ndarray) -> np.ndarray:
    """||X||_F^2, the sum of |entry|^2 of each slice of a stack of complex
    forms with the slice index last, from one ``np.einsum``."""
    h, k = len(x), x.shape[-1]
    v = x.view(float).reshape(h * h, 2 * k)
    squares = np.einsum("ij,ij->j", v, v)
    return squares[0::2] + squares[1::2]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b for every slice of a real or complex stack, in one stacked
    ``np.linalg.solve``: the package's one call to a LAPACK solver.  An
    exactly singular slice raises :class:`SingularOperator`; an overflow
    leaves inf or nan, for the caller's guard to refuse."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularOperator("Singular matrix") from None


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of every matrix of a float64 (..., n, n) stack, unguarded, by
    one stacked solve against the identity (:func:`_solve`), so each slice
    gets the bits of inverting it alone.  No slice is read for structure:
    one that commutes with J_std takes the same solve as any other, since
    only the chart's complex forms know that layout.  A caller passes the
    inverse to :func:`guard_inverse`, at once or after a refusal that must
    come first.  An exactly singular slice raises
    :class:`SingularOperator`."""
    return _solve(m, np.eye(m.shape[-1]))


def mat_inv_guarded(a) -> np.ndarray:
    """Invert every matrix of a stack, refusing ill-conditioned input: the
    stack is admitted, and its :func:`mat_inv`, one real solve whatever
    the slices commute with, passes :func:`guard_inverse`.  Chart
    operations rely on this guard to surface domain violations (1 - K
    close to singular) as errors rather than noise."""
    m = as_fiber_matrix(a)
    return guard_inverse(m, mat_inv(m))


# Pade-13 coefficients b_0 .. b_13 and the 1-norm up to which the
# approximant alone is accurate to unit roundoff (Higham 2005, Table 2.3)
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
THETA_13 = 5.371920351148152
# b_j / b_0, the matrix route's coefficients: D^-1 N is the same, but a zero
# slice's N = D = I then solves to I exactly, where b_0 I read 1 - 1.1e-16
PADE_UNIT = tuple(b / PADE_13[0] for b in PADE_13)
# Column j holds (b_2j, b_2j+1): one Horner pass evaluates the rows [V, Q] of
# the approximant's even part V and odd cofactor Q
PADE_ROWS = np.array(PADE_13).reshape(7, 2, 1)
# Largest |tr A|, relative to a slice's largest entry m, and |tr A^3|,
# relative to m^3, at which the slice's exponentials run in the algebra of
# A^2: tangents anticommute with their base only to a few ulps, so their
# odd characteristic coefficients are rounding noise, not 0 (they read up
# to 15 of the 64 at bases P J_std P^-1 with kappa(P) <= 6).  m lies within
# 1 / EVEN_RANGE .. EVEN_RANGE there, so that no power of the exponent,
# down to pi c^4, leaves the floating-point range
EVEN_GATE = 64 * np.finfo(float).eps
EVEN_RANGE = 2.0 ** 120


class EvenAlgebra(NamedTuple):
    """The slices of a :class:`PadeBasis` that pass the algebra route's
    gate: ``norm_max``, the largest of their 1-norms, and, with the slice
    index last, sigma = tr(Y) / 2 and pi = (sigma^2 - tr(Y^2) / 2) / 2 of
    Y = A^2, so Y^2 = sigma Y - pi I, ``spread`` = ||Y - (tr Y / n) I||_F^2,
    and ``span``, the entries of A, AY and Y, shape (3, n n, g)."""

    norm_max: float
    sigma: np.ndarray
    pi: np.ndarray
    spread: np.ndarray
    span: np.ndarray


@dataclass(frozen=True, eq=False)
class PadeBasis:
    """What the exponentials of c A need of a float64 (k, n, n) stack A for
    every scalar c, computed once by :func:`pade_basis`.  A sweep over c
    (a geodesic over t) reads it at each c.

    Each mask is None where no slice is in it.  ``even`` masks the slices
    that pass the algebra route's gate (:func:`_even_algebra`);
    ``algebra`` is their :class:`EvenAlgebra`.  ``matrix`` masks the
    others (every slice at n >= 6).  ``norm`` holds every slice's 1-norm,
    from which :func:`_routes` reads at c which gated slices need
    squaring, and the matrix route each slice's squaring count.
    ``largest`` is the largest |entry| of A."""

    shape: tuple
    stack: np.ndarray
    largest: float
    even: np.ndarray | None
    matrix: np.ndarray | None
    algebra: EvenAlgebra | None
    norm: np.ndarray


def _powers(x: np.ndarray) -> tuple:
    """x, x^2, x^4 and x^6 of a stack, in three matmuls."""
    x2 = x @ x
    x4 = x2 @ x2
    return x, x2, x4, x4 @ x2


def _take(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The slices of ``x`` under ``mask``: ``x`` itself when the mask holds
    them all, so a one-route stack takes no gather."""
    return x if mask.all() else x[mask]


def _scatter(parts: list, shape: tuple) -> np.ndarray:
    """The stack of ``shape`` that the (mask, slices) ``parts`` of its
    routes fill; the one part of a one-route stack is returned as it is."""
    if len(parts) == 1:
        return parts[0][1]
    out = np.empty(shape)
    for mask, part in parts:
        out[mask] = part
    return out


def _even_algebra(x: np.ndarray, norm: np.ndarray):
    """The gate of the algebra route for each slice of a (k, n, n) stack at
    n <= 4, with 1-norms ``norm``, and the
    :class:`EvenAlgebra` of the slices that pass it (None if none does).

    A slice passes when |tr A| <= ``EVEN_GATE`` m and |tr A^3| <=
    ``EVEN_GATE`` m^3, m its largest |entry|, with m inside
    [1 / ``EVEN_RANGE``, ``EVEN_RANGE``].  tr A and tr A^3 fix, by Newton's
    identities, the odd coefficients of the characteristic polynomial
    lambda^4 - e1 lambda^3 + e2 lambda^2 - e3 lambda + e4 (e1 = tr A,
    3 e3 = tr A^3 + O(e1)).  Where they vanish, Cayley-Hamilton gives
    Y^2 = sigma Y - pi I (sigma = -e2, pi = e4; at n = 2, Y = sigma I and
    pi = 0).  The gate drops e1 A^3 - e3 A from A^4, at most about
    64 eps n m ||A||^3: up to 64 times the rounding n eps ||A||^4 of
    forming A^4 by matmuls, which the matrix route's powers carry."""
    n = x.shape[-1]
    y = x @ x
    ay = x @ y
    m = slice_max_abs(x)
    gate = ((np.abs(np.einsum("kii->k", x)) <= EVEN_GATE * m)
            & (np.abs(np.einsum("kii->k", ay)) <= EVEN_GATE * m ** 3)
            & (1.0 / EVEN_RANGE <= m) & (m <= EVEN_RANGE))
    if not gate.any():
        return gate, None
    x, y, ay = (_take(gate, v) for v in (x, y, ay))
    sigma = 0.5 * np.einsum("kii->k", y)
    pi = 0.5 * (sigma * sigma - 0.5 * np.einsum("kij,kji->k", y, y))
    spread = y - (2.0 / n) * sigma[:, None, None] * np.eye(n)
    span = np.empty((3, n * n, len(x)))
    for row, power in zip(span, (x, ay, y)):
        row[...] = power.reshape(-1, n * n).T
    return gate, EvenAlgebra(float(norm[gate].max()), sigma, pi,
                             np.einsum("kij,kij->k", spread, spread), span)


# a slice past EVEN_RANGE may overflow its norm or powers; the gate keeps it
# off the algebra route, and the matrix route refuses a norm that overflowed
@np.errstate(over="ignore", invalid="ignore")
def pade_basis(a) -> PadeBasis:
    """The :class:`PadeBasis` of a (..., n, n) stack, admitted first."""
    m = as_fiber_matrix(a)
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    norm = norm_1(stack)
    even, algebra = _even_algebra(stack, norm) if n <= 4 else (np.zeros(len(stack), bool), None)
    even, matrix = (mask if mask.any() else None for mask in (even, ~even))
    return PadeBasis(m.shape, stack, max_abs(stack), even, matrix, algebra, norm)


def _routes(basis: PadeBasis, c: float):
    """The algebra and matrix masks of ``basis`` at the exponent c, and the
    :class:`EvenAlgebra` of the algebra route's slices.  Where no gated
    slice needs squaring at c, |c| ||A||_1 <= theta_13 for each, they are
    the basis's own, for one comparison; else the gated slices that would
    square take the matrix route at this c, with every ungated slice."""
    alg = basis.algebra
    if alg is None or abs(c) * alg.norm_max <= THETA_13:
        return basis.even, basis.matrix, alg
    with np.errstate(over="ignore"):  # an infinite norm takes the matrix route's refusal
        keep = abs(c) * basis.norm[basis.even] <= THETA_13
    even = basis.even.copy()
    even[basis.even] = keep
    if not keep.any():
        return None, ~even, None
    return even, ~even, EvenAlgebra(float(basis.norm[even].max()),
                                    *(x[..., keep] for x in alg[1:]))


def _require_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteValue("matrix exponential entries must be finite")


def _pade_parts(x, x2, x4, x6):
    """Numerator V + U and denominator V - U of the Pade-13 approximant at
    x, from its powers, with every coefficient over b_0 (``PADE_UNIT``);
    b_1 / b_0 and 1 are added to the diagonals in place."""
    b = PADE_UNIT
    u = x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2
    np.einsum("...ii->...i", u)[...] += b[1]
    u = x @ u
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2
    np.einsum("...ii->...i", v)[...] += b[0]
    return v + u, v - u


# a norm that is not finite is refused below; log2(0) of a tiny norm gives s = 0
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _pade_13(x: np.ndarray, norm: np.ndarray, c: float):
    """Scaled Pade-13 parts of c x for a (k, n, n) stack x with 1-norms
    ``norm`` (Higham 2005): each slice's squaring count
    s = max(0, ceil(log2(|c| ||x||_1 / theta_13))) and the numerator V + U
    and denominator V - U at 2^-s c x, whose powers are formed afresh.  At
    c = 1 nothing is scaled.  U is odd and V even, and negation is exact,
    so -c gets the same s with the two swapped, bit for bit.  A non-finite
    norm raises :class:`NonFiniteValue`."""
    norm = abs(c) * norm
    _require_finite(norm)
    squarings = np.maximum(np.ceil(np.log2(norm / THETA_13)), 0.0).astype(int)
    return squarings, *_pade_parts(*_powers(np.ldexp(c * x, -squarings[:, None, None])))


@np.errstate(over="ignore", invalid="ignore")
def _expm(squarings, num, den) -> np.ndarray:
    """exp of the matrix route's slices from their :func:`_pade_13` parts:
    r = den^{-1} num from one stacked real solve den r = num
    (:func:`_solve`; Higham 2005), whatever the exponent anticommutes
    with, squared back, every slice with s > k in one matmul at step k.
    Swapping num and den gives exp(-a) by the same steps.  A non-finite
    result raises :class:`NonFiniteValue`."""
    r = _solve(den, num)
    for step in range(squarings.max(initial=0)):
        todo = squarings > step
        r[todo] = r[todo] @ r[todo]
    _require_finite(r)
    return r


# The algebra route, on slices that need no squaring at c.  With A' = c A
# and Z = A'^2 = w Y (w = c^2), an element x0 + x1 Z of R[Z], where
# Z^2 = sz Z - pz I, is the pair (x0, x1), and an element p + A' q of the
# algebra, p and q in R[Z], is the pair of rows ([p0, p0, q0, q0],
# [p1, p1, q1, q1]), so that p^2, p q and q^2 are products of views.
# z = (sz, pz, -pz).

def _times(x, y, z):
    """x y in R[Z] for pairs x and y, whose components broadcast."""
    (x0, x1), (y0, y1) = x, y
    p = x1 * y1
    return x0 * y0 - p * z[1], x0 * y1 + x1 * y0 + p * z[0]


def _over(x, y, z):
    """x y^{-1} in R[Z], as x y* / det: y* = y0 + y1 sz - y1 Z is y's
    conjugate and det = y y* = y0^2 + y0 y1 sz + y1^2 pz a scalar.  x y* =
    (x0 (y0 + y1 sz) + x1 y1 pz) + (x1 y0 - x0 y1) Z is written out, so no
    two x1 y1 sz terms cancel.  Also returns y*'s scalar part and det."""
    (x0, x1), (y0, y1) = x, y
    conj = y0 + y1 * z[0]
    det = y0 * conj + y1 * y1 * z[1]
    return ((x0 * conj + x1 * y1 * z[1]) / det, (x1 * y0 - x0 * y1) / det), conj, det


def _squares(x, z):
    """Of x = p + A' q in rows: the even part p^2 + Z q^2 and the odd part
    2 p q of x^2, and x x* = p^2 - Z q^2 (x* = p - A' q), three pairs."""
    x0, x1 = x
    (pp0, pq0, qq0), (pp1, pq1, qq1) = _times((x0[:3], x1[:3]), (x0[1:], x1[1:]), z)
    zq0, zq1 = qq1 * z[2], qq0 + qq1 * z[0]
    return (pp0 + zq0, pp1 + zq1), (pq0 + pq0, pq1 + pq1), (pp0 - zq0, pp1 - zq1)


def _rows(p, q):
    """The element p + A' q in rows."""
    return np.array([p[0], p[0], q[0], q[0]]), np.array([p[1], p[1], q[1], q[1]])


def _even_pade(alg: EvenAlgebra, c: float):
    """The Pade-13 approximant of c A on the algebra route: w = c^2, z, and
    the squares of N = V + A' Q (:func:`_squares`), whose
    r = D^{-1} N = N^2 / (D N), D = V - A' Q.  V and Q come from one
    Horner pass in R[Z] over their two stacked rows, a few dozen vector
    operations, and are spread to the rows of N once."""
    w = c * c
    sz, pz = w * alg.sigma, (w * w) * alg.pi
    z = sz, pz, -pz
    x0, x1 = PADE_ROWS[5], PADE_ROWS[6]
    for column in PADE_ROWS[4::-1]:
        x0, x1 = column + x1 * z[2], x0 + x1 * sz
    return w, z, _squares(_rows((x0[0], x1[0]), (x0[1], x1[1])), z)


# overflow and nan are refused by the caller
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _even_exp(alg: EvenAlgebra, n: int, c: float) -> np.ndarray:
    """exp(c A) of the algebra route's slices: r = a + A' b from
    :func:`_even_pade`, as the matrices a0 I + w a1 Y + c b0 A + c w b1 AY."""
    w, z, (even, odd, norm) = _even_pade(alg, c)
    r0, r1 = _over(_rows(even, odd), norm, z)[0]
    out = alg.span[0] * (c * r0[2])
    out += alg.span[1] * ((c * w) * r1[2])
    out += alg.span[2] * (w * r1[0])
    out[::n + 1] += r0[0]
    return np.ascontiguousarray(out.T).reshape(-1, n, n)


# overflow and nan are refused, here or by the guard
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _even_tanh(alg: EvenAlgebra, n: int, c: float):
    """tanh(c A) of the algebra route's slices and kappa_F of its cosh
    factor C.  tanh = A' C^{-1} S, where C = N^2 + D^2 = 2 E and
    A' S = N^2 - D^2 = 2 A' O from the even and odd parts E and O of N^2.
    kappa_F = ||C||_F ||C^{-1}||_F, with C^{-1} = C* / det and
    ||x0 I + x1 Z||_F^2 = n (x0 + x1 tr(Z) / n)^2 + x1^2 ||Z - tr(Z) / n I||_F^2,
    a sum of two squares."""
    w, z, (cosh, sinh, _) = _even_pade(alg, c)
    (t0, t1), conj, det = _over(sinh, cosh, z)
    tau, rest = (2.0 / n) * z[0], cosh[1] * cosh[1] * ((w * w) * alg.spread)
    u, v = cosh[0] + cosh[1] * tau, conj - cosh[1] * tau
    cond = np.sqrt((n * (u * u) + rest) * (n * (v * v) + rest)) / np.abs(det)
    out = alg.span[0] * (c * t0)
    out += alg.span[1] * ((c * w) * t1)
    return np.ascontiguousarray(out.T).reshape(-1, n, n), cond


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t a) of every slice: a stacked scaling-and-squaring Pade-13 in
    numpy.  ``a`` is a stack or its :class:`PadeBasis`, which a caller that
    sweeps t keeps.  t = 0 returns the identity exactly, at once.  Each
    slice takes its route at t (:func:`_routes`): a slice that passes
    ``EVEN_GATE`` and needs no squaring, |t| ||A||_1 <= theta_13, four
    scalars in the algebra of Y = A^2 (:func:`_even_exp`), the same
    approximant to within the dropped odd coefficients; any other slice
    the matrix route (:func:`_pade_13`, :func:`_expm`), on which a zero
    slice gives exactly I.  A non-finite t a is refused as the stack t a
    would be, and a non-finite result raises :class:`NonFiniteValue`."""
    basis = a if isinstance(a, PadeBasis) else pade_basis(a)
    t = float(t)
    if not abs(t) * basis.largest < np.inf:
        raise NonFiniteValue("matrix entries must be finite")
    if t == 0.0:
        return np.broadcast_to(np.eye(basis.shape[-1]), basis.shape).copy()
    even, matrix, alg = _routes(basis, t)
    parts = []
    if even is not None:
        parts.append((even, _even_exp(alg, basis.shape[-1], t)))
    if matrix is not None:
        parts.append((matrix, _expm(*_pade_13(_take(matrix, basis.stack),
                                              _take(matrix, basis.norm), t))))
    out = _scatter(parts, basis.stack.shape)
    _require_finite(out)
    return out.reshape(basis.shape)


def _cosh_sinh(basis: PadeBasis, c: float, matrix):
    """The cosh and sinh factors of tanh(c A) of the matrix route's slices,
    in stack order: N^2 + D^2 and N^2 - D^2 of the Pade parts where no
    squaring is needed, else e + f and e - f of e = exp(c A) and
    f = exp(-c A), with the bits of ``mat_exp(a, c)`` and
    ``mat_exp(a, -c)``: one stacked solve and one run of squarings over
    the doubled stack."""
    squarings, num, den = _pade_13(_take(matrix, basis.stack), _take(matrix, basis.norm), c)
    unscaled = squarings == 0
    parts = []
    if unscaled.any():
        x, y = _take(unscaled, num), _take(unscaled, den)
        n2, d2 = x @ x, y @ y
        parts.append((unscaled, n2 + d2, n2 - d2))
    if not unscaled.all():
        x, y = num[~unscaled], den[~unscaled]
        e, f = np.split(_expm(np.tile(squarings[~unscaled], 2), np.concatenate([x, y]),
                              np.concatenate([y, x])), 2)
        parts.append((~unscaled, e + f, e - f))
    return (_scatter([(mask, cosh) for mask, cosh, _ in parts], num.shape),
            _scatter([(mask, sinh) for mask, _, sinh in parts], num.shape))


def mat_tanh_half(a, t: float) -> np.ndarray:
    """tanh((t/2) a), the quotient (e + f)^{-1} (e - f) of e = exp(h) and
    f = exp(-h), h = t a / 2, refused by :func:`guard_inverse`'s rule on
    kappa_F of the cosh factor.  ``a`` is a stack or its
    :class:`PadeBasis`, and each slice takes its route at t / 2, as for
    :func:`mat_exp`.

    Both exponentials come from one Pade polynomial: -h shares the scaling
    of h, with numerator N and denominator D swapped.  Where h needs no
    squaring (s = 0), e = D^{-1} N and f = N^{-1} D commute, so the quotient
    is (N^2 + D^2)^{-1} (N^2 - D^2): no exponential.  Its guard reads
    kappa_F(N^2 + D^2); N^2 + D^2 = D N (e + f), so that differs from
    kappa_F(e + f) by at most a factor kappa(D N).  D N = V^2 - U^2 is close
    to a multiple of the identity: kappa(D N) stayed below 1.5 over 900
    random h with ||h||_1 at theta_13, dims 2 to 8.  The algebra route
    inverts its cosh factor and reads the same kappa_F in closed form
    (:func:`_even_tanh`); the matrix route's cosh factors
    (:func:`_cosh_sinh`), derived from admitted input and checked finite
    only, go to one :func:`mat_inv`.  The guard reads both routes' kappa_F
    in stack order, with its cap and messages.  Swapping the signs swaps N
    and D, and e and f (on the algebra route, negates A's odd part
    exactly), so tanh is odd in t bit for bit.  t = 0 returns exact zeros
    (+0.0) with no inversion; at any other t a zero slice, on the matrix
    route, has N = D = I and gives +0.0 too.  The cosh factor can only
    degenerate when the spectrum of h approaches an odd multiple of
    i pi / 2; a failed inversion surfaces as :class:`SingularOperator`.
    """
    basis = a if isinstance(a, PadeBasis) else pade_basis(a)
    c = 0.5 * float(t)
    if c == 0.0:
        return np.zeros(basis.shape)
    even, matrix, alg = _routes(basis, c)
    shape = basis.stack.shape
    tanh, cond = [], []
    if even is not None:
        part, kappa = _even_tanh(alg, shape[-1], c)
        tanh.append((even, part))
        cond.append((even, kappa))
    if matrix is not None:
        cosh, sinh = _cosh_sinh(basis, c, matrix)
        _require_finite(cosh)
        inv = mat_inv(cosh)
        cond.append((matrix, _condition_f(cosh, inv)))
    _refuse_ill_conditioned(_scatter(cond, shape[:1]))
    if matrix is not None:
        tanh.append((matrix, inv @ sinh))
    return _scatter(tanh, shape).reshape(basis.shape)


def g_adjoint(a, g: FiberMetric) -> np.ndarray:
    """Adjoint of ``a`` with respect to the fiber metric: G^{-1} (a^T G),
    slice by slice, from the metric's kept inverse, so no call solves;
    a single metric matrix serves a whole stack.  For the identity metric
    it is a C-ordered copy of a^T, with no matmul; its entries are those
    of the product, up to the sign of a zero.  (A transposed view would
    send ``a^T @ a`` to a per-slice syrk, slower than the copy.)"""
    m = as_fiber_matrix(a)
    if m.shape[-1] != g.dim:
        raise DimensionMismatch(
            f"operand dimension {m.shape[-1]} does not match metric dimension {g.dim}")
    if g.is_identity:
        return m.mT.copy()
    return g.inverse @ (m.mT @ g.matrix)
