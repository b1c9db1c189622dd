"""Field-level data model: a discretized manifold and structure fields on it.

The underlying manifold is modelled as a finite set of weighted sample
points whose fibers are independent; integral functionals become weighted
sums over the points.  A field assigns one matrix per point: almost
complex operators, tangent directions, symplectic forms, or metrics.
Closedness of the symplectic form is a statement about the manifold
coordinates, not the fibers, and is outside this model's scope.  A field
is treated as immutable once built, so what its checks read of it (the
J^2 + 1 residuals and the orientation of a structure field) is computed on
first read and kept.

Field files are JSON documents with the layout::

    {"dim": 4,
     "points": [{"id": 0, "weight": 1.0,
                 "metric": [...],    # dim*dim floats, flat row-major or nested rows
                 "J": [...], "W": [...], "K": [...]},
                ...]}

``metric`` may be absent at any point, where it is the identity.  J, W and K
are each present at every point or at none, and K requires J.  Save writes
flat lists with shortest round-trip floats, in the indent-1 layout of
``json.dump`` that a test pins byte for byte; a save/load cycle is lossless.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .charts import FIELD_TOL, random_anticommuting, same_space, standard_acs
from .errors import AnticommutationViolation, DimensionMismatch, IoError
from .fiber import (DEFAULT_COND_CAP, FiberMetric, PadeBasis, antilinear_form, as_fiber_matrix,
                    g_adjoint, max_abs, pade_basis, slice_max_abs)

# Largest fiber dimension a sample space, a suite config or a bundle may
# ask for; larger requests are input errors, refused before any dim x dim
# array exists.  The suite itself runs dims 2 to 6.
MAX_FIBER_DIM = 64
# Positivity of an associated pair: the smallest eigenvalue of the
# symmetric part of W J must exceed this at every point.
POSITIVITY_FLOOR = 1e-12


@dataclass
class SampleSpace:
    """Weighted sample points with a base fiber metric at each.

    Instances are treated as immutable once constructed.  ``fiber_metric``
    is the space's one validated :class:`FiberMetric`: over the given
    ``metrics`` stack, holding that array, or, where ``metrics`` is omitted
    or every point carries exactly the identity (a loaded bundle without
    custom metrics), the one n x n identity; the tiled identity
    ``metrics`` is then kept for :func:`save_bundle`.
    """

    dim: int
    weights: np.ndarray
    metrics: np.ndarray | None = None
    point_ids: tuple = None
    fiber_metric: FiberMetric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 or self.dim > MAX_FIBER_DIM:
            raise DimensionMismatch(
                f"fiber dimension must be even, >= 2 and <= {MAX_FIBER_DIM}, got {self.dim}")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ValueError("a sample space needs at least one point")
        if not np.isfinite(w).all() or not (w > 0).all():
            raise ValueError("weights must be finite and strictly positive")
        self.weights = w
        eye = np.eye(self.dim)
        if self.metrics is None:
            self.metrics = np.tile(eye, (w.size, 1, 1))
        else:
            self.metrics = as_fiber_matrix(self.metrics, (w.size, self.dim, self.dim), "metrics")
        if (self.metrics == eye).all():
            self.fiber_metric = FiberMetric.identity(self.dim)
        else:
            self.fiber_metric = FiberMetric(self.metrics)
        if self.point_ids is None:
            self.point_ids = tuple(range(w.size))
        else:
            self.point_ids = tuple(self.point_ids)
            if len(self.point_ids) != w.size:
                raise DimensionMismatch(
                    f"{len(self.point_ids)} point ids for {w.size} weights")

    @property
    def npoints(self) -> int:
        return self.weights.size


@dataclass
class AcsField:
    """One almost complex structure candidate per sample point.

    Construction checks shape and finiteness only; whether each operator
    actually squares to -identity is the job of :func:`validate_acs`, so
    that defective input data can be loaded and then diagnosed.  Instances
    are treated as immutable once constructed: ``square_residuals``,
    ``is_standard`` and ``orientation`` are computed on first read and kept.
    """

    space: SampleSpace
    ops: np.ndarray

    def __post_init__(self):
        points, dim = self.space.npoints, self.space.dim
        self.ops = as_fiber_matrix(self.ops, (points, dim, dim), "ops")

    @cached_property
    def square_residuals(self) -> np.ndarray:
        """max |J^2 + 1| per point, read-only, NaN or inf where J^2
        overflows; one computation, on first read, which
        :func:`validate_acs` and every chart field at this base share."""
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
            residuals = slice_max_abs(self.ops @ self.ops + np.eye(self.space.dim))
        residuals.flags.writeable = False
        return residuals

    @cached_property
    def is_standard(self) -> bool:
        """Whether every point's operator is exactly the standard structure
        J_std, compared bit for bit; one comparison, on first read, which
        every chart field at this base shares: only there does a chart
        point compute in complex form."""
        return bool((self.ops == standard_acs(self.space.dim)).all())

    @cached_property
    def orientation(self) -> np.ndarray:
        """:func:`orientation_marker` of ``ops`` per point, read-only; one
        call, on first read, so a reference field reused over many
        validations pays once."""
        markers = orientation_marker(self.ops)
        markers.flags.writeable = False
        return markers


@dataclass
class TangentField:
    """A tangent direction at a structure field: per-point matrices
    anticommuting with the base operators, checked to ``FIELD_TOL`` where a
    caller or a chart field (at its own base) builds one; tangents computed
    from checked ones are not checked again (:meth:`derived`).  Treated as
    immutable once built: ``pade``, what the exponential of a multiple of
    it needs, and ``antilinear_form``, what the chart functionals read at a
    J_std base, are computed on first read and kept."""

    space: SampleSpace
    base: AcsField
    ops: np.ndarray

    def __post_init__(self):
        points, dim = self.space.npoints, self.space.dim
        self.ops = as_fiber_matrix(self.ops, (points, dim, dim), "ops")
        same_space(self, self.base)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual refuses
            worst = max_abs(self.ops @ self.base.ops + self.base.ops @ self.ops)
        if not worst <= FIELD_TOL:
            raise AnticommutationViolation(
                f"tangent ops fail to anticommute with the base, residual {worst:.3e}")

    @cached_property
    def pade(self) -> PadeBasis:
        """The :func:`~acsgeom.fiber.pade_basis` of ``ops``, built on first
        read and kept: the geodesic kernels read it at every t, so a sweep
        over t sorts the velocity's slices into routes and forms their
        algebra once."""
        return pade_basis(self.ops)

    @cached_property
    def antilinear_form(self) -> np.ndarray | None:
        """The :func:`~acsgeom.fiber.antilinear_form` of ``ops``, the complex
        (n/2) x (n/2) Q of z -> Q z-bar per point with the point index last,
        or None where some point fails its gate; built on first read and
        kept, so a direction that many chart functionals read pays once."""
        return antilinear_form(self.ops)

    @classmethod
    def derived(cls, base: AcsField, ops: np.ndarray) -> TangentField:
        """The tangent ``ops`` at ``base``, computed from checked ones; unchecked."""
        tangent = cls.__new__(cls)
        tangent.space, tangent.base, tangent.ops = base.space, base, ops
        return tangent


@dataclass
class SymplecticField:
    """A nondegenerate antisymmetric form per point: kappa_F <= DEFAULT_COND_CAP."""

    space: SampleSpace
    forms: np.ndarray

    def __post_init__(self):
        points, dim = self.space.npoints, self.space.dim
        w = self.forms = as_fiber_matrix(self.forms, (points, dim, dim), "forms")
        with np.errstate(over="ignore"):  # an overflow reads as skew
            skew = slice_max_abs(w + w.mT) > 1e-12
        scale = slice_max_abs(w)[:, None, None]
        cond = np.linalg.cond(w / np.where(scale > 0.0, scale, 1.0), "fro")
        bad = skew | ~(np.isfinite(cond) & (cond <= DEFAULT_COND_CAP))
        if bad.any():
            i = int(np.argmax(bad))
            flaw = "is not antisymmetric" if skew[i] else "is degenerate"
            raise ValueError(f"form at point {self.space.point_ids[i]} {flaw}")


class ValuesOnRead(Mapping):
    """Named per-point values of a report, each computed by its function on
    first read and then kept; iterated in the order they were named."""

    def __init__(self, **compute):
        self._compute, self._kept = compute, {}

    def __getitem__(self, key):
        if key not in self._kept:
            self._kept[key] = self._compute[key]()
        return self._kept[key]

    def __iter__(self):
        return iter(self._compute)

    def __len__(self):
        return len(self._compute)


@dataclass(eq=False)
class FieldReport:
    """Outcome of a field validator, held as the per-point arrays it is
    computed from: identity ``residuals``, verdicts ``ok`` (residual within
    ``tolerance``, cleared where positivity or orientation fails) and named
    per-point ``values``, a mapping that may compute a value on its first
    read (:class:`ValuesOnRead`), so a caller that reads only ``passed`` or
    ``ok`` never pays for it.  ``max_residual`` and ``worst_point`` are those
    of the first point of largest residual, a NaN counting as largest."""

    name: str
    point_ids: tuple
    residuals: np.ndarray
    ok: np.ndarray
    tolerance: float
    values: Mapping = field(default_factory=dict)
    passed: bool = field(init=False)
    max_residual: float = field(init=False)
    worst_point: object = field(init=False)

    def __post_init__(self):
        worst = np.argmax(self.residuals)
        self.passed, self.max_residual = bool(self.ok.all()), float(self.residuals[worst])
        self.worst_point = self.point_ids[worst]

    @property
    def per_point(self) -> list[dict]:
        """One record per point: ``id``, ``residual``, the named values, ``passed``."""
        keys = ["id", "residual", *self.values, "passed"]
        columns = [c.tolist() for c in (self.residuals, *self.values.values(), self.ok)]
        return [dict(zip(keys, row)) for row in zip(self.point_ids, *columns)]


def validate_acs(j: AcsField) -> FieldReport:
    """Check J^2 = -identity at every point, from the field's kept
    ``square_residuals``."""
    residuals = j.square_residuals
    return FieldReport("acs", j.space.point_ids, residuals, residuals <= FIELD_TOL, FIELD_TOL)


def split_and_classify(k: TangentField) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Split a tangent field into parts symmetric and antisymmetric for its
    space's metric ``fiber_metric``, returned as (points, n, n) stacks, and
    classify it at each point as 'symmetric', 'antisymmetric' or 'mixed', by
    the max norms of K - K^sharp and K + K^sharp there against
    ``FIELD_TOL``; one metric adjoint K^sharp per point serves both.

    P = (K + K^sharp)/2 and L = K - P, so P + L reproduces K to one
    rounding of the final subtraction (exactly, at dim 2).  The parts are
    plain arrays, not tangent fields: they anticommute with the base only
    when the base operators are skew-adjoint for the metric.
    """
    sharp = g_adjoint(k.ops, k.space.fiber_metric)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller refuses a non-finite part
        p = 0.5 * (k.ops + sharp)
        rs, ra = slice_max_abs(k.ops - sharp), slice_max_abs(k.ops + sharp)
    classes = np.where(rs <= FIELD_TOL, "symmetric",
                       np.where(ra <= FIELD_TOL, "antisymmetric", "mixed"))
    return p, k.ops - p, classes.tolist()


def sym_antisym_split(k: TangentField) -> tuple[np.ndarray, np.ndarray]:
    """The parts P and L of :func:`split_and_classify`."""
    return split_and_classify(k)[:2]


def _min_eig(sym: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each slice of a symmetric stack, from
    ``eigvalsh`` at the finite slices and NaN at the others, where LAPACK
    refuses (dims >= 4) or reads an arbitrary number (dim 2)."""
    finite = slice_max_abs(sym) < np.inf
    min_eig = np.full(len(sym), np.nan)
    min_eig[finite] = np.linalg.eigvalsh(sym[finite])[:, 0]
    return min_eig


def _certified_positive(sym: np.ndarray) -> bool:
    """Whether a Cholesky of S - tau I runs to completion at every slice of
    a symmetric stack, with tau = POSITIVITY_FLOOR + 8 n^3 eps max|S| per
    slice.  tau covers the Cholesky's backward error (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3, which holds for
    any order of the inner products) and eigvalsh's, p(n) eps ||S||_2
    (LAPACK Users' Guide, sec. 4.7), so True means every slice's smallest
    eigenvalue, exact or from eigvalsh, exceeds the floor.

    The factorization is written out with the slice index last: an
    (n, n, k) copy of S - tau I is overwritten by L column by column, each
    step a few vector operations across all k slices, with no LAPACK call.
    It completes where every pivot is positive and finite.  No pivot
    exceeds its finite diagonal entry, so the smallest square root of a
    pivot decides: a zero pivot leaves a root of 0, and a negative or NaN
    one a NaN.  False where a slice is not finite, fails or lies within
    tau of the floor.  Each slice's max|S| is read from that copy."""
    k, n = sym.shape[:2]
    a = sym.reshape(k, n * n).T.copy()  # row r n + c holds entry (r, c) of every slice
    scale = np.abs(a).max(axis=0)  # a NaN entry gives NaN
    if not (scale < np.inf).all():
        return False
    a[::n + 1] -= POSITIVITY_FLOOR + 8 * n**3 * np.finfo(float).eps * scale
    a = a.reshape(n, n, k)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(n):
            if j:
                a[j:, j] -= np.einsum("ipk,pk->ik", a[j:, :j], a[j, :j])
            np.sqrt(a[j, j], out=a[j, j])
            a[j + 1:, j] /= a[j, j]
        roots = a.reshape(n * n, k)[::n + 1]  # the square roots of the pivots
        return bool(roots.min(initial=np.inf) > 0.0)  # a NaN fails


def validate_associated(j: AcsField, w: SymplecticField) -> FieldReport:
    """Check that j is positively associated with w at every point.

    Invariance means J^T W J = W; positivity means the smallest eigenvalue
    ``min_eig`` of S, the symmetric part of W J, exceeds
    ``POSITIVITY_FLOOR``.  Both read one product P = W J: the residual is
    that of J^T P - W, and S = (P + P^T) / 2.  The verdict is eigvalsh's:
    read from one Cholesky written out in numpy
    (:func:`_certified_positive`), else from ``min_eig``, which the report
    otherwise computes from the kept, read-only S on the first read of
    ``values["min_eig"]`` or ``per_point``.
    """
    same_space(j, w)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
        prod = w.forms @ j.ops
        residuals = slice_max_abs(j.ops.mT @ prod - w.forms)
        sym = 0.5 * (prod + prod.mT)
    sym.flags.writeable = False
    values = ValuesOnRead(min_eig=lambda: _min_eig(sym))
    positive = _certified_positive(sym) or values["min_eig"] > POSITIVITY_FLOOR
    return FieldReport("associated", j.space.point_ids, residuals,
                       (residuals <= FIELD_TOL) & positive, FIELD_TOL, values)


def _parlett_reid_signs(a: np.ndarray) -> np.ndarray:
    """sign Pf of each slice of a (k, n, n) antisymmetric stack, by
    Parlett-Reid elimination with pivoting (Wimmer 2012): n/2 stacked steps
    of a row and column swap and a rank-2 update, with no QR, determinant
    or SVD; a zero or NaN Pfaffian reads -1.  Overwrites ``a``."""
    sign = np.ones(len(a))
    for _ in range(a.shape[-1] // 2):
        p = np.argmax(np.abs(a[:, 1:, 0]), axis=-1)  # pivot row less one
        s, p = np.nonzero(p)[0], p[p > 0] + 1  # the slices that swap
        sign[s] *= -1
        a[s, 1], a[s, p] = a[s, p], a[s, 1]
        a[s, :, 1], a[s, :, p] = a[s, :, p], a[s, :, 1]
        sign *= np.sign(a[:, 0, 1])
        w0, w1 = a[:, 2:, :1], a[:, 2:, 1:2]
        a = a[:, 2:, 2:] + (w1 * w0.mT - w0 * w1.mT) / a[:, 0, 1, None, None]
    return np.where(sign > 0, 1, -1)


def orientation_marker(j):
    """J's complex orientation: the sign of the Pfaffian of Omega = J^T - J.

    For J^2 = -identity, Omega tames J: x^T Omega J x = |J x|^2 + |x|^2 > 0,
    so sign Pf(Omega) is the orientation of J's complex frames (x, J x),
    +1 at the standard structure.  At n = 2 and 4 it is read from the
    closed forms Pf = Omega_01 and Omega_01 Omega_23 - Omega_02 Omega_13 +
    Omega_03 Omega_12; above, by Parlett-Reid elimination
    (:func:`_parlett_reid_signs`).  A zero or NaN Pfaffian reads -1.  For J
    far from squaring to -identity, which fails :func:`validate_acs`, the
    sign need not match any frame: at n = 2, J = [[0, 1], [1, 0]] reads -1;
    and where Pf is zero to rounding or overflows, the two ways of reading
    it may give either sign.

    ``j`` is one matrix, giving an ``int``, or a ``(..., n, n)`` stack,
    giving an int array of shape ``(...)``.
    """
    m = np.asarray(j, dtype=float)
    n = m.shape[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a zero Pf reads -1
        if n <= 4:
            flat = m.reshape(-1, n * n).T

            def omega(r, c):  # the entries Omega_rc of all slices
                return flat[n * c + r] - flat[n * r + c]

            pf = omega(0, 1) if n == 2 else (omega(0, 1) * omega(2, 3) - omega(0, 2) * omega(1, 3)
                                             + omega(0, 3) * omega(1, 2))
            signs = np.where(pf > 0, 1, -1)
        else:
            a = m.reshape(-1, n, n)
            signs = _parlett_reid_signs(a.mT - a)
    return int(signs[0]) if m.ndim == 2 else signs.reshape(m.shape[:-2])


def validate_orthogonal(j: AcsField, g: FiberMetric, j_ref: AcsField) -> FieldReport:
    """Check that j is g-orthogonal and matches the reference orientation.

    ``g`` is one n x n metric for every point or a (points, n, n) stack; a
    caller passes its space's ``fiber_metric``.  Orthogonality
    g(JX, JY) = g(X, Y) reads J^sharp J = identity; combined with
    J^2 = -identity it says J is g-skew.  The orientation marker at each
    point must equal that of the reference structure; both are the fields'
    kept ``orientation``.
    """
    same_space(j, j_ref)
    if g.matrix.shape[:-2] not in ((), (j.space.npoints,)):
        raise DimensionMismatch(f"metric of shape {g.matrix.shape} for {j.space.npoints} points")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
        residuals = slice_max_abs(g_adjoint(j.ops, g) @ j.ops - np.eye(j.space.dim))
    markers, ref_markers = j.orientation, j_ref.orientation
    return FieldReport("orthogonal", j.space.point_ids, residuals,
                       (residuals <= FIELD_TOL) & (markers == ref_markers), FIELD_TOL,
                       {"orientation": markers, "reference_orientation": ref_markers})


# ---------------------------------------------------------------------------
# constructors used by checks, the CLI and tests

def random_sample_space(rng: np.random.Generator, dim: int, points: int = 8) -> SampleSpace:
    """Sample space with uniform(0.5, 1.5) weights and identity metrics."""
    if points < 1:
        raise ValueError("need at least one point")
    return SampleSpace(dim, rng.uniform(0.5, 1.5, size=points))


def standard_acs_field(space: SampleSpace) -> AcsField:
    """The standard structure at every point."""
    return AcsField(space, np.tile(standard_acs(space.dim), (space.npoints, 1, 1)))


def standard_symplectic_field(space: SampleSpace) -> SymplecticField:
    """The form making the standard structure positively associated
    under the identity metric: W = J0^T per point."""
    return SymplecticField(space, np.tile(standard_acs(space.dim).T,
                                          (space.npoints, 1, 1)))


def identity_metric_field(space: SampleSpace) -> FiberMetric:
    """The identity metric of ``space``'s fibers: one n x n matrix."""
    return FiberMetric.identity(space.dim)


def random_tangent_field(rng: np.random.Generator, j: AcsField, *,
                         part: str | None = None, bound: float = 0.9) -> TangentField:
    """Independent random anticommuting direction at every point."""
    stack = random_anticommuting(rng, j.ops, metric=j.space.fiber_metric,
                                 part=part, bound=bound)
    return TangentField(j.space, j, stack)


# ---------------------------------------------------------------------------
# serialization

@dataclass
class FieldBundle:
    """A sample space plus whichever fields a file carried."""

    space: SampleSpace
    J: AcsField | None = None
    W: SymplecticField | None = None
    K: TangentField | None = None


def _numbers(values, what: str) -> np.ndarray:
    """Array of the JSON numbers in ``values``, else IoError; not yet checked finite."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise IoError(f"{what} is not a regular array of numbers") from None
    if arr.dtype.kind not in "iuf":
        raise IoError(f"{what} must hold finite numbers only")
    return arr


def _flat_stack(points: list, key: str, dim: int) -> np.ndarray | None:
    """``key``'s float stack from one ``np.asarray`` over all points, or None
    unless every point holds a flat list of dim*dim numbers that converts to
    float.  Each list then has the values it has alone, and the dtype, except
    that booleans turn into 0.0 and 1.0; so rows of zeros and ones are checked
    for the all-boolean lists :func:`_numbers` refuses."""
    try:
        rows = [entry[key] for entry in points]
        flat = np.asarray(rows)
    except (KeyError, ValueError):  # absent at a point; ragged
        return None
    if flat.dtype != float or flat.shape != (len(points), dim * dim):
        return None
    zeros_and_ones = np.flatnonzero(((flat == 0.0) | (flat == 1.0)).all(axis=1))
    if any(set(map(type, rows[i])) == {bool} for i in zeros_and_ones):
        return None
    return flat.reshape(-1, dim, dim)


def _matrix_stack(points: list, ids: tuple, key: str, dim: int,
                  default: np.ndarray | None = None) -> np.ndarray | None:
    """The ``(points, dim, dim)`` float stack of matrix ``key``, flat or nested
    at each point, or None if no point holds one; a point without it takes
    ``default``, if given.  Errors name the point at fault.  The layout
    :func:`save_bundle` writes converts in one pass; other layouts, and
    fields a point holds in error, are read point by point."""
    stack = _flat_stack(points, key, dim)
    if stack is None:
        rows = []
        for entry, pid in zip(points, ids):
            if key not in entry:
                if default is not None:
                    rows.append(default)
                continue
            arr = _numbers(entry[key], f"matrix {key!r} at point {pid!r}")
            if arr.size != dim * dim:
                raise IoError(f"matrix {key!r} at point {pid!r} has {arr.size} entries, "
                              f"expected {dim * dim}")
            rows.append(arr.reshape(dim, dim))
        if len(rows) not in (0, len(points)):
            raise IoError(f"field {key!r} is present at some points only")
        if not rows:
            return None
        stack = np.array(rows, dtype=float)
    finite = slice_max_abs(stack) < np.inf  # a NaN or infinite entry fails
    if not finite.all():
        pid = ids[int(np.argmin(finite))]
        raise IoError(f"matrix {key!r} at point {pid!r} must hold finite numbers only")
    return stack


def save_bundle(bundle: FieldBundle, path) -> None:
    """Write a field bundle to a JSON document (see the module docstring),
    streaming point by point the text of ``json.dump(doc, fh, indent=1)``
    for one dict per point: ``json`` writes finite floats with ``float.__repr__``.
    Only list and dict ids need the indenting encoder, which is pure Python;
    the others take the C encoder of ``json.dumps``."""
    space, indented = bundle.space, json.JSONEncoder(indent=1).encode
    named = [("metric", space.metrics)] + [
        (key, f.forms if key == "W" else f.ops)
        for key, f in (("J", bundle.J), ("W", bundle.W), ("K", bundle.K)) if f is not None]
    key_texts = [f',\n   "{key}": [\n    ' for key, _ in named]
    rows = [stack.reshape(space.npoints, -1).tolist() for _, stack in named]
    # finite floats differ by exactly 0 where they are equal
    custom = (slice_max_abs(space.metrics - np.eye(space.dim)) > 0.0).tolist()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{\n "dim": {json.dumps(space.dim)},\n "points": [')
            for i, (pid, weight, own_metric, *matrices) in enumerate(
                    zip(space.point_ids, space.weights.tolist(), custom, *rows)):
                if isinstance(pid, (list, tuple, dict)):
                    pid_text = indented(pid).replace("\n", "\n   ")
                else:
                    pid_text = json.dumps(pid)
                head = (",\n" if i else "\n") + '  {\n   "id": ' + pid_text
                fh.write(f'{head},\n   "weight": {weight!r}')
                for k, (key_text, row) in enumerate(zip(key_texts, matrices)):
                    if k or own_metric:  # an identity metric is left out
                        fh.write(key_text + ",\n    ".join(map(repr, row)) + "\n   ]")
                fh.write("\n  }")
            fh.write("\n ]\n}\n")
    except OSError as exc:
        raise IoError(f"cannot write field file {path}: {exc}") from None


def load_bundle(path) -> FieldBundle:
    """Read a field bundle written by :func:`save_bundle`.

    Malformed documents (unparseable JSON, missing keys, ragged matrix
    data, entries that are not finite numbers, invalid metrics or forms,
    fields present at some points only) raise :class:`IoError`.
    Tangent data that fails to anticommute with its base raises
    :class:`AnticommutationViolation`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read field file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IoError(f"field file {path} is not valid JSON: {exc}") from None

    if not isinstance(doc, dict) or "dim" not in doc or "points" not in doc:
        raise IoError(f"field file {path} lacks the required dim/points keys")
    dim = doc["dim"]
    points = doc["points"]
    if not isinstance(dim, int) or dim < 2 or not isinstance(points, list) or not points:
        raise IoError(f"field file {path} has a malformed dim or points entry")
    if dim > MAX_FIBER_DIM:
        raise IoError(f"field file {path} asks for dim {dim}, above the cap {MAX_FIBER_DIM}")
    if not all(isinstance(e, dict) and "id" in e and "weight" in e for e in points):
        raise IoError(f"field file {path} has a point without id or weight")

    ids = tuple(entry["id"] for entry in points)
    metrics = _matrix_stack(points, ids, "metric", dim, np.eye(dim))
    j_ops, w_forms, k_ops = (_matrix_stack(points, ids, key, dim) for key in "JWK")
    try:
        space = SampleSpace(dim, _numbers([e["weight"] for e in points], "weights"), metrics, ids)
    except (DimensionMismatch, ValueError) as exc:
        raise IoError(f"field file {path} holds an invalid sample space: {exc}") from None

    j_field = AcsField(space, j_ops) if j_ops is not None else None
    w_field = None
    if w_forms is not None:
        try:
            w_field = SymplecticField(space, w_forms)
        except ValueError as exc:
            raise IoError(f"field file {path} holds an invalid form field: {exc}") from None
    k_field = None
    if k_ops is not None:
        if j_field is None:
            raise IoError("tangent data K requires a base field J in the same file")
        k_field = TangentField(space, j_field, k_ops)
    return FieldBundle(space, j_field, w_field, k_field)
