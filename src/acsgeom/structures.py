"""Field-level data model: a discretized manifold and structure fields on it.

The underlying manifold is modelled as a finite set of weighted sample
points whose fibers are independent; integral functionals become weighted
sums over the points.  A field assigns one matrix per point: almost
complex operators, tangent directions, symplectic forms, or metrics.
Closedness of the symplectic form is a statement about the manifold
coordinates, not the fibers, and is outside this model's scope.

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
from dataclasses import dataclass, field

import numpy as np

from .charts import COORD_TOL, random_anticommuting, standard_acs
from .errors import (
    AnticommutationViolation,
    DimensionMismatch,
    IoError,
    NonFiniteValue,
)
from .fiber import DEFAULT_COND_CAP, FiberMetric, g_adjoint, max_abs

# Largest fiber dimension a sample space, a suite config or a bundle may
# ask for; larger requests are input errors, refused before any dim x dim
# array exists.  The suite itself runs dims 2 to 6.
MAX_FIBER_DIM = 64
# Positivity of an associated pair: the smallest eigenvalue of the
# symmetric part of W J must exceed this at every point.
POSITIVITY_FLOOR = 1e-12


def _as_stack(ops, dim: int, npoints: int, name: str) -> np.ndarray:
    arr = np.asarray(ops, dtype=float)
    if arr.shape != (npoints, dim, dim):
        raise DimensionMismatch(
            f"{name} must have shape {(npoints, dim, dim)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{name} entries must be finite")
    return arr


def same_space(*fields) -> None:
    """Raise DimensionMismatch unless all fields share fiber dimension and
    point count."""
    first = fields[0].space
    for f in fields[1:]:
        if f.space.dim != first.dim or f.space.npoints != first.npoints:
            raise DimensionMismatch("fields live on different sample spaces")


@dataclass
class SampleSpace:
    """Weighted sample points with a base fiber metric at each.

    Instances are treated as immutable once constructed.  ``metrics`` may
    be omitted, in which case every point carries the identity metric.
    ``fiber_metric`` is the validated :class:`FiberMetric` over the whole
    ``metrics`` stack.
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
        if self.metrics is None:
            self.metrics = np.tile(np.eye(self.dim), (w.size, 1, 1))
        else:
            self.metrics = _as_stack(self.metrics, self.dim, w.size, "metrics")
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
    that defective input data can be loaded and then diagnosed.
    """

    space: SampleSpace
    ops: np.ndarray

    def __post_init__(self):
        self.ops = _as_stack(self.ops, self.space.dim, self.space.npoints, "ops")


@dataclass
class TangentField:
    """A tangent direction at a structure field: per-point matrices
    anticommuting with the base operators, checked to ``COORD_TOL`` where a
    caller builds one; tangents computed from checked ones are not checked
    again (:meth:`derived`)."""

    space: SampleSpace
    base: AcsField
    ops: np.ndarray

    def __post_init__(self):
        self.ops = _as_stack(self.ops, self.space.dim, self.space.npoints, "ops")
        same_space(self, self.base)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual refuses
            worst = max_abs(self.ops @ self.base.ops + self.base.ops @ self.ops)
        if not worst <= COORD_TOL:
            raise AnticommutationViolation(
                f"tangent ops fail to anticommute with the base, residual {worst:.3e}")

    @classmethod
    def derived(cls, base: AcsField, ops: np.ndarray) -> TangentField:
        """The tangent ``ops`` at ``base``, computed from checked ones; unchecked."""
        tangent = cls.__new__(cls)
        tangent.space, tangent.base, tangent.ops = base.space, base, ops
        return tangent


@dataclass
class SymplecticField:
    """A nondegenerate antisymmetric form per point."""

    space: SampleSpace
    forms: np.ndarray

    def __post_init__(self):
        w = self.forms = _as_stack(self.forms, self.space.dim, self.space.npoints, "forms")
        with np.errstate(over="ignore"):  # an overflow reads as skew
            skew = np.max(np.abs(w + w.mT), axis=(1, 2)) > 1e-12
        cond = np.linalg.cond(w)
        bad = skew | ~(np.isfinite(cond) & (cond <= DEFAULT_COND_CAP))
        if bad.any():
            i = int(np.argmax(bad))
            flaw = "is not antisymmetric" if skew[i] else "is degenerate"
            raise ValueError(f"form at point {self.space.point_ids[i]} {flaw}")


@dataclass
class MetricField:
    """A symmetric positive-definite metric per point.

    ``fiber_metric`` is the validated :class:`FiberMetric` over the
    ``metrics`` stack; it holds that same array, not a copy.  The space's
    own ``metrics`` were validated with the space, whose ``fiber_metric``
    is then shared.
    """

    space: SampleSpace
    metrics: np.ndarray
    fiber_metric: FiberMetric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.metrics is self.space.metrics:
            self.fiber_metric = self.space.fiber_metric
            return
        self.metrics = _as_stack(self.metrics, self.space.dim, self.space.npoints, "metrics")
        self.fiber_metric = FiberMetric(self.metrics)


@dataclass(eq=False)
class FieldReport:
    """Outcome of a field validator, held as the per-point arrays it is
    computed from: identity ``residuals``, verdicts ``ok`` (residual within
    ``tolerance``, cleared where positivity or orientation fails) and named
    per-point ``values``.  ``max_residual`` and ``worst_point`` are those of
    the first point of largest residual, a NaN counting as largest."""

    name: str
    point_ids: tuple
    residuals: np.ndarray
    ok: np.ndarray
    tolerance: float
    values: dict = field(default_factory=dict)
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


def _residuals(stack: np.ndarray) -> np.ndarray:
    """Per-point max norms of a (points, n, n) stack of identity defects."""
    return np.max(np.abs(stack), axis=(1, 2))


def validate_acs(j: AcsField, tol: float = 1e-10) -> FieldReport:
    """Check J^2 = -identity at every point."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
        residuals = _residuals(j.ops @ j.ops + np.eye(j.space.dim))
    return FieldReport("acs", j.space.point_ids, residuals, residuals <= tol, tol)


def _sharps(a: TangentField | AcsField, g: MetricField) -> np.ndarray:
    """Metric adjoints A^sharp of a field's operators, one per point."""
    same_space(a, g)
    return g_adjoint(a.ops, g.fiber_metric)


def split_and_classify(k: TangentField, g: MetricField, tol: float = 1e-10
                       ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Split a tangent field into metric-symmetric and antisymmetric parts,
    returned as (points, n, n) stacks, and classify it at each point as
    'symmetric', 'antisymmetric' or 'mixed', by the max norms of K - K^sharp
    and K + K^sharp there; one metric adjoint K^sharp per point serves both.

    P = (K + K^sharp)/2 and L = K - P, so P + L reproduces K to one
    rounding of the final subtraction (exactly, at dim 2).  The parts are
    plain arrays, not tangent fields: they anticommute with the base only
    when the base operators are skew-adjoint for g.
    """
    sharp = _sharps(k, g)
    p = 0.5 * (k.ops + sharp)
    rs, ra = _residuals(k.ops - sharp), _residuals(k.ops + sharp)
    classes = np.where(rs <= tol, "symmetric", np.where(ra <= tol, "antisymmetric", "mixed"))
    return p, k.ops - p, classes.tolist()


def sym_antisym_split(k: TangentField, g: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """The parts P and L of :func:`split_and_classify`."""
    return split_and_classify(k, g)[:2]


def validate_associated(j: AcsField, w: SymplecticField,
                        tol: float = 1e-10) -> FieldReport:
    """Check that j is positively associated with w at every point.

    Invariance means J^T W J = W; positivity means the smallest eigenvalue
    of the symmetric part of W J exceeds ``POSITIVITY_FLOOR``.
    """
    same_space(j, w)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
        residuals = _residuals(j.ops.mT @ w.forms @ j.ops - w.forms)
        prod = w.forms @ j.ops
        min_eig = np.linalg.eigvalsh(0.5 * (prod + prod.mT))[:, 0]
    return FieldReport("associated", j.space.point_ids, residuals,
                       (residuals <= tol) & (min_eig > POSITIVITY_FLOOR), tol, {"min_eig": min_eig})


def orientation_marker(j):
    """J's complex orientation: the sign of the Pfaffian of Omega = J^T - J.

    For J^2 = -identity, Omega tames J: x^T Omega J x = |J x|^2 + |x|^2 > 0,
    so sign Pf(Omega) is the orientation of J's complex frames (x, J x),
    +1 at the standard structure.  It is read by Parlett-Reid elimination
    with pivoting (Wimmer 2012), n/2 stacked steps of a row and column swap
    and a rank-2 update, with no QR, determinant or SVD.  A zero or NaN Pfaffian reads
    -1.  For J far from squaring to -identity, which fails
    :func:`validate_acs`, the sign need not match any frame: at n = 2,
    J = [[0, 1], [1, 0]] reads -1.

    ``j`` is one matrix, giving an ``int``, or a ``(..., n, n)`` stack,
    giving an int array of shape ``(...)``.
    """
    m = np.asarray(j, dtype=float)
    n = m.shape[-1]
    a = m.reshape(-1, n, n)
    a, sign = a.mT - a, np.ones(len(a))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot reads -1
        for _ in range(n // 2):
            p = np.argmax(np.abs(a[:, 1:, 0]), axis=-1)  # pivot row less one
            s, p = np.nonzero(p)[0], p[p > 0] + 1  # the slices that swap
            sign[s] *= -1
            a[s, 1], a[s, p] = a[s, p], a[s, 1]
            a[s, :, 1], a[s, :, p] = a[s, :, p], a[s, :, 1]
            sign *= np.sign(a[:, 0, 1])
            w0, w1 = a[:, 2:, :1], a[:, 2:, 1:2]
            a = a[:, 2:, 2:] + (w1 * w0.mT - w0 * w1.mT) / a[:, 0, 1, None, None]
        signs = np.where(sign > 0, 1, -1)
    return int(signs[0]) if m.ndim == 2 else signs.reshape(m.shape[:-2])


def validate_orthogonal(j: AcsField, g: MetricField, j_ref: AcsField,
                        tol: float = 1e-10) -> FieldReport:
    """Check that j is g-orthogonal and matches the reference orientation.

    Orthogonality g(JX, JY) = g(X, Y) reads J^sharp J = identity; combined
    with J^2 = -identity it says J is g-skew.  The orientation marker at
    each point must equal that of the reference structure.
    """
    same_space(j, g, j_ref)
    residuals = _residuals(_sharps(j, g) @ j.ops - np.eye(j.space.dim))
    markers, ref_markers = orientation_marker(j.ops), orientation_marker(j_ref.ops)
    return FieldReport("orthogonal", j.space.point_ids, residuals,
                       (residuals <= tol) & (markers == ref_markers), tol,
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


def identity_metric_field(space: SampleSpace) -> MetricField:
    return MetricField(space, np.tile(np.eye(space.dim), (space.npoints, 1, 1)))


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
    finite = np.isfinite(stack).all(axis=(1, 2))
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
    custom = (space.metrics != np.eye(space.dim)).any(axis=(1, 2)).tolist()
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
