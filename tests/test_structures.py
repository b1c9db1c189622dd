import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from acsgeom import structures
from acsgeom.charts import standard_acs
from acsgeom.errors import (
    AnticommutationViolation,
    DimensionMismatch,
    IoError,
)
from acsgeom.fiber import DEFAULT_COND_CAP, g_adjoint, mat_exp, max_abs
from acsgeom.geometry import geodesic_ambient
from acsgeom.structures import (
    MAX_FIBER_DIM,
    POSITIVITY_FLOOR,
    AcsField,
    FieldBundle,
    MetricField,
    SampleSpace,
    SymplecticField,
    TangentField,
    identity_metric_field,
    load_bundle,
    orientation_marker,
    random_sample_space,
    random_tangent_field,
    save_bundle,
    split_and_classify,
    standard_acs_field,
    standard_symplectic_field,
    sym_antisym_split,
    validate_acs,
    validate_associated,
    validate_orthogonal,
)


def greedy_marker(j) -> int:
    """Orientation marker of one matrix by the per-matrix greedy
    Gram-Schmidt: the oracle for the stacked :func:`orientation_marker`."""
    m = np.asarray(j, dtype=float)
    n = m.shape[0]
    cols = []
    for c in range(n):
        if len(cols) == n:
            break
        e = np.zeros(n)
        e[c] = 1.0
        if cols:
            q, _ = np.linalg.qr(np.column_stack(cols))
            e = e - q @ (q.T @ e)
        norm = float(np.linalg.norm(e))
        if norm < 1e-8:
            continue
        u = e / norm
        cols.append(u)
        cols.append(m @ u)
    return 1 if np.linalg.det(np.column_stack(cols)) > 0 else -1


def peak_traced_bytes(fn) -> int:
    """Peak memory traced by tracemalloc (numpy arrays included) while
    ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def space2():
    return SampleSpace(2, np.array([1.0, 2.0, 0.5]))


@pytest.fixture
def space4():
    return random_sample_space(np.random.default_rng(0), 4, points=5)


class TestSampleSpace:
    def test_defaults(self, space2):
        assert space2.npoints == 3
        assert space2.point_ids == (0, 1, 2)
        assert np.array_equal(space2.metrics[1], np.eye(2))

    def test_rejects_odd_dim(self):
        with pytest.raises(DimensionMismatch):
            SampleSpace(3, np.ones(2))

    def test_dim_cap_refuses_before_allocating(self):
        assert SampleSpace(MAX_FIBER_DIM, np.ones(1)).dim == MAX_FIBER_DIM

        def build():
            with pytest.raises(DimensionMismatch, match=str(MAX_FIBER_DIM)):
                SampleSpace(1000, np.ones(3))

        assert peak_traced_bytes(build) < 10**6

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            SampleSpace(2, np.array([1.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSpace(2, np.array([]))

    def test_custom_ids_checked(self):
        with pytest.raises(DimensionMismatch):
            SampleSpace(2, np.ones(2), point_ids=("a",))

    def test_rejects_indefinite_metric(self):
        bad = np.tile(np.diag([1.0, -1.0]), (2, 1, 1))
        with pytest.raises(ValueError):
            SampleSpace(2, np.ones(2), metrics=bad)


class TestFields:
    def test_acs_field_shape_only(self, space2):
        # not a complex structure, still loadable; the validator flags it
        field = AcsField(space2, np.zeros((3, 2, 2)))
        rep = validate_acs(field)
        assert not rep.passed
        assert rep.max_residual == 1.0

    def test_tangent_field_enforces_anticommutation(self, space2):
        j = standard_acs_field(space2)
        with pytest.raises(AnticommutationViolation):
            TangentField(space2, j, np.tile(np.eye(2), (3, 1, 1)))

    def test_symplectic_rejects_symmetric(self, space2):
        with pytest.raises(ValueError):
            SymplecticField(space2, np.tile(np.eye(2), (3, 1, 1)))

    def test_symplectic_rejects_degenerate(self, space2):
        with pytest.raises(ValueError):
            SymplecticField(space2, np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("a, b, refused", [
        (1.0, 1.0, False), (1e-200, 1e-200, False), (1e200, 1e200, False),
        (6e11, 1.0, True), (1.0, 0.0, True), (0.0, 0.0, True)])
    def test_symplectic_reads_kappa_f(self, a, b, refused):
        # a dim-4 block form with singular values (a, a, b, b) at the last
        # point: kappa_F = 2 a / b at any scale, so a / b = 6e11 is refused,
        # though kappa_2 = a / b is below the cap
        space = SampleSpace(4, np.ones(2), point_ids=["p", "q"])
        d = np.diag([a, b])
        form = np.block([[np.zeros((2, 2)), d], [-d, np.zeros((2, 2))]])
        forms = np.stack([standard_acs(4).T, form])
        if (a, b) == (6e11, 1.0):
            assert np.linalg.cond(form) < DEFAULT_COND_CAP < np.linalg.cond(form, "fro")
        if refused:
            with pytest.raises(ValueError, match="^form at point q is degenerate$"):
                SymplecticField(space, forms)
        else:
            SymplecticField(space, forms)

    def test_metric_field_spd(self, space2):
        with pytest.raises(ValueError):
            MetricField(space2, np.tile(np.diag([1.0, -2.0]), (3, 1, 1)))

    def test_metric_field_of_space_shares_its_fiber_metrics(self):
        space = SampleSpace(2, np.ones(2), metrics=np.tile(np.diag([1.0, 4.0]), (2, 1, 1)))
        g = MetricField(space, space.metrics)
        # one FiberMetric over the whole stack, holding the space's own array
        assert g.fiber_metric.matrix is space.fiber_metric.matrix
        assert space.fiber_metric.matrix is space.metrics
        assert space.fiber_metric.matrix.shape == (2, 2, 2)

    def test_metric_field_of_space_is_not_validated_again(self, monkeypatch):
        space = SampleSpace(2, np.ones(2))
        monkeypatch.setattr(structures, "FiberMetric", None)  # any new one would fail
        assert MetricField(space, space.metrics).fiber_metric is space.fiber_metric

    def test_metric_field_of_other_array_is_validated(self):
        space = SampleSpace(2, np.ones(3))
        g = MetricField(space, space.metrics.copy())
        assert g.fiber_metric is not space.fiber_metric
        with pytest.raises(ValueError):
            MetricField(space, np.tile(np.diag([1.0, -2.0]), (3, 1, 1)))


class TestValidateAcs:
    def test_standard_passes_exactly(self, space4):
        rep = validate_acs(standard_acs_field(space4))
        assert rep.passed
        assert rep.max_residual == 0.0

    def test_locates_perturbed_point(self, space2):
        ops = np.tile(standard_acs(2), (3, 1, 1))
        ops[1, 0, 0] += 1e-3
        rep = validate_acs(AcsField(space2, ops))
        assert not rep.passed
        assert rep.worst_point == 1
        assert [e["passed"] for e in rep.per_point] == [True, False, True]


def record_report(space, residuals: list, entries: list, tol: float) -> dict:
    """The validators' reports as one record per point, built the way they
    were before the reports held arrays: the oracle of :class:`FieldReport`."""
    per_point = [{"id": pid, "residual": r, **e}
                 for pid, r, e in zip(space.point_ids, residuals, entries)]
    worst = int(np.argmax(residuals))
    return {"passed": all(e["passed"] for e in entries), "max_residual": residuals[worst],
            "tolerance": tol, "worst_point": space.point_ids[worst], "per_point": per_point}


def record_residuals(stack) -> list:
    return np.max(np.abs(stack), axis=(1, 2)).tolist()


def record_acs(j, tol):
    residuals = record_residuals(j.ops @ j.ops + np.eye(j.space.dim))
    return record_report(j.space, residuals, [{"passed": r <= tol} for r in residuals], tol)


def inline_min_eig(sym):
    """eigvalsh's smallest eigenvalue of each finite slice, NaN at the
    others: the oracle of the report's ``min_eig``."""
    finite = np.isfinite(sym).all(axis=(1, 2))
    return np.where(finite, np.linalg.eigvalsh(np.where(finite[:, None, None], sym, 0.0))[:, 0],
                    np.nan)


def record_associated(j, w, tol):
    residuals = record_residuals(j.ops.mT @ w.forms @ j.ops - w.forms)
    prod = w.forms @ j.ops
    min_eigs = inline_min_eig(0.5 * (prod + prod.mT)).tolist()
    entries = [{"min_eig": e, "passed": r <= tol and e > POSITIVITY_FLOOR}
               for r, e in zip(residuals, min_eigs)]
    return record_report(j.space, residuals, entries, tol)


def record_orthogonal(j, g, j_ref, tol):
    residuals = record_residuals(g_adjoint(j.ops, g.fiber_metric) @ j.ops - np.eye(j.space.dim))
    markers = orientation_marker(j.ops).tolist()
    ref_markers = orientation_marker(j_ref.ops).tolist()
    entries = [{"orientation": m, "reference_orientation": ref, "passed": r <= tol and m == ref}
               for r, m, ref in zip(residuals, markers, ref_markers)]
    return record_report(j.space, residuals, entries, tol)


def assert_same(got, want, where="$"):
    """Equal values of the same types, NaN equal to NaN, dict keys in the
    same order."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), where
    else:
        assert got == want, (where, got, want)


def validator_case(kind: str, dim: int, seed: int):
    """Random inputs of one validator on 12 points with str and int ids.

    Even points lie on a symmetric geodesic (associated with the standard
    form), odd points on an antisymmetric one (orthogonal; J0 at dim 2).
    Point 1 fails every identity by a little, points 2 and 5 tie at the
    largest residual, point 3 is negated (invariance holds, positivity
    fails), point 4 is conjugated by a reflection (orthogonality holds,
    the orientation flips) and point 9 has a non-identity metric.  Seeds
    2 and 3 put NaN residuals at points 8 and 10, through entries set after
    the finiteness checks of construction; their ``min_eig`` reads NaN.
    Returns the validator's arguments and the expected worst point.
    """
    rng = np.random.default_rng([dim, seed])
    points = 12
    space = SampleSpace(dim, rng.uniform(0.5, 1.5, points),
                        point_ids=[f"p{i}" if i % 3 == 0 else i for i in range(points)])
    j0 = standard_acs_field(space)
    sym = geodesic_ambient(j0, random_tangent_field(rng, j0, part="symmetric"), 1.0).ops
    anti = (geodesic_ambient(j0, random_tangent_field(rng, j0, part="antisymmetric"), 1.0).ops
            if dim >= 4 else j0.ops)
    ops = np.where((np.arange(points) % 2 == 0)[:, None, None], sym, anti)
    ops[1] += 1e-6 * rng.standard_normal((dim, dim))
    ops[2] += 3.0 * rng.standard_normal((dim, dim))
    ops[5] = ops[2]
    ops[3] = -sym[3]
    r = np.diag([-1.0] + [1.0] * (dim - 1))
    ops[4] = r @ anti[4] @ r
    metrics = np.tile(np.eye(dim), (points, 1, 1))
    m = rng.standard_normal((dim, dim))
    metrics[9] += 0.1 * m @ m.T
    j, g = AcsField(space, ops), MetricField(space, metrics)
    nan = seed >= 2
    if nan:
        if kind == "orthogonal":
            g.fiber_metric.matrix[[8, 10], 0, 0] = np.nan
        else:
            j.ops[[8, 10], 0, 0] = np.nan
    args = {"acs": (j,), "associated": (j, standard_symplectic_field(space)),
            "orthogonal": (j, g, j0)}[kind]
    return args, space.point_ids[8 if nan else 2]


class TestFieldReportRecords:
    VALIDATORS = {"acs": (validate_acs, record_acs),
                  "associated": (validate_associated, record_associated),
                  "orthogonal": (validate_orthogonal, record_orthogonal)}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("kind", sorted(VALIDATORS))
    def test_matches_the_per_point_records(self, kind, dim, seed):
        validator, oracle = self.VALIDATORS[kind]
        args, worst = validator_case(kind, dim, seed)
        tol = 1e-10  # the one tolerance of the validators
        with np.errstate(invalid="ignore"):
            want = oracle(*args, tol)
            rep = validator(*args)
        assert want["worst_point"] == worst  # the tie or the first NaN heads the report
        if kind == "associated":
            assert want["per_point"][3]["residual"] <= tol and want["per_point"][3]["min_eig"] < 0
        if kind == "orthogonal":
            assert want["per_point"][4]["residual"] <= tol
            assert want["per_point"][4]["orientation"] != want["per_point"][4]["reference_orientation"]
        assert any(e["passed"] for e in want["per_point"])
        got = {key: getattr(rep, key) for key in want}
        assert_same(got, want)


class TestSplit:
    def test_dim2_antisymmetric_part_vanishes(self, space2):
        # every 2x2 anticommuting matrix is symmetric, so L = 0 exactly
        j = standard_acs_field(space2)
        g = identity_metric_field(space2)
        for seed in range(10):
            k = random_tangent_field(np.random.default_rng(seed), j)
            p, l = sym_antisym_split(k, g)
            assert max_abs(l) == 0.0
            assert np.array_equal(p, k.ops)

    def test_transpose_average_oracle(self, space4):
        j = standard_acs_field(space4)
        g = identity_metric_field(space4)
        k = random_tangent_field(np.random.default_rng(1), j)
        p, l = sym_antisym_split(k, g)
        for i in range(space4.npoints):
            assert max_abs(p[i] - 0.5 * (k.ops[i] + k.ops[i].T)) < 1e-12
            assert max_abs(l[i] - 0.5 * (k.ops[i] - k.ops[i].T)) < 1e-12

    def test_sum_is_exact(self, space4):
        j = standard_acs_field(space4)
        g = identity_metric_field(space4)
        k = random_tangent_field(np.random.default_rng(2), j)
        p, l = sym_antisym_split(k, g)
        assert max_abs(p + l - k.ops) < 1e-15

    def test_classes(self, space4):
        j = standard_acs_field(space4)
        g = identity_metric_field(space4)
        sym = random_tangent_field(np.random.default_rng(3), j, part="symmetric")
        skew = random_tangent_field(np.random.default_rng(3), j, part="antisymmetric")
        n = space4.npoints

        def point_classes(a, g):
            return split_and_classify(a, g)[2]

        assert point_classes(sym, g) == ["symmetric"] * n
        assert point_classes(skew, g) == ["antisymmetric"] * n
        mixed = TangentField(space4, j, sym.ops + skew.ops)
        assert point_classes(mixed, g) == ["mixed"] * n
        # per point: symmetric at 0, antisymmetric at 1, mixed elsewhere
        ops = mixed.ops.copy()
        ops[0], ops[1] = sym.ops[0], skew.ops[1]
        per_point = TangentField(space4, j, ops)
        assert point_classes(per_point, g) == ["symmetric", "antisymmetric"] + \
            ["mixed"] * (n - 2)


class TestAssociated:
    def test_standard_model(self, space4):
        j = standard_acs_field(space4)
        w = standard_symplectic_field(space4)
        rep = validate_associated(j, w)
        assert rep.passed
        assert rep.max_residual == 0.0

    def test_negated_structure_fails_positivity(self, space2):
        j = AcsField(space2, -np.tile(standard_acs(2), (3, 1, 1)))
        w = standard_symplectic_field(space2)
        rep = validate_associated(j, w)
        assert not rep.passed
        # the matrix identity still holds, only positivity breaks
        assert rep.max_residual < 1e-14
        assert all(e["min_eig"] < 0 for e in rep.per_point)

    def test_stretched_oracle(self):
        # J = [[0, -e^{-a}], [e^{a}, 0]] against the canonical form:
        # W J = diag(e^{a}, e^{-a}), invariance exact
        a = 0.7
        space = SampleSpace(2, np.ones(1))
        j = AcsField(space, [[[0.0, -math.exp(-a)], [math.exp(a), 0.0]]])
        w = SymplecticField(space, [[[0.0, 1.0], [-1.0, 0.0]]])
        rep = validate_associated(j, w)
        assert rep.passed
        assert rep.max_residual < 1e-15
        # the associated metric W J
        assert_allclose(w.forms[0] @ j.ops[0], np.diag([math.exp(a), math.exp(-a)]),
                        rtol=1e-15)


def planted_stack(rng, k: int, n: int, near: bool) -> np.ndarray:
    """(k, n, n) symmetric slices Q diag(lambda) Q^T, Q random orthogonal,
    with a scale 10^U(-3, 6) per slice: the eigenvalues are U(0.1, 1) times
    the scale, but the smallest is POSITIVITY_FLOOR plus, times the scale,
    +-10^U(-17, -9) where ``near`` (within rounding of the floor) and
    10^U(-9, -1) elsewhere (clearly above it)."""
    scale = 10.0 ** rng.uniform(-3, 6, k)
    lam = rng.uniform(0.1, 1.0, (k, n)) * scale[:, None]
    offset = (rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-17, -9, k) if near
              else 10.0 ** rng.uniform(-9, -1, k))
    lam[:, 0] = POSITIVITY_FLOOR + offset * scale
    q = np.linalg.qr(rng.standard_normal((k, n, n)))[0]
    s = (q * lam[:, None, :]) @ q.mT
    return 0.5 * (s + s.mT)


def fields_with_sym(sym):
    """J = J_std S against the standard form W = J_std^T, so that W J = S
    exactly: +-1 and 0 entries multiply exactly."""
    space = SampleSpace(sym.shape[-1], np.ones(len(sym)))
    return AcsField(space, standard_acs(space.dim) @ sym), standard_symplectic_field(space)


def oracle_positive(j, w):
    """eigvalsh's positivity verdict per point, from the inline expression."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = w.forms @ j.ops
        return inline_min_eig(0.5 * (prod + prod.mT)) > POSITIVITY_FLOOR


def refusing_cholesky(a):
    """A cholesky that refuses every stack, as numpy does when one slice fails."""
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def counting(original, calls):
    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    return counted


class TestPositivityCertificate:
    """One Cholesky certifies positivity only where eigvalsh would read it
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3), and
    the validator's verdict is eigvalsh's on every stack."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 4, 6, 8, 16]), seed=st.integers(0, 2**32 - 1))
    def test_a_certified_slice_reads_above_the_floor(self, n, seed):
        stack = planted_stack(np.random.default_rng(seed), 200, n, near=True)
        certified = [structures._certified_positive(s[None]) for s in stack]
        assert (np.linalg.eigvalsh(stack)[certified, 0] > POSITIVITY_FLOOR).all()

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([2, 4, 6, 8, 16]), seed=st.integers(0, 2**32 - 1))
    def test_slices_clear_of_the_floor_are_certified_at_once(self, n, seed):
        stack = planted_stack(np.random.default_rng(seed), 200, n, near=False)
        assert structures._certified_positive(stack)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 4, 6, 8]), seed=st.integers(0, 2**32 - 1),
           flaw=st.sampled_from(["none", "near", "indefinite", "nan", "overflow", "cholesky"]))
    @example(n=4, seed=0, flaw="none")
    def test_verdict_is_that_of_eigvalsh(self, n, seed, flaw):
        rng = np.random.default_rng(seed)
        sym, at = planted_stack(rng, 16, n, near=False), rng.integers(16)
        if flaw == "near":
            sym[at] = planted_stack(rng, 1, n, near=True)[0]
        j, w = fields_with_sym(sym)
        if flaw == "indefinite":
            j.ops[at] *= -1.0  # a negative definite slice
        elif flaw == "nan":
            j.ops[at, 0, rng.integers(n)] = np.nan
        elif flaw == "overflow":
            j.ops[at] = 1.5e308  # S overflows to inf
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "FIELD_TOL", np.inf)  # ok is then the positivity verdict
            if flaw == "cholesky":
                mp.setattr(np.linalg, "cholesky", refusing_cholesky)
            rep = validate_associated(j, w)
        assert np.array_equal(rep.ok, oracle_positive(j, w))
        if flaw != "near":
            assert np.flatnonzero(~rep.ok).tolist() == ([] if flaw in ("none", "cholesky") else [at])

    def test_a_raising_cholesky_leaves_the_report_unchanged(self, monkeypatch):
        args, _ = validator_case("associated", 4, 2)
        want = record_associated(*args, 1e-10)
        monkeypatch.setattr(np.linalg, "cholesky", refusing_cholesky)
        rep = validate_associated(*args)
        assert_same({key: getattr(rep, key) for key in want}, want)


class TestMinEigOnRead:
    """The associated report computes min_eig on its first read and keeps it."""

    @pytest.mark.parametrize("flaw, on_validation", [(None, 0), ("indefinite", 1), ("nan", 1)])
    def test_computed_once_and_only_when_read_or_needed(self, monkeypatch, flaw, on_validation):
        j, w = fields_with_sym(planted_stack(np.random.default_rng(5), 12, 4, near=False))
        if flaw == "indefinite":
            j.ops[3] *= -1.0
        elif flaw == "nan":
            j.ops[[5, 7], 0, 0] = np.nan
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh, calls))
        rep = validate_associated(j, w)
        assert not rep.passed and rep.ok.shape == (12,)  # J = J_std S fails invariance
        assert len(calls) == on_validation  # the verdict reads eigvalsh only past a failed certificate
        min_eig = rep.values["min_eig"]
        records = rep.per_point
        assert rep.values["min_eig"] is min_eig and list(rep.values) == ["min_eig"]
        assert len(calls) == 1
        monkeypatch.undo()
        with np.errstate(over="ignore", invalid="ignore"):
            prod = w.forms @ j.ops
            want = inline_min_eig(0.5 * (prod + prod.mT))
        assert np.array_equal(min_eig, want, equal_nan=True)
        assert np.isnan(min_eig).sum() == 2 * (flaw == "nan")
        assert_same(records, record_associated(j, w, 1e-10)["per_point"])


class TestOrthogonal:
    def test_orientation_marker_standard(self):
        assert orientation_marker(standard_acs(2)) == 1
        assert orientation_marker(standard_acs(4)) == 1
        assert orientation_marker(-standard_acs(2)) == -1

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_marker_stack_matches_oracle_on_conjugates(self, n):
        rng = np.random.default_rng(n)
        p = rng.standard_normal((300, n, n))
        stack = p @ standard_acs(n) @ np.linalg.inv(p)
        expected = [greedy_marker(m) for m in stack]
        assert set(expected) == {-1, 1}
        assert orientation_marker(stack).tolist() == expected

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_marker_stack_mixing_standard_and_its_negative(self, n):
        # J0 e0 = e1, so e1 is skipped at c = 1 for both signs
        j0 = standard_acs(n)
        stack = np.stack([j0, -j0, -j0, j0, -j0])
        expected = [greedy_marker(m) for m in stack]
        assert expected == [1, (-1) ** (n // 2), (-1) ** (n // 2), 1, (-1) ** (n // 2)]
        assert orientation_marker(stack).tolist() == expected

    def test_marker_stack_on_orthogonal_geodesic(self):
        space = SampleSpace(4, np.ones(40))
        j0 = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(3), j0, part="antisymmetric")
        for t in np.linspace(0.0, 2.0, 9):
            stack = j0.ops @ mat_exp(t * a.ops)
            assert orientation_marker(stack).tolist() == [greedy_marker(m) for m in stack]

    @pytest.mark.parametrize("dim", [2, 6, 8])
    def test_marker_is_constant_along_skew_geodesics_of_either_orientation(self, dim):
        # J(t) = J0 exp(tA) from J_std and from its reflection R J_std R
        space = SampleSpace(dim, np.ones(20))
        reflection = np.diag([1.0] * (dim - 1) + [-1.0])
        for base, marker in ((standard_acs(dim), 1), (reflection @ standard_acs(dim) @ reflection, -1)):
            j0 = AcsField(space, np.broadcast_to(base, (20, dim, dim)))
            a = random_tangent_field(np.random.default_rng(dim), j0, part="antisymmetric")
            for t in np.linspace(0.0, 3.0, 7):
                stack = j0.ops @ mat_exp(t * a.ops)
                expected = [greedy_marker(m) for m in stack]
                assert expected == [marker] * 20
                assert orientation_marker(stack).tolist() == expected

    @pytest.mark.parametrize("n,count", [(10, 40), (32, 40), (64, 40)])
    def test_marker_stack_matches_oracle_on_large_conjugates(self, n, count):
        rng = np.random.default_rng(n)
        p = rng.standard_normal((count, n, n))
        stack = p @ standard_acs(n) @ np.linalg.inv(p)
        expected = [greedy_marker(m) for m in stack]
        assert set(expected) == {-1, 1}
        assert orientation_marker(stack).tolist() == expected

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_marker_stack_matches_oracle_on_ill_conditioned_conjugates(self, n):
        # P = U diag(1 .. 1e-4) V with random orthogonal U, V: cond(P) = 1e4;
        # a QR's Q has one determinant sign, so every other U is reflected
        rng = np.random.default_rng(100 + n)
        u = np.linalg.qr(rng.standard_normal((200, n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((200, n, n)))[0]
        u[::2, :, 0] *= -1
        p = u @ (np.logspace(0, -4, n)[:, None] * v)
        stack = p @ standard_acs(n) @ np.linalg.inv(p)
        expected = [greedy_marker(m) for m in stack]
        assert set(expected) == {-1, 1}
        assert orientation_marker(stack).tolist() == expected

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_marker_under_negation_and_reflection(self, n):
        rng = np.random.default_rng(200 + n)
        p = rng.standard_normal((100, n, n))
        stack = p @ standard_acs(n) @ np.linalg.inv(p)
        reflection = np.diag([1.0] * (n - 1) + [-1.0])
        markers = orientation_marker(stack)
        assert set(markers.tolist()) == {-1, 1}
        assert np.array_equal(orientation_marker(-stack), (-1) ** (n // 2) * markers)
        assert np.array_equal(orientation_marker(reflection @ stack @ reflection), -markers)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [4, 6])
    def test_marker_stack_on_degenerate_input(self, n):
        e0, ones = np.eye(n)[0], np.ones(n)
        stack = np.stack([np.zeros((n, n)), np.eye(n), np.outer(e0, ones),
                          np.outer(ones, e0)])
        expected = [greedy_marker(m) for m in stack]
        assert expected == [-1] * 4
        assert orientation_marker(stack).tolist() == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_marker_reads_nan_as_minus_one(self, n):
        stack = np.broadcast_to(standard_acs(n), (3, n, n)).copy()
        stack[0] = np.nan
        stack[1, -1, -2] = np.nan
        assert orientation_marker(stack).tolist() == [-1, -1, 1]
        assert orientation_marker(np.full((n, n), np.nan)) == -1

    def test_marker_shapes(self):
        j0 = standard_acs(4)
        markers = orientation_marker(np.broadcast_to(j0, (2, 3, 4, 4)))
        assert markers.shape == (2, 3)
        assert (markers == 1).all()
        assert type(orientation_marker(j0)) is int

    def test_validate_orthogonal_marks_whole_stacks(self, monkeypatch):
        space = SampleSpace(4, np.ones(1000))
        j0 = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(6), j0, part="antisymmetric")
        j = AcsField(space, j0.ops @ mat_exp(a.ops))
        g = identity_metric_field(space)
        factor_calls, marker_calls = [], []
        for name in ("qr", "det", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), factor_calls))
        monkeypatch.setattr(structures, "orientation_marker",
                            counting(structures.orientation_marker, marker_calls))
        assert validate_orthogonal(j, g, j0).passed
        assert len(marker_calls) == 2
        assert factor_calls == []

    def test_reference_reused_over_a_grid_is_marked_once(self, monkeypatch):
        space = SampleSpace(4, np.ones(16))
        j0 = standard_acs_field(space)
        a = random_tangent_field(np.random.default_rng(7), j0, part="antisymmetric")
        g = identity_metric_field(space)
        r = np.diag([-1.0, 1.0, 1.0, 1.0])
        fields = []
        for t in np.linspace(0.0, 2.0, 9):
            ops = geodesic_ambient(j0, a, t).ops
            ops[3] = r @ ops[3] @ r  # orthogonal, of the other orientation
            fields.append(AcsField(space, ops))
        # the oracle: fresh copies of both fields, so no kept marker is read
        want = [validate_orthogonal(AcsField(space, j.ops.copy()), g, AcsField(space, j0.ops.copy()))
                for j in fields]
        marked, original = [], structures.orientation_marker
        monkeypatch.setattr(structures, "orientation_marker",
                            lambda ops: marked.append(ops) or original(ops))
        got = [validate_orthogonal(j, g, j0) for j in fields]
        assert len(marked) == 10 and sum(ops is j0.ops for ops in marked) == 1
        for rep, ref in zip(got, want):
            assert not rep.passed and rep.values["orientation"][3] == -1
            assert rep.per_point == ref.per_point
            assert (rep.passed, rep.max_residual, rep.worst_point) == (
                ref.passed, ref.max_residual, ref.worst_point)
        assert not j0.orientation.flags.writeable
        assert np.array_equal(j0.orientation, np.ones(16, dtype=int))

    def test_standard_passes(self, space4):
        j = standard_acs_field(space4)
        rep = validate_orthogonal(j, identity_metric_field(space4), j)
        assert rep.passed
        assert rep.max_residual == 0.0

    def test_symmetric_flow_breaks_orthogonality(self):
        # J0 e^{A} with A = diag(1,-1): J^T J = diag(e^2, e^-2)
        space = SampleSpace(2, np.ones(1))
        a = np.diag([1.0, -1.0])
        j = AcsField(space, [standard_acs(2) @ mat_exp(a)])
        rep = validate_orthogonal(j, identity_metric_field(space),
                                  standard_acs_field(space))
        assert not rep.passed
        assert_allclose(rep.max_residual, math.exp(2.0) - 1.0, rtol=1e-12)

    def test_skew_flow_stays_orthogonal(self):
        space = SampleSpace(4, np.ones(2))
        j0 = standard_acs_field(space)
        skew = random_tangent_field(np.random.default_rng(4), j0,
                                    part="antisymmetric")
        ops = np.stack([j0.ops[i] @ mat_exp(skew.ops[i]) for i in range(2)])
        rep = validate_orthogonal(AcsField(space, ops),
                                  identity_metric_field(space), j0)
        assert rep.passed
        assert rep.max_residual < 1e-13

    @pytest.mark.parametrize("dim", [2, 4])
    def test_overflow_fails_without_a_warning(self, dim):
        # J^sharp J and the Pfaffian's rank-2 updates overflow; the point fails
        space = SampleSpace(dim, np.ones(1))
        ops = 1e200 * (np.eye(dim) if dim == 2
                       else np.random.default_rng(0).standard_normal((dim, dim)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_orthogonal(AcsField(space, [ops]), identity_metric_field(space),
                                      standard_acs_field(space))
        assert not rep.passed
        assert not math.isfinite(rep.max_residual) or rep.max_residual > 1e300

    def test_reflected_structure_fails_orientation(self):
        # conjugation by diag(1,-1) flips the complex orientation at dim 2
        space = SampleSpace(2, np.ones(1))
        r = np.diag([1.0, -1.0])
        j = AcsField(space, [r @ standard_acs(2) @ r])
        rep = validate_orthogonal(j, identity_metric_field(space),
                                  standard_acs_field(space))
        assert not rep.passed
        assert rep.max_residual == 0.0  # orthogonality itself is intact
        assert rep.per_point[0]["orientation"] == -1


class TestPfaffianClosedForm:
    """At n = 2 and 4 the marker reads Pf(Omega) in closed form; Parlett-Reid
    elimination, which reads it at n >= 6, is the reference."""

    @staticmethod
    def parlett_reid(stack) -> list:
        with np.errstate(all="ignore"):
            return structures._parlett_reid_signs(stack.mT - stack).tolist()

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "conjugate", "inverse_conjugate"]))
    def test_matches_parlett_reid(self, n, seed, kind):
        # P J_std^{+-1} P^{-1}: a random P has either sign of det, so both
        # orientations come up
        rng = np.random.default_rng(seed)
        if kind == "random":
            stack = rng.standard_normal((200, n, n))
        else:
            p = rng.standard_normal((200, n, n))
            j0 = standard_acs(n) if kind == "conjugate" else np.linalg.inv(standard_acs(n))
            stack = p @ j0 @ np.linalg.inv(p)
        got = orientation_marker(stack).tolist()
        assert got == self.parlett_reid(stack)
        assert kind == "random" or set(got) == {-1, 1}

    def test_reflected_dim2_structure(self):
        r = np.diag([1.0, -1.0])
        stack = np.stack([standard_acs(2), r @ standard_acs(2) @ r])
        assert orientation_marker(stack).tolist() == self.parlett_reid(stack) == [1, -1]

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from([("rank2", 4), ("huge", 2), ("huge", 4)]),
           seed=st.integers(0, 2**32 - 1))
    def test_a_zero_or_overflowing_pf_reads_either_sign(self, case, seed):
        # Omega of rank 2 (J = u v^T at n = 4) has Pf zero up to rounding, and
        # entries near 1e200 overflow its products: the closed form and
        # Parlett-Reid may then read different signs, and either is
        # accepted.  Every such J fails validate_acs, so no report rests on it.
        (kind, n), rng = case, np.random.default_rng(seed)
        if kind == "rank2":
            u, v = rng.standard_normal((2, 100, n, 1))
            stack = u @ v.mT
        else:
            stack = 1e200 * rng.standard_normal((100, n, n))
        got = orientation_marker(stack)
        assert set(got.tolist()) <= {-1, 1} and set(self.parlett_reid(stack)) <= {-1, 1}
        space = SampleSpace(n, np.ones(100))
        assert not validate_acs(AcsField(space, stack)).ok.any()


class TestBundleIo:
    def _bundle(self, dim=4, points=3, with_w=True, with_k=True, seed=0):
        rng = np.random.default_rng(seed)
        space = random_sample_space(rng, dim, points)
        j = standard_acs_field(space)
        w = standard_symplectic_field(space) if with_w else None
        k = random_tangent_field(rng, j) if with_k else None
        return FieldBundle(space, J=j, W=w, K=k)

    def test_roundtrip_lossless(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        back = load_bundle(path)
        assert np.array_equal(back.space.weights, bundle.space.weights)
        assert np.array_equal(back.J.ops, bundle.J.ops)
        assert np.array_equal(back.W.forms, bundle.W.forms)
        assert np.array_equal(back.K.ops, bundle.K.ops)
        assert back.space.point_ids == bundle.space.point_ids

    def test_identity_metric_omitted(self, tmp_path):
        path = tmp_path / "b.json"
        save_bundle(self._bundle(), path)
        doc = json.loads(path.read_text())
        assert all("metric" not in p for p in doc["points"])

    def test_custom_metric_roundtrip(self, tmp_path):
        space = SampleSpace(2, np.ones(2),
                            metrics=np.tile(np.diag([1.0, 4.0]), (2, 1, 1)))
        path = tmp_path / "m.json"
        save_bundle(FieldBundle(space, J=standard_acs_field(space)), path)
        back = load_bundle(path)
        assert np.array_equal(back.space.metrics, space.metrics)

    @pytest.mark.parametrize("dim", [MAX_FIBER_DIM + 2, 1000, 10**30])
    def test_dim_above_cap_refused_before_allocating(self, tmp_path, dim):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": dim, "points": [{"id": 0, "weight": 1}]}))

        def load():
            with pytest.raises(IoError, match=f"above the cap {MAX_FIBER_DIM}"):
                load_bundle(path)

        assert peak_traced_bytes(load) < 10**6

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_bundle(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(IoError):
            load_bundle(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(IoError):
            load_bundle(path)

    def test_partial_field_coverage(self, tmp_path):
        path = tmp_path / "partial.json"
        j = [0.0, -1.0, 1.0, 0.0]
        doc = {"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "J": j},
            {"id": 1, "weight": 1.0},       # J missing here
        ]}
        path.write_text(json.dumps(doc))
        with pytest.raises(IoError):
            load_bundle(path)

    def test_k_without_j(self, tmp_path):
        path = tmp_path / "k_only.json"
        doc = {"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "K": [1.0, 0.0, 0.0, -1.0]},
        ]}
        path.write_text(json.dumps(doc))
        with pytest.raises(IoError):
            load_bundle(path)

    def test_ragged_matrix(self, tmp_path):
        path = tmp_path / "ragged.json"
        doc = {"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "J": [0.0, -1.0, 1.0]},
        ]}
        path.write_text(json.dumps(doc))
        with pytest.raises(IoError):
            load_bundle(path)

    def test_bad_k_raises_anticommutation(self, tmp_path):
        path = tmp_path / "badk.json"
        doc = {"dim": 2, "points": [
            {"id": 0, "weight": 1.0, "J": [0.0, -1.0, 1.0, 0.0],
             "K": [0.0, 1.0, -1.0, 0.0]},  # commutes with J0
        ]}
        path.write_text(json.dumps(doc))
        with pytest.raises(AnticommutationViolation):
            load_bundle(path)
