import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from acsgeom import structures
from acsgeom.charts import standard_acs
from acsgeom.errors import (
    AnticommutationViolation,
    DimensionMismatch,
    IoError,
    NotAssociated,
)
from acsgeom.fiber import mat_exp, max_abs
from acsgeom.structures import (
    MAX_FIBER_DIM,
    AcsField,
    FieldBundle,
    MetricField,
    SampleSpace,
    SymplecticField,
    TangentField,
    associated_metric,
    identity_metric_field,
    load_bundle,
    orientation_marker,
    point_classes,
    random_sample_space,
    random_tangent_field,
    save_bundle,
    standard_acs_field,
    standard_symplectic_field,
    sym_antisym_split,
    tangent_class,
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


class TestSplit:
    def test_dim2_antisymmetric_part_vanishes(self, space2):
        # every 2x2 anticommuting matrix is symmetric, so L = 0 exactly
        j = standard_acs_field(space2)
        g = identity_metric_field(space2)
        for seed in range(10):
            k = random_tangent_field(np.random.default_rng(seed), j)
            p, l = sym_antisym_split(k, g)
            assert max_abs(l.ops) == 0.0
            assert np.array_equal(p.ops, k.ops)

    def test_transpose_average_oracle(self, space4):
        j = standard_acs_field(space4)
        g = identity_metric_field(space4)
        k = random_tangent_field(np.random.default_rng(1), j)
        p, l = sym_antisym_split(k, g)
        for i in range(space4.npoints):
            assert max_abs(p.ops[i] - 0.5 * (k.ops[i] + k.ops[i].T)) < 1e-12
            assert max_abs(l.ops[i] - 0.5 * (k.ops[i] - k.ops[i].T)) < 1e-12

    def test_sum_is_exact(self, space4):
        j = standard_acs_field(space4)
        g = identity_metric_field(space4)
        k = random_tangent_field(np.random.default_rng(2), j)
        p, l = sym_antisym_split(k, g)
        assert max_abs(p.ops + l.ops - k.ops) < 1e-15

    def test_classes(self, space4):
        j = standard_acs_field(space4)
        g = identity_metric_field(space4)
        sym = random_tangent_field(np.random.default_rng(3), j, part="symmetric")
        skew = random_tangent_field(np.random.default_rng(3), j, part="antisymmetric")
        assert tangent_class(sym, g) == "symmetric"
        assert tangent_class(skew, g) == "antisymmetric"
        mixed = TangentField(space4, j, sym.ops + skew.ops)
        assert tangent_class(mixed, g) == "mixed"
        # per point: symmetric at 0, antisymmetric at 1, mixed elsewhere
        ops = mixed.ops.copy()
        ops[0], ops[1] = sym.ops[0], skew.ops[1]
        per_point = TangentField(space4, j, ops)
        assert point_classes(per_point, g) == ["symmetric", "antisymmetric"] + \
            ["mixed"] * (space4.npoints - 2)
        assert tangent_class(per_point, g) == "mixed"


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
        g = associated_metric(j, w)
        assert_allclose(g.metrics[0], np.diag([math.exp(a), math.exp(-a)]),
                        rtol=1e-15)

    def test_probe_witnesses(self, space2):
        j = standard_acs_field(space2)
        w = standard_symplectic_field(space2)
        probes = [[np.array([1.0, 0.0])] for _ in range(3)]
        rep = validate_associated(j, w, probes=probes)
        assert all(e["witnesses"] == [1.0] for e in rep.per_point)

    def test_associated_metric_requires_pass(self, space2):
        j = AcsField(space2, -np.tile(standard_acs(2), (3, 1, 1)))
        w = standard_symplectic_field(space2)
        with pytest.raises(NotAssociated):
            associated_metric(j, w)


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

    @pytest.mark.parametrize("n", [4, 6])
    def test_marker_stack_on_degenerate_input(self, n):
        e0, ones = np.eye(n)[0], np.ones(n)
        stack = np.stack([np.zeros((n, n)), np.eye(n), np.outer(e0, ones),
                          np.outer(ones, e0)])
        expected = [greedy_marker(m) for m in stack]
        assert expected == [-1] * 4
        assert orientation_marker(stack).tolist() == expected

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
        qr_calls, marker_calls = [], []

        def counting(original, calls):
            def counted(*args, **kwargs):
                calls.append(None)
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "qr", counting(np.linalg.qr, qr_calls))
        monkeypatch.setattr(structures, "orientation_marker",
                            counting(structures.orientation_marker, marker_calls))
        assert validate_orthogonal(j, g, j0).passed
        assert len(marker_calls) == 2
        assert 0 < len(qr_calls) <= 2 * (space.dim - 1)

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
