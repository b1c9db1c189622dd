"""Bundle files, byte for byte and point by point.

``save_bundle`` streams its text instead of building one dict per point
and handing the document to ``json``.  The parity gate here builds that
document as the dict-per-point writer did (``metric`` left out where it is
the identity) and requires the same bytes as ``json.dumps(doc, indent=1)``
plus a newline.  The load tests pin how ``load_bundle`` reads each point:
which matrices it refuses, which point an error names, and that the arrays
it returns are the ones saved, bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from acsgeom.charts import standard_acs
from acsgeom.errors import IoError
from acsgeom.structures import (
    AcsField,
    FieldBundle,
    SampleSpace,
    SymplecticField,
    TangentField,
    load_bundle,
    random_tangent_field,
    save_bundle,
    standard_acs_field,
)

GOLDEN = Path(__file__).parent / "golden"

# the extremes of the float range, and a negative zero
EXTREMES = [5e-324, 1e-300, 1e300, -0.0]
ENTRIES = st.one_of(st.sampled_from(EXTREMES + [-5e-324, -1e300]),
                    st.floats(allow_nan=False, allow_infinity=False))
SCALES = st.one_of(st.sampled_from([5e-324, 1e-300, 1e300, 1.0]), st.floats(1e-3, 1e3))
IDS = st.one_of(st.integers(), st.text(max_size=4),
                st.lists(st.one_of(st.integers(), st.text(max_size=2)), max_size=3))


def reference_text(bundle: FieldBundle) -> str:
    """The file the dict-per-point writer produced for ``bundle``."""
    space = bundle.space
    points = []
    for i in range(space.npoints):
        entry = {"id": space.point_ids[i], "weight": float(space.weights[i])}
        if not np.array_equal(space.metrics[i], np.eye(space.dim)):
            entry["metric"] = [float(x) for x in space.metrics[i].reshape(-1)]
        for key, f in (("J", bundle.J), ("W", bundle.W), ("K", bundle.K)):
            if f is not None:
                ops = f.forms if key == "W" else f.ops
                entry[key] = [float(x) for x in ops[i].reshape(-1)]
        points.append(entry)
    return json.dumps({"dim": space.dim, "points": points}, indent=1) + "\n"


def with_signed_zeros(m: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``m`` with each zero entry given the sign of ``signs``."""
    return np.where(m == 0.0, np.copysign(0.0, signs), m)


@st.composite
def bundles(draw):
    """Bundles at dims 2, 4 and 6 with 1 to 6 points and any subset of J, W
    and K; metrics are the identity at some points and scaled positive
    definite matrices at others; every entry may be an extreme float."""
    dim = draw(st.sampled_from([2, 4, 6]))
    n = draw(st.integers(1, 6))
    j0 = standard_acs(dim)
    signs = draw(arrays(float, (n, dim, dim), elements=st.sampled_from([1.0, -1.0])))
    weights = draw(arrays(float, n, elements=st.one_of(SCALES, st.sampled_from(EXTREMES[:3]))))
    metrics = np.tile(np.eye(dim), (n, 1, 1))
    for i in range(n):
        if draw(st.booleans()):  # diagonally dominant, then scaled
            off = draw(arrays(float, (dim, dim), elements=st.sampled_from([0.0, 0.1, -0.1])))
            base = np.eye(dim) + np.triu(off, 1) / dim + np.triu(off, 1).T / dim
            metrics[i] = draw(SCALES) * base
    metrics = with_signed_zeros(metrics, signs)
    space = SampleSpace(dim, weights, metrics, [draw(IDS) for _ in range(n)])
    keys = draw(st.sets(st.sampled_from("JWK")))
    j = None
    if "J" in keys:
        j = AcsField(space, draw(arrays(float, (n, dim, dim), elements=ENTRIES)))
    w = None
    if "W" in keys:  # a J0^T per point, scaled: antisymmetric with condition number 1
        scales = draw(arrays(float, (n, 1, 1), elements=SCALES))
        w = SymplecticField(space, with_signed_zeros(scales * j0.T, -signs))
    k = None
    if "K" in keys:  # every matrix anticommutes with a zero base
        zero = AcsField(space, np.zeros((n, dim, dim)))
        k = TangentField(space, zero, draw(arrays(float, (n, dim, dim), elements=ENTRIES)))
    return FieldBundle(space, j, w, k)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bundles())
def test_save_writes_the_dict_per_point_document(tmp_path_factory, bundle):
    path = tmp_path_factory.mktemp("save") / "bundle.json"
    save_bundle(bundle, path)
    assert path.read_bytes() == reference_text(bundle).encode("utf-8")


@pytest.mark.parametrize("name", ["assoc_bundle.json", "project_bundle.json"])
def test_golden_bundle_survives_load_and_save_byte_for_byte(tmp_path, name):
    path = tmp_path / "again.json"
    save_bundle(load_bundle(GOLDEN / name), path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def _arrays(bundle: FieldBundle) -> list[bytes]:
    space = bundle.space
    return [a.tobytes() for a in (space.weights, space.metrics, bundle.J.ops,
                                  bundle.W.forms, bundle.K.ops)]


def test_thousand_point_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    dim, n = 4, 1000
    a = rng.normal(size=(n, dim, dim))
    space = SampleSpace(dim, rng.uniform(0.5, 1.5, n), a @ a.mT + dim * np.eye(dim),
                        [f"p{i}" for i in range(n)])
    j = standard_acs_field(space)
    bundle = FieldBundle(space, j, SymplecticField(space, np.tile(standard_acs(dim).T, (n, 1, 1))),
                         random_tangent_field(rng, j))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_bundle(bundle, first)
    back = load_bundle(first)
    assert back.space.point_ids == space.point_ids
    assert _arrays(back) == _arrays(bundle)
    save_bundle(back, second)
    assert second.read_bytes() == first.read_bytes()


J2 = [0.0, -1.0, 1.0, 0.0]


def _load(tmp_path, points, dim=2):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": dim, "points": points}))
    return load_bundle(path)


def test_boolean_matrix_beside_float_points_is_refused_at_its_point(tmp_path):
    points = [{"id": "a", "weight": 1.0, "J": J2},
              {"id": "b", "weight": 1.0, "J": [False, True, True, False]},
              {"id": "c", "weight": 1.0, "J": J2}]
    with pytest.raises(IoError, match="matrix 'J' at point 'b' must hold finite numbers only"):
        _load(tmp_path, points)


def test_nested_rows_at_one_point_load_as_flat_rows(tmp_path):
    metric = [2.0, 0.5, 0.5, 1.0]
    flat = [{"id": i, "weight": 1.0, "metric": metric, "J": J2, "W": [0.0, 1, -1, 0.0]}
            for i in range(3)]
    mixed = json.loads(json.dumps(flat))
    mixed[1]["metric"], mixed[1]["J"] = [[2.0, 0.5], [0.5, 1.0]], [[0, -1], [1, 0]]
    a, b = _load(tmp_path, flat), _load(tmp_path, mixed)
    for x, y in ((a.space.metrics, b.space.metrics), (a.J.ops, b.J.ops), (a.W.forms, b.W.forms)):
        assert x.dtype == y.dtype == float and x.tobytes() == y.tobytes()


def test_mixed_int_and_float_entries_load_as_their_floats(tmp_path):
    j = [1, -2.5, 2**63, -(2**53 + 1)]
    back = _load(tmp_path, [{"id": 0, "weight": 1, "J": j}])
    assert back.J.ops.reshape(-1).tolist() == [float(x) for x in j]
    assert back.space.weights.tolist() == [1.0]


@pytest.mark.parametrize("entry", [10**30, "1.0", None])
def test_entry_that_is_no_machine_number_is_refused_at_its_point(tmp_path, entry):
    points = [{"id": 0, "weight": 1.0, "J": J2}, {"id": 1, "weight": 1.0, "J": [entry, -1, 1, 0]}]
    with pytest.raises(IoError, match="matrix 'J' at point 1 must hold finite numbers only"):
        _load(tmp_path, points)


def test_short_matrix_names_its_count_and_point(tmp_path):
    eye = np.eye(4).reshape(-1).tolist()
    points = [{"id": 0, "weight": 1.0, "metric": eye},
              {"id": 7, "weight": 1.0, "metric": eye[:15]}]
    with pytest.raises(IoError, match="matrix 'metric' at point 7 has 15 entries, expected 16"):
        _load(tmp_path, points, dim=4)


@pytest.mark.parametrize("key", ["metric", "J", "K"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_non_finite_entry_names_its_point(tmp_path, key, bad, k):
    points = [{"id": f"p{i}", "weight": 1.0, "metric": [1.0, 0.0, 0.0, 1.0], "J": J2,
               "K": [0.5, 0.0, 0.0, -0.5]} for i in range(5)]
    points[k][key] = [1.0, bad, 0.0, 1.0] if key == "metric" else [0.0, -1.0, bad, 0.0]
    with pytest.raises(IoError, match=f"matrix '{key}' at point 'p{k}' must hold finite"):
        _load(tmp_path, points)


def test_metric_at_some_points_only_is_the_identity_elsewhere(tmp_path):
    metric = [2.0, 0.5, 0.5, 1.0]
    back = _load(tmp_path, [{"id": 0, "weight": 1.0}, {"id": 1, "weight": 1.0, "metric": metric},
                            {"id": 2, "weight": 1.0}])
    assert back.space.metrics[[0, 2]].tobytes() == np.tile(np.eye(2), (2, 1, 1)).tobytes()
    assert back.space.metrics[1].reshape(-1).tolist() == metric
