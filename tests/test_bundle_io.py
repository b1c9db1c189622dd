"""Bundle files, byte for byte and point by point.

``save_bundle`` streams its text instead of building one dict per point
and handing the document to ``json``.  The parity gate here builds that
document as the dict-per-point writer did (``metric`` left out where it is
the identity) and requires the same bytes as ``json.dumps(doc, indent=1)``
plus a newline.  The load tests pin how ``load_bundle`` reads each point:
which matrices it refuses, which point an error names, and that the arrays
it returns are the ones saved, bit for bit.  ``load_bundle`` converts a
field in one pass when every point holds a flat row; the per-point reader
it replaced is kept here as the oracle of that pass, over save-layout
documents with at most one defect.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from acsgeom import structures
from acsgeom.charts import standard_acs
from acsgeom.errors import GeometryError, IoError
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


def per_point_stack(points: list, ids: tuple, key: str, dim: int,
                    default: np.ndarray | None = None) -> np.ndarray | None:
    """The per-point reader of a matrix field that ``load_bundle`` used
    before it converted whole fields: the oracle for ``_matrix_stack``."""
    rows = []
    for entry, pid in zip(points, ids):
        if key not in entry:
            if default is not None:
                rows.append(default)
            continue
        what = f"matrix {key!r} at point {pid!r}"
        try:
            arr = np.asarray(entry[key])
        except ValueError:
            raise IoError(f"{what} is not a regular array of numbers") from None
        if arr.dtype.kind not in "iuf":
            raise IoError(f"{what} must hold finite numbers only")
        if arr.size != dim * dim:
            raise IoError(f"{what} has {arr.size} entries, expected {dim * dim}")
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


def _row_defect(row: list, kind: str, at: int, dim: int):
    """``row`` (dim*dim floats) with one defect of ``kind`` at entry ``at``."""
    row = list(row)
    if kind == "all_bool":
        return [bool(at >> (i % 8) & 1) for i in range(len(row))]
    if kind == "all_int":
        return [int(x) for x in row]
    if kind == "short":
        return row[:-1]
    if kind == "nested":
        return [row[i:i + dim] for i in range(0, len(row), dim)]
    row[at] = {"bool_mix": at % 2 == 0, "string": "1.0", "null": None, "int_1e30": 10**30,
               "int_2_63": 2**63, "int_2_53": -(2**53 + 1), "nan": math.nan}[kind]
    return row


ROW_DEFECTS = ("all_bool", "bool_mix", "string", "null", "int_1e30", "int_2_63", "int_2_53",
               "nan", "short", "nested", "all_int")


@st.composite
def save_layout_documents(draw):
    """A document in the layout save_bundle writes (flat float rows, the
    metric at every point or at none), with at most one defect: one of
    ROW_DEFECTS in one row, or the metric absent at one point."""
    dim = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(1, 5))
    j0 = standard_acs(dim)
    k0 = np.zeros((dim, dim))
    k0[0, 0], k0[1, 1] = 0.5, -0.5  # anticommutes with j0
    fields = {"metric": np.diag(np.arange(1.0, dim + 1.0)), "J": j0, "W": j0.T, "K": k0}
    keys = draw(st.lists(st.sampled_from(list(fields)), unique=True))
    points = [{"id": draw(IDS), "weight": draw(st.floats(0.5, 1.5)),
               **{key: (draw(SCALES) * fields[key]).reshape(-1).tolist() for key in keys}}
              for _ in range(n)]
    defect = draw(st.sampled_from((None, "absent_metric") + ROW_DEFECTS))
    point = draw(st.sampled_from(points))
    if defect == "absent_metric":
        point.pop("metric", None)
    elif defect is not None and keys:
        key = draw(st.sampled_from(keys))
        point[key] = _row_defect(point[key], defect, draw(st.integers(0, dim * dim - 1)), dim)
    return {"dim": dim, "points": points}


def _outcome(load, path):
    """The arrays ``load(path)`` returns as bytes, or its exception."""
    try:
        b = load(path)
    except GeometryError as exc:
        return type(exc), str(exc)
    return [None if a is None else (a.dtype, a.shape, a.tobytes())
            for a in (b.space.weights, b.space.metrics, b.J and b.J.ops, b.W and b.W.forms,
                      b.K and b.K.ops)] + [b.space.point_ids]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(save_layout_documents())
def test_one_pass_load_matches_the_per_point_reader(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("parity") / "doc.json"
    path.write_text(json.dumps(doc))
    points = json.loads(path.read_text())["points"]
    ids, dim = tuple(e["id"] for e in points), doc["dim"]
    for key in ("metric", "J", "W", "K"):
        default = np.eye(dim) if key == "metric" else None
        outcomes = []
        for reader in (structures._matrix_stack, per_point_stack):
            try:
                got = reader(points, ids, key, dim, default)
                outcomes.append(None if got is None else (got.dtype, got.shape, got.tobytes()))
            except IoError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], key
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures, "_matrix_stack", per_point_stack)
        oracle = _outcome(load_bundle, path)
    assert _outcome(load_bundle, path) == oracle


@pytest.mark.parametrize("defect", ROW_DEFECTS)
def test_each_row_defect_beside_flat_rows_reads_as_the_per_point_reader(tmp_path, defect):
    points = [{"id": i, "weight": 1.0, "J": [float(x) for x in J2]} for i in range(4)]
    points[2]["J"] = _row_defect(points[2]["J"], defect, 1, 2)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": 2, "points": points}))
    points = json.loads(path.read_text())["points"]
    ids = tuple(range(4))
    try:
        want = per_point_stack(points, ids, "J", 2).tobytes()
    except IoError as exc:
        want = str(exc)
    try:
        got = structures._matrix_stack(points, ids, "J", 2).tobytes()
    except IoError as exc:
        got = str(exc)
    assert got == want


def test_thousand_point_load_converts_each_field_in_one_pass(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    dim, n = 4, 1000
    a = rng.normal(size=(n, dim, dim))
    space = SampleSpace(dim, rng.uniform(0.5, 1.5, n), a @ a.mT + dim * np.eye(dim))
    j = standard_acs_field(space)
    bundle = FieldBundle(space, j, SymplecticField(space, np.tile(standard_acs(dim).T, (n, 1, 1))),
                         random_tangent_field(rng, j))
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    calls = []
    asarray = np.asarray

    def counted(a, *args, **kwargs):
        calls.append(isinstance(a, np.ndarray))
        return asarray(a, *args, **kwargs)

    monkeypatch.setattr(np, "asarray", counted)
    back = load_bundle(path)
    assert _arrays(back) == _arrays(bundle)
    # the per-point reader converted one list per point and field (4000 here);
    # the field constructors' checks add a few calls on arrays
    assert 0 < calls.count(False) <= 8 and len(calls) <= 16
