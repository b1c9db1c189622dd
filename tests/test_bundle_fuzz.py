"""Property tests of bundle input: every document is either loaded or
refused with a GeometryError, ``acsgeom project --in`` exits 0 or 2, and
``acsgeom geodesic --in --t-steps 2`` exits 0, 1 or 2, never with a
traceback.

Documents are small (at most four points; dim drawn from {2, 4}, a small
malformed value or any integer up to 10**30 in size, which the dimension
cap refuses before allocating) and mix plausible matrices with malformed
cells: NaN and infinite numbers, huge integers, strings, nested and ragged
lists, missing keys and wrong types.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from acsgeom.charts import standard_acs
from acsgeom.cli import main
from acsgeom.errors import GeometryError
from acsgeom.structures import FieldBundle, load_bundle

SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**30, 10**30),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)


def _flat(m) -> list[float]:
    return [float(x) for x in np.asarray(m).reshape(-1)]


def _valid_matrices(n: int) -> dict[str, list[list[float]]]:
    """Per field key, matrices that pass validation at dim n, at unit
    scale and at extreme scales."""
    j0 = standard_acs(n)
    k = np.zeros((n, n))
    k[0, 0], k[1, 1] = 0.5, -0.5  # anticommutes with j0
    return {
        "metric": [_flat(np.eye(n)), _flat(np.diag(np.arange(1.0, n + 1.0))),
                   _flat(np.diag([1.0, 1e-300] * (n // 2))), _flat(1e300 * np.eye(n))],
        "J": [_flat(j0), _flat(-j0)],
        "W": [_flat(j0.T), _flat(1e-300 * j0.T), _flat(1e300 * j0.T)],
        "K": [_flat(k), _flat(np.zeros((n, n))), _flat(1e300 * k), _flat(1e308 * k)],
    }


VALID = {n: _valid_matrices(n) for n in (2, 4)}
PLAUSIBLE = [m for by_key in VALID.values() for ms in by_key.values() for m in ms]

CELLS = st.one_of(
    st.sampled_from(PLAUSIBLE),
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)),
    st.lists(SCALARS, max_size=17),
    st.lists(st.lists(SCALARS, max_size=4), max_size=4),  # nested, often ragged
    SCALARS,
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)

POINTS = st.fixed_dictionaries({}, optional={
    "id": st.one_of(st.integers(0, 5), st.text(max_size=3),
                    st.lists(st.integers(), max_size=2)),
    "weight": st.one_of(st.floats(0.5, 1.5), SCALARS, st.lists(SCALARS, max_size=2)),
    "metric": CELLS,
    "J": CELLS,
    "W": CELLS,
    "K": CELLS,
})

DOCUMENTS = st.one_of(
    st.fixed_dictionaries({}, optional={
        "dim": st.one_of(st.sampled_from([2, 4, 0, 1, 3, -2, 2.0, 4.5, "4", [4], None, True,
                                          float("nan"), float("inf")]),
                         st.integers(-10**30, 10**30)),
        "points": st.one_of(st.lists(st.one_of(POINTS, SCALARS), max_size=4), SCALARS),
    }),
    SCALARS,
    st.lists(SCALARS, max_size=3),
)


@st.composite
def near_valid_documents(draw):
    """A valid bundle, or one with a single defect: a missing key or a
    malformed cell at one point."""
    dim = draw(st.sampled_from([2, 4]))
    keys = draw(st.lists(st.sampled_from(("metric", "J", "W", "K")), unique=True))
    points = [{"id": i, "weight": draw(st.floats(0.5, 1.5)),
               **{key: draw(st.sampled_from(VALID[dim][key])) for key in keys}}
              for i in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        point = draw(st.sampled_from(points))
        key = draw(st.sampled_from(("id", "weight", "metric", "J", "W", "K")))
        if draw(st.booleans()):
            point.pop(key, None)
        else:
            point[key] = draw(CELLS)
    return {"dim": dim, "points": points}


def _write(doc) -> str:
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# extreme-scale entries overflow on purpose, with numpy's RuntimeWarning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(near_valid_documents(), DOCUMENTS))
def test_load_bundle_loads_or_raises_geometry_error(doc):
    path = _write(doc)
    try:
        try:
            assert isinstance(load_bundle(path), FieldBundle)
        except GeometryError:
            pass
        for argv, codes in ((["project", "--in", path], (0, 2)),
                            (["geodesic", "--in", path, "--t-steps", "2"], (0, 1, 2))):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in codes, (argv[0], err.getvalue())
    finally:
        os.remove(path)
