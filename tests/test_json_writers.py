"""The JSON writers keep ``json``'s bytes without its pure-Python encoder.

``json`` indents only in pure Python (``json.encoder._make_iterencode``).
The CLI writes each top-level list of flat records, such as ``project``'s
points, through one pass of the C encoder, and ``save_bundle`` encodes
scalar point ids with it.  Parity: ``_emit``'s JSON equals
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` on generated
``project`` documents, on generic documents and on the report goldens.
Structure: neither ``save_bundle`` with int ids nor ``project`` enters
``_make_iterencode``.
"""

import contextlib
import glob
import io
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from acsgeom import cli
from acsgeom.charts import standard_acs
from acsgeom.structures import (
    FieldBundle,
    SampleSpace,
    SymplecticField,
    random_tangent_field,
    save_bundle,
    standard_acs_field,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NORMS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300]), st.floats())
# ids as project writes them: str of a bundle id; text covers quotes,
# backslashes, commas, non-ASCII and control characters
IDS = st.one_of(st.text(), st.sampled_from(['"', "\\", "a,b", "é ", "\x00\n\t%s"]),
                st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3).map(str),
                st.integers().map(str))
CLASSES = st.sampled_from(["symmetric", "antisymmetric", "mixed"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


def emitted(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(cli.RunConfig("project"), [], [], doc)
    return out.getvalue()


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def project_doc(ids, norms, classes) -> dict:
    header = ["id", "p_norm", "l_norm", "class"]
    rows = zip(ids, norms[::2], norms[1::2], classes)
    return {"command": "project", "input": "in.json",
            "points": [dict(zip(header, r)) for r in rows]}


@st.composite
def project_documents(draw):
    n = draw(st.integers(1, 20))
    return project_doc(draw(st.lists(IDS, min_size=n, max_size=n)),
                       draw(st.lists(NORMS, min_size=2 * n, max_size=2 * n)),
                       draw(st.lists(CLASSES, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(project_documents())
def test_project_documents_match_json(doc):
    assert emitted(doc) == reference(doc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.text(max_size=3), st.one_of(
    JSON, st.lists(st.dictionaries(st.text(max_size=3), SCALARS, max_size=4), max_size=4)),
    max_size=4))
def test_generic_documents_match_json(doc):
    # lists of records with differing keys, empty records and nested values
    # go through json; the others through the C encoder
    assert emitted(doc) == reference(doc)


@pytest.mark.parametrize("n", [1, 1000])
def test_project_document_of_n_points_matches_json(n):
    rng = np.random.default_rng(n)
    norms = rng.uniform(0.0, 1.0, 2 * n).tolist()
    norms[:4] = [0.0, -0.0, 5e-324, 1e300][:2 * n]
    doc = project_doc([str(i) for i in range(n)], norms,
                      rng.choice(["symmetric", "antisymmetric", "mixed"], n).tolist())
    assert emitted(doc) == reference(doc)


@pytest.mark.parametrize("name", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(GOLDEN, "*.json"))
    if os.path.basename(p).startswith(("verify", "geodesic", "project."))))
def test_report_goldens_match_json(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    assert emitted(doc) == reference(doc) == text


@pytest.fixture
def no_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):  # the patch is the one json reaches
        json.dumps([1], indent=2)


def thousand_point_bundle() -> FieldBundle:
    rng = np.random.default_rng(2)
    dim, n = 4, 1000
    space = SampleSpace(dim, rng.uniform(0.5, 1.5, n), point_ids=range(n))
    j = standard_acs_field(space)
    w = SymplecticField(space, np.tile(standard_acs(dim).T, (n, 1, 1)))
    return FieldBundle(space, j, w, random_tangent_field(rng, j))


def test_save_with_int_ids_and_project_stay_in_the_c_encoder(tmp_path, capsys,
                                                             no_pure_python_encoder):
    path = tmp_path / "bundle.json"
    save_bundle(thousand_point_bundle(), path)
    assert cli.main(["project", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["points"]) == 1000
