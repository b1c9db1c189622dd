"""Parity of command-line outputs with the golden files in tests/golden/.

The golden files hold ``verify`` at dims 2, 4 and 6 (seed 0) and at dim 4
with seed 7 and 3 points, ``geodesic`` at dim 4 (seed 0), ``project`` and
``verify --in`` on ``project_bundle.json``, a dim-4 bundle with
non-identity metrics, ``verify --in`` on ``assoc_bundle.json``, a dim-4
bundle whose J, W and K fields exercise the bundle validators, and
``geodesic --in`` on both bundles, which runs ``validate_associated``
against the bundle's W and ``validate_orthogonal`` against its metrics at
every t.  Every output
must keep the same pass set and agree with its golden file in every number
to 1e-12 relative.

A rewrite that changes bits is accepted against the code it replaces, run
from a copy of the parent commit on these 10 cases and on the command-line
runs that reach its edge cases, by these rules:

- exit codes, pass sets and strings stay identical;
- every number that is not a residual (``k_max``, ``min_eig``, factors,
  ``t``, ...) stays within 1e-12 relative;
- a check-level ``tolerance`` may move only where its binding sub-check
  changes between two sub-checks whose residuals are both below the floor
  of 1e-3 times their tolerance;
- a residual that was at most 1e-3 times its tolerance stays at most 1e-3
  times it; the ``acs_residual`` of the geodesic trace is held to the
  1e-10 of ``validate_acs``;
- the residuals of the h = 1e-4 central-difference stencil sit at its
  rounding floor, eps / h^2 ~ 2.2e-8, and move with any change of bits:
  the ``geodesics`` ``ode_residual_dim*`` and the trace's
  ``geodesic_residual``.  They stay under their tolerance of 1e-6 and are
  listed one by one.

The goldens that differ are then rewritten, and every changed number is
recorded as old -> new with its tolerance.  No tolerance is loosened.

Each golden file is the byte-exact output of its command run from the
repository root, with input paths relative to it.  Run as a script,
``PYTHONPATH=src python tests/test_parity.py`` rewrites all ten; on an
unchanged tree it leaves them as they are.
"""

import contextlib
import io
import json
import os

import pytest

from acsgeom.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
REL = 1e-12
# input bundles, relative to the repository root, where the commands run
PROJECT_BUNDLE = os.path.join("tests", "golden", "project_bundle.json")
ASSOC_BUNDLE = os.path.join("tests", "golden", "assoc_bundle.json")

CASES = {
    "verify_dim2.json": ["verify", "--dim", "2", "--seed", "0"],
    "verify_dim4.json": ["verify", "--dim", "4", "--seed", "0"],
    "verify_dim6.json": ["verify", "--dim", "6", "--seed", "0"],
    "verify_dim4_seed7_points3.json": ["verify", "--dim", "4", "--seed", "7",
                                       "--points", "3"],
    "verify_project_bundle.json": ["verify", "--in", PROJECT_BUNDLE],
    "verify_assoc_bundle.json": ["verify", "--in", ASSOC_BUNDLE],
    "geodesic_dim4.json": ["geodesic", "--dim", "4"],
    "geodesic_assoc_bundle.json": ["geodesic", "--in", ASSOC_BUNDLE],
    "geodesic_project_bundle.json": ["geodesic", "--in", PROJECT_BUNDLE],
    "project.json": ["project", "--in", PROJECT_BUNDLE],
}


def assert_close(got, want, where="$"):
    """Same structure and strings; numbers within REL relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert got == want or abs(got - want) <= REL * max(abs(got), abs(want)), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def passed_checks(doc):
    return {c["name"] for c in doc.get("checks", []) if c["passed"]}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_matches_golden(golden, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(CASES[golden])
    got = json.loads(capsys.readouterr().out)
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        want = json.load(fh)
    assert code == 0
    assert passed_checks(got) == passed_checks(want)
    assert_close(got, want)


def write_goldens() -> None:
    """Rewrite every golden file with the output of its command, run from
    the repository root; a command that does not exit 0 stops the rewrite."""
    os.chdir(ROOT)
    for golden, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{golden}: acsgeom {' '.join(argv)} exits {code}")
        with open(os.path.join(GOLDEN, golden), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(out.getvalue())


if __name__ == "__main__":
    write_goldens()
