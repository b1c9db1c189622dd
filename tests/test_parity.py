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
  1e-10 of ``validate_acs``, and its ``geodesic_residual``, the residual
  of ``geodesics``' ``ode_residual_dim*``, to that one's 1e-6;
- every order factor (the ``factor`` of each ``*order_dim*`` sub-check), a
  quotient of two stencil errors, stays inside its window (2.5, 6.0) and
  is listed one by one.

The goldens that differ are then rewritten, and every changed number is
recorded as old -> new with its tolerance.  No tolerance is loosened.

Each golden file is the byte-exact output of its command run from the
repository root, with input paths relative to it.  Run as a script,
``PYTHONPATH=src python tests/test_parity.py`` rewrites all ten; on an
unchanged tree it leaves them as they are.  With ``--diff`` it rewrites
nothing: it runs the ten commands, prints each number that differs from
its golden as ``golden: path: old -> new (rule)``, checks the rules above
on the exit codes, pass sets, strings and numbers, and exits 1 if one
is broken.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from acsgeom.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
REL = 1e-12
# a residual at most FLOOR times its tolerance is at its rounding floor; the
# trace's acs_residual is held to validate_acs's ACS_TOL, its
# geodesic_residual to ode_residual's ODE_TOL, and the order factors to
# ORDER_WINDOW
FLOOR = 1e-3
ACS_TOL = 1e-10
ODE_TOL = 1e-6
ORDER_WINDOW = (2.5, 6.0)
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


def _flatten(doc, path="", meta=None, flat=None):
    """Every leaf of a command's output by a readable path, with the
    tolerance of a residual: list items are named by their "name" (the
    checks and their sub-checks) and the geodesic trace's rows by their t
    and columns."""
    flat = {} if flat is None else flat
    if isinstance(doc, dict) and "rows" in doc and "columns" in doc:
        for row in doc["rows"]:
            for column, value in zip(doc["columns"], row):
                flat[f"rows[t={row[0]!r}].{column}"] = (value, None)
        doc = {k: v for k, v in doc.items() if k != "rows"}
    if isinstance(doc, dict):
        tolerance = doc.get("tolerance") if "residual" in doc or "max_residual" in doc else None
        for key, value in doc.items():
            _flatten(value, f"{path}.{key}" if path else key,
                     tolerance if key in ("residual", "max_residual") else None, flat)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            label = value["name"] if isinstance(value, dict) and "name" in value else i
            _flatten(value, f"{path}[{label}]", None, flat)
    else:
        flat[path] = (doc, meta)
    return flat


def _bindings(doc):
    """The binding sub-check of each check: (check, sub-check, its residual
    and tolerance in the document)."""
    out = {}
    for check in doc.get("checks", []):
        for sub in check["details"]:
            if (sub["residual"], sub["tolerance"]) == (check["max_residual"], check["tolerance"]):
                out[check["name"]] = sub
                break
    return out


def _rule(path, old, new, tolerance):
    """(rule, kept) for one changed number, by the module's rules."""
    # one under its tolerance stays under it; a trace row already past it
    # (past the first t at fault) may move
    if path.endswith(".acs_residual"):
        return f"acs_residual, held to {ACS_TOL:g}", new <= ACS_TOL or old > ACS_TOL
    if path.endswith(".geodesic_residual"):
        tolerance = ODE_TOL
    if "order_dim" in path and path.endswith("].factor"):
        low, high = ORDER_WINDOW
        return f"order factor, window {ORDER_WINDOW}", low <= new <= high
    if tolerance is not None and isinstance(old, float) and old <= FLOOR * tolerance:
        return f"floor residual, tolerance {tolerance:g}", new <= FLOOR * tolerance
    kept = isinstance(new, (int, float)) and not isinstance(new, bool) \
        and abs(new - old) <= REL * max(abs(new), abs(old))
    return f"rel {REL:g}", kept


def compare(got, want):
    """The changed numbers of ``got`` against its golden ``want`` as
    (path, old, new, rule, kept), and the breaches of structure, strings,
    pass set and check-level tolerance as strings."""
    flat_got, flat_want = _flatten(got), _flatten(want)
    breaches = []
    if flat_got.keys() != flat_want.keys():
        return [], [f"structure differs at {sorted(flat_got.keys() ^ flat_want.keys())[:3]}"]
    if passed_checks(got) != passed_checks(want):
        breaches.append(f"pass set {sorted(passed_checks(want))} -> {sorted(passed_checks(got))}")
    moved = set()
    old_binding, new_binding = _bindings(want), _bindings(got)
    for check, sub in old_binding.items():
        new_sub = new_binding.get(check)
        if new_sub is None or new_sub["name"] == sub["name"]:
            continue
        moved.add(check)  # a tolerance may move only between floor residuals
        for name in (sub["name"], new_sub["name"]):
            pair = [s for doc in (want, got) for c in doc["checks"] if c["name"] == check
                    for s in c["details"] if s["name"] == name]
            if not all(s["residual"] <= FLOOR * s["tolerance"] for s in pair):
                breaches.append(f"checks[{check}]: binding sub-check {sub['name']} -> "
                                f"{new_sub['name']} above the floor")
    changes = []
    for path, (old, tolerance) in flat_want.items():
        new = flat_got[path][0]
        if new == old and type(new) is type(old):
            continue
        if not isinstance(old, (int, float)) or isinstance(old, bool):
            breaches.append(f"{path}: {old!r} -> {new!r}")
            continue
        if path.endswith(".tolerance"):
            kept = any(path.startswith(f"checks[{check}].") for check in moved)
            changes.append((path, old, new, "binding sub-check moved between floor residuals", kept))
            continue
        rule_path = path
        if path.endswith("].max_residual") and path[7:-14] in new_binding:
            # a check's max_residual is its binding sub-check's residual
            rule_path = f"{path[:-13]}details[{new_binding[path[7:-14]]['name']}].residual"
        rule, kept = _rule(rule_path, old, new, tolerance)
        changes.append((path, old, new, rule, kept))
    return changes, breaches


def _run(argv):
    """Exit code and parsed output of one command, run from the repository
    root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def diff_goldens() -> int:
    """Print every number of the ten commands' outputs that differs from
    its golden file, as ``golden: path: old -> new (rule)``, and each
    breach of the rules; 1 if there is one, else 0.  Nothing is written."""
    os.chdir(ROOT)
    broken = 0
    for golden, argv in CASES.items():
        code, text = _run(argv)
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
            want = json.load(fh)
        if code != 0:
            print(f"{golden}: BREACH exit code {code}")
            broken += 1
            continue
        changes, breaches = compare(json.loads(text), want)
        for path, old, new, rule, kept in changes:
            print(f"{golden}: {path}: {old!r} -> {new!r} ({rule})" + ("" if kept else " BREACH"))
            broken += not kept
        for breach in breaches:
            print(f"{golden}: BREACH {breach}")
        broken += len(breaches)
    return 1 if broken else 0


def test_diff_rules():
    doc = {"checks": [{"name": "geodesics", "passed": True, "max_residual": 5e-16,
                       "tolerance": 1e-09, "details": [
                           {"name": "ode_residual_dim4", "passed": True, "residual": 4e-17,
                            "tolerance": 1e-06},
                           {"name": "chart_ambient_dim4", "passed": True, "residual": 5e-16,
                            "tolerance": 1e-09}]}],
           "columns": ["t", "k_max", "acs_residual", "geodesic_residual"],
           "rows": [[0.5, 0.25, 6e-16, 1e-17]]}
    assert compare(doc, doc) == ([], [])
    moved = json.loads(json.dumps(doc))
    moved["checks"][0]["details"][0]["residual"] = 9e-10  # under its floor of 1e-9
    moved["checks"][0]["details"][1]["residual"] = 2e-12  # above its floor of 1e-12
    moved["checks"][0]["max_residual"] = 2e-12
    moved["rows"][0][1] = 0.25 * (1 + 1e-11)
    moved["rows"][0][2] = 2e-10
    moved["rows"][0][3] = 9e-10  # the trace's geodesic_residual, held to 1e-6's floor
    changes, breaches = compare(moved, doc)
    assert breaches == []
    assert {path: kept for path, _, _, _, kept in changes} == {
        "checks[geodesics].max_residual": False,
        "checks[geodesics].details[ode_residual_dim4].residual": True,
        "checks[geodesics].details[chart_ambient_dim4].residual": False,
        "rows[t=0.5].k_max": False, "rows[t=0.5].acs_residual": False,
        "rows[t=0.5].geodesic_residual": True}
    moved["rows"][0][3] = 2e-9
    kept = {path: kept for path, _, _, _, kept in compare(moved, doc)[0]}
    assert kept["rows[t=0.5].geodesic_residual"] is False
    moved["checks"][0]["passed"] = False
    assert compare(moved, doc)[1] == ["pass set ['geodesics'] -> []",
                                      "checks[geodesics].passed: True -> False"]
    # every order factor stays in its window, whichever check holds it
    orders = {"checks": [
        {"name": name, "passed": True, "max_residual": 0.0, "tolerance": 0.0,
         "details": [{"name": sub, "passed": True, "residual": 0.0, "tolerance": 0.0,
                      "factor": 4.0, "window": [2.5, 6.0]}]}
        for name, sub in (("theorem2", "fd_order_dim2"), ("geodesics", "ode_order_dim2"),
                          ("curvature_fd", "commutator_order_dim4"),
                          ("metric_structure", "metric_compat_order_dim4"))]}
    moved = json.loads(json.dumps(orders))
    for check, factor in zip(moved["checks"], (4.0001, 6.5, 3.97, 2.4)):
        check["details"][0]["factor"] = factor
    changes, breaches = compare(moved, orders)
    assert breaches == []
    assert {path: (rule, kept) for path, _, _, rule, kept in changes} == {
        f"checks[{check}].details[{sub}].factor": ("order factor, window (2.5, 6.0)", kept)
        for check, sub, kept in (("theorem2", "fd_order_dim2", True),
                                 ("geodesics", "ode_order_dim2", False),
                                 ("curvature_fd", "commutator_order_dim4", True),
                                 ("metric_structure", "metric_compat_order_dim4", False))}


def write_goldens() -> None:
    """Rewrite every golden file with the output of its command, run from
    the repository root; a command that does not exit 0 stops the rewrite."""
    os.chdir(ROOT)
    for golden, argv in CASES.items():
        code, text = _run(argv)
        if code != 0:
            raise SystemExit(f"{golden}: acsgeom {' '.join(argv)} exits {code}")
        with open(os.path.join(GOLDEN, golden), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff_goldens())
    write_goldens()
