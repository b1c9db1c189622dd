"""No module imports scipy, and one module only calls the SVD condition number.

The package depends on numpy alone; scipy is a test dependency, the
oracle of the exponential tests.  The guarded inversion reads its
condition estimate from the inverse it returns, so ``linalg.cond`` (one
SVD per slice) is left to ``structures``, which checks outside symplectic
forms at every scale."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))


def imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return False
    return any(m == "scipy" or m.startswith("scipy.") for m in modules)


def calls_linalg_cond(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cond" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg")


def modules_where(test) -> set[str]:
    """The package modules holding a node that passes ``test``."""
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        if any(test(node) for node in ast.walk(tree)):
            found.add(name)
    return found


def test_no_module_imports_scipy():
    assert modules_where(imports_scipy) == set()


def test_only_structures_calls_linalg_cond():
    assert modules_where(calls_linalg_cond) == {"structures.py"}
