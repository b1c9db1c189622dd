"""No acsgeom module imports a private (``_``-prefixed) name from another
acsgeom module: what one module shares with another is public API."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))


def private_imports(source: str) -> list[str]:
    """The private names a module imports from inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "acsgeom"):
            found += [f"{node.module or ''}.{a.name}" for a in node.names
                      if a.name.startswith("_")]
    return found


def test_detects_a_private_import():
    assert private_imports("from .fiber import _expm, max_abs") == ["fiber._expm"]
    assert private_imports("from acsgeom.structures import _x") == ["acsgeom.structures._x"]
    assert private_imports("from scipy.linalg._matfuncs_expm import _f") == []


def test_no_module_imports_private_names_of_another():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "verify.py" in modules
    offenders = {}
    for name in modules:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            found = private_imports(fh.read())
        if found:
            offenders[name] = found
    assert offenders == {}
