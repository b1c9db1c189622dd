"""scipy is imported by one module only.

``fiber`` calls scipy's private compiled Pade kernels, whose call convention
is checked against the scipy version that ``pyproject.toml`` requires; any
other module importing scipy would spread that dependency."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))


def scipy_importers() -> set[str]:
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.add(name)
    return found


def test_only_fiber_imports_scipy():
    assert scipy_importers() == {"fiber.py"}
