"""Every per-slice reduction of a stack goes through ``fiber.slice_max_abs``
or ``fiber.diagonal_and_norm_1``, so each has one implementation.

No package module calls ``max``, ``min``, ``sum``, ``any`` or ``all`` (a
numpy function or an array method) over the two matrix axes,
``axis=(1, 2)`` or ``axis=(-2, -1)``.  ``np.linalg.norm`` over those axes
stays: the guard's kappa_F and ``charts.shape_anticommuting`` read norms
that numpy sums in its own order, which a reordered sum would not keep bit
for bit."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))
REDUCTIONS = {"max", "min", "sum", "any", "all", "amax", "amin"}
MATRIX_AXES = {(1, 2), (2, 1), (-2, -1), (-1, -2)}


def matrix_axes(node) -> bool:
    try:
        return ast.literal_eval(node) in MATRIX_AXES
    except ValueError:
        return False


def slice_reductions(source: str) -> list[int]:
    """Lines of ``source`` that reduce over the matrix axes, given by
    keyword or by position."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in REDUCTIONS and any(
                matrix_axes(arg) for arg in [*node.args, *(k.value for k in node.keywords)]):
            lines.append(node.lineno)
    return lines


def test_detects_a_slice_reduction():
    source = ("np.max(np.abs(x), axis=(1, 2))\n"
              "abs(x).sum(axis=(-2, -1))\n"
              "np.isfinite(x).all((1, 2))\n"
              "np.amin(x, (-2, -1))\n"
              "np.linalg.norm(x, axis=(-2, -1))\n"
              "x.max(axis=1)\n"
              "np.max(x, axis=axes)\n")
    assert slice_reductions(source) == [1, 2, 3, 4]


def test_no_module_reduces_slices_itself():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                lines = slice_reductions(fh.read())
            if lines:
                found[name] = lines
    assert found == {}
