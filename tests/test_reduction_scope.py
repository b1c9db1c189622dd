"""Every per-slice reduction of a stack goes through ``fiber.slice_max_abs``
or ``fiber.norm_1``, so each has one implementation.

No package module calls ``max``, ``min``, ``sum``, ``any``, ``all`` (a
numpy function or an array method) or a ufunc's ``reduce`` over the two
matrix axes, ``axis=(1, 2)`` or ``axis=(-2, -1)``, and none takes a
Frobenius ``np.linalg.norm`` (no ``ord``) over them.  The guard's kappa_F
sums its squares with ``np.einsum``, which names no axes and no module
reduces with otherwise.  ``charts.shape_anticommuting``'s spectral norm
(``ord=2``) is an SVD, not a reduction, and stays."""

import ast
import os

import acsgeom

PACKAGE = os.path.dirname(os.path.abspath(acsgeom.__file__))
REDUCTIONS = {"max", "min", "sum", "any", "all", "amax", "amin", "reduce"}
MATRIX_AXES = {(1, 2), (2, 1), (-2, -1), (-1, -2)}
FROBENIUS = {None, "fro", "f"}
# the functions exempt from the rule, by module; the two helpers reduce
# (n m, b) blocks or flattened slices, not the matrix axes, so none is
HELPERS = {}


def literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return ...  # not a literal


def matrix_axes(node) -> bool:
    value = literal(node)
    return isinstance(value, tuple) and value in MATRIX_AXES


def frobenius_norm(node: ast.Call) -> bool:
    """A ``norm(x, ord, axis)`` call over the matrix axes with no ``ord``,
    or a Frobenius one."""
    args = dict(zip(("x", "ord", "axis"), node.args))
    args.update((k.arg, k.value) for k in node.keywords)
    return ("axis" in args and matrix_axes(args["axis"])
            and ("ord" not in args or literal(args["ord"]) in FROBENIUS))


def slice_reductions(source: str, helpers=()) -> list[int]:
    """Lines of ``source`` that reduce over the matrix axes, given by
    keyword or by position, outside the functions named in ``helpers``."""
    tree = ast.parse(source)
    exempt = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in helpers
              for inner in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in REDUCTIONS and any(
                matrix_axes(arg) for arg in [*node.args, *(k.value for k in node.keywords)]):
            lines.append(node.lineno)
        elif name == "norm" and frobenius_norm(node):
            lines.append(node.lineno)
    return sorted(lines)


def test_detects_a_slice_reduction():
    source = ("np.max(np.abs(x), axis=(1, 2))\n"
              "abs(x).sum(axis=(-2, -1))\n"
              "np.isfinite(x).all((1, 2))\n"
              "np.amin(x, (-2, -1))\n"
              "np.add.reduce(x * x, axis=(-2, -1))\n"
              "np.maximum.reduce(x, (1, 2))\n"
              "np.linalg.norm(x, axis=(-2, -1))\n"
              "np.linalg.norm(x, 'fro', (1, 2))\n"
              "np.linalg.norm(x, ord=None, axis=(-1, -2))\n"
              "np.linalg.norm(x, 2, axis=(-2, -1))\n"
              "np.linalg.norm(x, ord=2, axis=(1, 2))\n"
              "np.linalg.norm(x)\n"
              "np.add.reduce(x, axis=-1)\n"
              "x.max(axis=1)\n"
              "np.max(x, axis=axes)\n")
    assert slice_reductions(source) == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_only_the_named_helper_is_exempt():
    source = ("def slice_norm_fro(x):\n"
              "    return np.sqrt(np.add.reduce(x * x, axis=(-2, -1)))\n"
              "def other(x):\n"
              "    return np.linalg.norm(x, axis=(-2, -1))\n")
    assert slice_reductions(source) == [2, 4]
    assert slice_reductions(source, {"slice_norm_fro"}) == [4]


def test_no_module_reduces_slices_itself():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                lines = slice_reductions(fh.read(), HELPERS.get(name, ()))
            if lines:
                found[name] = lines
    assert found == {}
