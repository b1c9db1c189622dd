"""Every name the benchmark's tracer wraps still exists in the library.

``perfbench/tracer.py`` wraps the public names in its ``LAYERS`` table from
outside ``src/``, so deleting or renaming one of them breaks the benchmark.
This test reads that table without changing it and resolves each name the
way the tracer does.
"""

import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _traced_names() -> list[tuple[str, str]]:
    """(layer, attribute) pairs of the tracer's LAYERS, read from its source
    (executed in a fresh namespace, so no bytecode is written beside it)."""
    with open(TRACER, encoding="utf-8") as fh:
        tracer = {"__name__": "perfbench_tracer"}
        exec(compile(fh.read(), TRACER, "exec"), tracer)
    return [(layer, attr) for layer, attrs in tracer["LAYERS"].items() for attr in attrs]


TRACED = _traced_names()


@pytest.mark.parametrize("layer, attr", TRACED, ids=[f"{l}.{a}" for l, a in TRACED])
def test_traced_name_resolves(layer, attr):
    module = importlib.import_module(f"acsgeom.{layer}")
    if "." in attr:  # a method, wrapped on its class
        cls_name, key = attr.split(".")
        assert hasattr(vars(getattr(module, cls_name)).get(key), "__code__")
    elif attr[0].isupper():  # a constructor; the tracer profiles the class's own __post_init__
        assert hasattr(vars(getattr(module, attr)).get("__post_init__"), "__code__")
    else:
        assert hasattr(getattr(module, attr), "__code__")
