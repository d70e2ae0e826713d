"""The benchmark tracer names package functions; they must all exist.

``bench/tracer.py`` looks up the functions named in ``FUNCTION_METRICS`` and
``COUNTED_SPECIALS`` by name and fails with ``KeyError`` when one is gone, so
a rename in the package would break ``bench/run.py --trace 1`` unnoticed.
The tracer file is read as text, never imported or edited.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names():
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTION_METRICS", "COUNTED_SPECIALS"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"FUNCTION_METRICS", "COUNTED_SPECIALS"}
    names = {fn for fn, _ in tables["FUNCTION_METRICS"].values()}
    return sorted(names | set(tables["COUNTED_SPECIALS"]))


@pytest.mark.parametrize("dotted", traced_names())
def test_traced_name_resolves(dotted):
    module_name, *path = dotted.split(".")
    module = importlib.import_module(f"semitoric.{module_name}")
    obj = module
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)
    # The tracer wraps only what a module defines itself, not what it imports.
    top = getattr(module, path[0])
    assert top.__module__ == module.__name__
    assert inspect.isfunction(top) or inspect.isclass(top)
