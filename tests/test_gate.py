"""Caller data is converted to arrays in one place: ``linalg._convert``.

The construction modules reach ``np.asarray`` and ``np.array`` only through
that gate, which turns numpy's conversion errors into typed ones.
``documents`` keeps ``_complex_array``, its own gate for JSON leaves.

A value built without its constructor's checks (``_trusted``) is built only
at a call site that ``rhokit.purification``'s "Built unchecked" list names.
"""

import ast
import re
from pathlib import Path

import pytest

from rhokit import purification

SOURCE = Path(__file__).resolve().parent.parent / "src" / "rhokit"
GATED = ["linalg.py", "ensembles.py", "purification.py", "steering.py"]
CONVERSIONS = {"array", "asarray", "asanyarray"}


def conversions_outside(text, gate="_convert"):
    """Lines that use ``np.array``, ``np.asarray`` or ``np.asanyarray``
    outside the function named ``gate``."""
    tree = ast.parse(text)
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == gate
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in CONVERSIONS
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and id(node) not in inside
    )


@pytest.mark.parametrize("name", GATED)
def test_modules_convert_caller_data_only_through_the_gate(name):
    assert conversions_outside((SOURCE / name).read_text(encoding="utf-8")) == []


def test_the_gate_converts():
    text = (SOURCE / "linalg.py").read_text(encoding="utf-8")
    assert conversions_outside(text, gate=None) != []


def test_conversion_outside_the_gate_is_found():
    source = "\n".join(
        [
            "import numpy as np",
            "def _convert(value):",
            "    return np.asarray(value)",
            "def weights(w):",
            "    return np.asarray(w, dtype=float)",
            "rows = list(map(np.array, [[1], [2]]))",
            "np.zeros(2)",
        ]
    )
    assert conversions_outside(source) == [5, 6]


def trusted_sites(text):
    """``(function, class)`` of every ``_trusted(class, ...)`` call in ``text``:
    the enclosing function, ``Class.method`` inside a class."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_trusted":
                sites.add((scope, child.args[0].id))
            visit(child, scope)

    visit(ast.parse(text), "")
    return sites


def documented_sites():
    """The pairs the docstring's list names: each item's functions before its
    colon, with each class named after it."""
    section = purification.__doc__.split("Built unchecked.", 1)[1]
    sites = set()
    for item in re.findall(r"^- (.+?)[;.]$", section, re.M | re.S):
        functions, built = item.split(":", 1)
        classes = [name for name in re.findall(r"``(\w+)``", built) if name[0].isupper()]
        sites.update((fn, cls) for fn in re.findall(r"``(\w+)``", functions) for cls in classes)
    return sites


def test_every_value_built_unchecked_is_documented():
    found = set().union(*(trusted_sites(path.read_text(encoding="utf-8"))
                          for path in sorted(SOURCE.glob("*.py"))))
    assert ("steer", "SteeringReport") in found
    assert found == documented_sites()


def test_a_new_unchecked_site_is_found():
    source = "\n".join(
        [
            "def _trusted(cls, **fields):",
            "    return cls",
            "def build():",
            "    return _trusted(Ancilla, kets=None)",
            "class Record:",
            "    def copy(self):",
            "        return [_trusted(UMap, cols=1)]",
        ]
    )
    assert trusted_sites(source) == {("build", "Ancilla"), ("Record.copy", "UMap")}
