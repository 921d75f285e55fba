"""Caller data is converted to arrays in one place: ``linalg._convert``.

The construction modules reach ``np.asarray`` and ``np.array`` only through
that gate, which turns numpy's conversion errors into typed ones.
``documents`` keeps ``_complex_array``, its own gate for JSON leaves.
"""

import ast
from pathlib import Path

import pytest

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
