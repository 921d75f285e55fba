"""Every name a rhokit module or a tool imports is used in that module.

A name listed in the module's ``__all__`` counts as used (a re-export), and
so does an import whose own line carries ``# noqa: F401`` with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "rhokit").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def unused_imports(text):
    """Names imported by the module source ``text`` and never used in it."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found_unless_exported_or_marked():
    source = "\n".join(
        [
            "import numpy as np",
            "import os.path",
            "from math import inf, pi",
            "from json import dumps  # noqa: F401 -- read by a test",
            "from json import (",
            "    loads,",
            "    load,  # noqa: F401 -- read by a test",
            ")",
            "__all__ = ['pi']",
            "x = np.zeros(1)",
        ]
    )
    assert unused_imports(source) == ["inf", "loads", "os"]
