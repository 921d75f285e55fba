"""Every name a rhokit module, a tool or a test module imports is used in that module.

A name listed in the module's ``__all__`` counts as used (a re-export), and
so does an import whose own line carries ``# noqa: F401`` with its reason.
A rhokit module or a tool imports only the standard library and numpy, the
one runtime dependency; a test or benchmark module also pytest, rhokit and the
modules beside it.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for folder in ("src/rhokit", "tools", "tests")
    for path in sorted((ROOT / folder).glob("*.py"))
]


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


def imported_modules(text):
    """The top-level packages the module source ``text`` imports."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


# What rhokit and its tools may import: the standard library and numpy, the
# one runtime dependency. Relative imports are the package's own.
RUNTIME = set(sys.stdlib_module_names) | {"numpy"}
TEST_MODULES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# What a test or benchmark module may import: that, pytest, rhokit and the
# modules beside it.
ALLOWED = RUNTIME | {"pytest", "rhokit"} | {path.stem for path in TEST_MODULES}


PACKAGE_MODULES = [path for path in MODULES if path.parent.name != "tests"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_and_tool_modules_import_only_the_standard_library_and_numpy(path):
    # A package installed here but not declared (scipy, say) would pass every
    # other test and still break an install that has numpy alone.
    assert imported_modules(path.read_text(encoding="utf-8")) - RUNTIME == set()


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_test_and_benchmark_modules_import_only_the_declared_packages(path):
    # Every random case is drawn from a numpy generator seeded by its number,
    # so each collection of the suite draws the same cases; a property-testing
    # package would draw by rules of its own.
    assert imported_modules(path.read_text(encoding="utf-8")) - ALLOWED == set()


def test_imported_modules_finds_plain_dotted_and_from_imports():
    source = "import numpy as np\nimport os.path\nfrom scipy.linalg import qr\nfrom . import x"
    assert imported_modules(source) == {"numpy", "os", "scipy"}
    assert imported_modules(source) - ALLOWED == {"scipy"}
    assert imported_modules(source) - RUNTIME == {"scipy"}
