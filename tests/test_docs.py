"""Every public callable has a docstring, and each rule is stated once: the
fixed admission's value sits in README's tolerance table and in
``rhokit.linalg``, the module that owns it, and nowhere else in prose."""

import ast
import inspect
import itertools
import re
from pathlib import Path

import rhokit
from rhokit import DEFAULT_RANK_TOL, DEFAULT_TOL, cli, documents, linalg

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
SOURCES = ROOT / "src" / "rhokit"


def public_callables():
    """Every callable of ``rhokit.__all__`` and of ``rhokit.documents``'s own
    public names, and the CLI's entry points, by qualified name."""
    named = {f"rhokit.{name}": getattr(rhokit, name) for name in rhokit.__all__}
    named.update(
        (f"rhokit.documents.{name}", value)
        for name, value in vars(documents).items()
        if inspect.isfunction(value)
        and value.__module__ == documents.__name__
        and not name.startswith("_")
    )
    named.update((f"rhokit.cli.{fn.__name__}", fn) for fn in (cli.main, cli.run, cli.build_parser))
    return {name: value for name, value in named.items() if callable(value)}


def test_every_public_callable_has_a_docstring():
    callables = public_callables()
    assert "rhokit.documents.to_umap" in callables and "rhokit.cli.main" in callables
    missing = [name for name, value in callables.items() if not (value.__doc__ or "").strip()]
    assert not missing, missing


def prose_lines(text):
    """README's lines outside its tables and code fences."""
    fenced = False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and not line.startswith("|"):
            yield line


def docstring_lines(path):
    """The lines of every module, class and function docstring in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (ast.get_docstring(node) or "").splitlines()


def test_readme_prose_restates_the_admission_at_most_twice():
    lines = [line for line in prose_lines(README) if "1e-8" in line]
    assert len(lines) <= 2, lines


def test_docstrings_outside_linalg_restate_the_admission_at_most_twice():
    # Error messages are code, not docstrings, and are not counted.
    lines = [
        f"{path.name}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "linalg.py"
        for line in docstring_lines(path)
        if "1e-8" in line
    ]
    assert len(lines) <= 2, lines


def test_tolerance_table_defaults_are_the_constants():
    below = README.split("\n| threshold | default |", 1)[1].splitlines()[2:]
    rows = itertools.takewhile(lambda line: line.startswith("| "), below)
    cells = [row.split(" | ") for row in rows]
    defaults = {name.strip("|` "): float(re.match(r"`([^`]+)`", default).group(1))
                for name, default, *_ in cells}
    assert defaults == {
        "tol": DEFAULT_TOL,
        "rank_tol": DEFAULT_RANK_TOL,
        "admission": linalg._CONSTRUCT_TOL,
    }
