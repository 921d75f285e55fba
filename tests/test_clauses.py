"""README's table "The theorem in one place" cites only what exists.

Each row names a clause of the theorem in its ancilla form, the functions
that construct it, the checker of their output, its identities with the
constant that bounds each, and the tests that check it. Every name in the
constructions and checker columns (the identifier a span starts with) is in
``rhokit.__all__``; every bound ``test_x.NAME`` is assigned at module level
of ``tests/test_x.py``; every test ``tests/test_x.py::test_y`` is a
module-level function there. Test modules are read as syntax trees, neither
imported nor collected.

``UNCITED`` pins the public callables that no row cites and no CLI command
calls: the names that ``rhokit.cli`` and ``rhokit.documents``, through which
every command reads and writes, never mention. They are the candidates for
leaving the public API.
"""

import ast
import inspect
import itertools
import re
from pathlib import Path

import rhokit

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
TESTS = ROOT / "tests"
CLI_MODULES = [ROOT / "src" / "rhokit" / name for name in ("cli.py", "documents.py")]
COLUMNS = ["clause", "constructions", "checker", "identity: bound", "tests"]
CONSTANT = re.compile(r"(test_\w+)\.([A-Z][A-Z0-9_]*)")
TEST_ID = re.compile(r"tests/(test_\w+)\.py::(test_\w+)")
UNCITED = {
    "DensityMatrix",
    "SchmidtForm",
    "complete_orthonormal",
    "densities_match",
    "eig_hermitian",
    "eigen_ensemble",
    "ensemble_to_density",
    "ensembles_equal",
    "is_linearly_independent",
    "sample_outcomes",
    "schmidt_decompose",
    "tensor_ket",
}


def clause_rows(text=README):
    """The table's rows, each a dict from column to cell; ``\\|`` is a pipe
    inside a cell."""
    section = text.split("\n## The theorem in one place\n", 1)[1].split("\n## ", 1)[0]
    lines = itertools.dropwhile(lambda line: not line.startswith("|"), section.splitlines())
    table = itertools.takewhile(lambda line: line.startswith("|"), lines)
    header, _, *rows = ([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
                        for line in table)
    assert header == COLUMNS
    return [dict(zip(COLUMNS, row)) for row in rows]


def spans(cell):
    return re.findall(r"`([^`]+)`", cell)


def cited_names(row):
    return [re.match(r"\w+", span).group()
            for column in ("constructions", "checker") for span in spans(row[column])]


def cited_constants(row):
    return [m.groups() for span in spans(row["identity: bound"]) if (m := CONSTANT.fullmatch(span))]


def module_level(stem):
    """The functions and the assigned names at module level of ``tests/<stem>.py``."""
    path = TESTS / f"{stem}.py"
    if not path.is_file():
        return set(), set()
    body = ast.parse(path.read_text(encoding="utf-8")).body
    functions = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    assigned = {target.id for node in body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    return functions, assigned


def missing_names(rows):
    return [name for row in rows for name in cited_names(row) if name not in rhokit.__all__]


def missing_tests(rows):
    """Each span of a tests cell that is not a test id of an existing function."""
    return [span for row in rows for span in spans(row["tests"])
            if not ((m := TEST_ID.fullmatch(span)) and m[2] in module_level(m[1])[0])]


def missing_constants(rows):
    return [f"{stem}.{name}" for row in rows for stem, name in cited_constants(row)
            if name not in module_level(stem)[1]]


def test_the_table_has_one_complete_row_per_clause():
    rows = clause_rows()
    assert [row["clause"].split(".")[0] for row in rows] == ["1", "2", "3", "4", "5"]
    for row in rows:
        assert spans(row["constructions"]) and spans(row["checker"]), row["clause"]
        assert cited_constants(row) and spans(row["tests"]), row["clause"]


def test_every_cited_name_is_public():
    assert missing_names(clause_rows()) == []


def test_every_cited_test_function_exists():
    assert missing_tests(clause_rows()) == []


def test_every_cited_bound_is_a_constant_of_its_module():
    assert missing_constants(clause_rows()) == []


def test_a_stale_citation_is_found():
    row = ("| 1. A clause. | `purify`, `tensor_product` | `check_umap` of `UMap(U)` |"
           " `x`: `test_accuracy.PURIFY_C`, `test_accuracy.PURIFY_D` |"
           " `tests/test_accuracy.py::test_gone`, `tests/test_accuracy.py::ACCURACY_CASES`,"
           " `tests/test_nowhere.py::test_x`,"
           " `tests/test_accuracy.py::test_purify_reduces_to_the_density_within_a_few_n_eps` |")
    text = "\n".join(["", "## The theorem in one place", "", f"| {' | '.join(COLUMNS)} |",
                      "| --- | --- | --- | --- | --- |", row, "", "## Next", "| a |"])
    rows = clause_rows(text)
    assert missing_names(rows) == ["tensor_product"]
    assert missing_tests(rows) == [
        "tests/test_accuracy.py::test_gone",
        "tests/test_accuracy.py::ACCURACY_CASES",
        "tests/test_nowhere.py::test_x",
    ]
    assert missing_constants(rows) == ["test_accuracy.PURIFY_D"]


def public_callables():
    """The functions and value classes of ``rhokit.__all__``; errors are raised, not called."""
    return {
        name for name in rhokit.__all__
        if inspect.isfunction(value := getattr(rhokit, name))
        or (inspect.isclass(value) and not issubclass(value, BaseException))
    }


def test_uncited_public_callables_are_pinned():
    cited = {name for row in clause_rows() for name in cited_names(row)}
    mentioned = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in CLI_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert public_callables() - cited - mentioned == UNCITED
