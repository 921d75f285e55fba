"""README examples run as written (the Python quickstart and the worked CLI
pipeline), its CLI and tolerance tables match the code, and its clause
table states the accuracy constants the tests read."""

import importlib
import inspect
import re
import shlex
from pathlib import Path

import numpy as np

import rhokit
from rhokit import RhoEnsemble, documents as docs
from rhokit.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(heading, language):
    """The first fenced ``language`` block after ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs():
    exec(compile(code_block("Library quickstart", "python"), "README.md", "exec"), {})


def test_worked_pipeline_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ensemble = RhoEnsemble(
        kets=np.array([[1, 0], [1, 1]], dtype=complex) / [[1], [np.sqrt(2)]],
        weights=[0.25, 0.75],
    )
    Path("ensemble.json").write_text(docs.dump_document(docs.ensemble_document(ensemble)))
    commands = [
        shlex.split(line, comments=True)
        for line in code_block("Worked pipeline", "sh").splitlines()
    ]
    assert len(commands) == 4
    for argv in commands:
        assert argv[0] == "rhokit"
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def command_flags():
    """Each CLI command's flags, ``--help`` aside, from the parser itself."""
    commands = build_parser()._subparsers._group_actions[0].choices
    return {
        command: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        for command, parser in commands.items()
    }


def test_cli_table_lists_every_flag_of_every_command():
    section = README.split("\n## CLI reference\n", 1)[1]
    rows = re.findall(r"^\| `([a-z-]+)([^`]*)` \|", section, re.M)
    documented = {command: set(re.findall(r"--[a-z-]+", usage)) for command, usage in rows}
    assert documented == command_flags()


def test_tolerance_table_lists_every_reader_of_each_tolerance():
    functions = [f for name in rhokit.__all__ if inspect.isfunction(f := getattr(rhokit, name))]
    for param, flag in (("tol", "--tol"), ("rank_tol", "--rank-tol")):
        row = re.search(rf"^\| `{param}` \|.*$", README, re.M).group()
        read_by = row.split(" | ")[3]
        library, cli = read_by.split(f"CLI `{flag}`:")
        assert set(re.findall(r"`(\w+)`", library)) == {
            f.__name__ for f in functions if param in inspect.signature(f).parameters
        }
        assert set(re.findall(r"`([a-z-]+)`", cli)) == {
            command for command, flags in command_flags().items() if flag in flags
        }


def test_signature_lines_match_the_code():
    # Each ``name(params) -> type`` line: its parameter names and default
    # reprs, in order, as inspect.signature reads them.
    lines = re.findall(r"^(\w+)\((.*)\) -> ", README, re.M)
    assert {"ensemble_to_density", "DensityMatrix", "eigen_ensemble"} <= dict(lines).keys()
    for name, params in lines:
        documented = [tuple(param.split("=")) for param in params.split(", ") if param]
        code = [
            (param.name,) if param.default is param.empty else (param.name, repr(param.default))
            for param in inspect.signature(getattr(rhokit, name)).parameters.values()
        ]
        assert documented == code, name


def test_accuracy_table_states_the_constants_the_tests_read():
    # The clause table states each c·n·eps constant once, its c beside it.
    section = README.split("\n## The theorem in one place\n", 1)[1].split("\n## ", 1)[0]
    cited = re.findall(r"`(test_\w+)\.(\w+_C)` \(c = `([^`]+)`", section)
    tests = Path(__file__).resolve().parent
    defined = {
        (path.stem, name)
        for path in tests.glob("test_*.py")
        for name in re.findall(r"^(\w+_C) = ", path.read_text(encoding="utf-8"), re.M)
    }
    # A list against a set: every constant, each cited once.
    assert sorted((module, name) for module, name, _ in cited) == sorted(defined)
    for module, name, value in cited:
        assert float(value) == getattr(importlib.import_module(module), name)
