"""``tools/ab_interleaved.py`` times a parent tree against this one."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_interleaved.py"


def tree(*dirs):
    return {p for d in dirs for p in d.rglob("*")}


def copy_src(parent):
    shutil.copytree(
        ROOT / "src" / "rhokit",
        parent / "src" / "rhokit",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def ab_line(parent, pairs, workload="steer_sweep", seed=5):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--workload",
         workload, "--seed", str(seed), "--pairs", str(pairs)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_tree_against_itself_prints_one_json_line_and_leaves_no_files(tmp_path):
    parent = tmp_path / "parent"
    copy_src(parent)
    watched = (parent, ROOT / "src", ROOT / "perfbench", ROOT / "tools")
    before = tree(*watched)
    result = ab_line(parent, 4)
    assert tree(*watched) == before
    assert result["workload"] == "steer_sweep" and result["pairs"] == 4
    assert result["failed"] == {"parent": 0, "change": 0}
    assert result["changed_outputs"] == [] and result["largest_change"] == {}
    assert result["parent_median_ms"] > 0 and result["change_median_ms"] > 0
    assert result["parent_iqr_ms"] >= 0
    assert result["ratio"] > 0
    assert result["change_faster_share"] in (0, 0.25, 0.5, 0.75, 1)


def test_cli_pipeline_against_itself_changes_no_output_and_leaves_no_files(tmp_path):
    parent = tmp_path / "parent"
    copy_src(parent)
    watched = (parent, ROOT / "src", ROOT / "perfbench", ROOT / "tools")
    before = tree(*watched)
    result = ab_line(parent, 2, "cli_pipeline", 201)
    assert tree(*watched) == before
    assert result["workload"] == "cli_pipeline" and result["pairs"] == 2
    assert result["failed"] == {"parent": 0, "change": 0}
    assert result["changed_outputs"] == [] and result["largest_change"] == {}


def test_a_parent_whose_steer_output_differs_in_the_last_bits_is_named(tmp_path):
    parent = tmp_path / "parent"
    copy_src(parent)
    steering = parent / "src" / "rhokit" / "steering.py"
    exact = "post_density=_state(ensemble.kets.T * np.sqrt(ensemble.weights))"
    text = steering.read_text(encoding="utf-8")
    assert text.count(exact) == 1
    steering.write_text(text.replace(exact, f"{exact} * (1 + 2**-50)"), encoding="utf-8")
    result = ab_line(parent, 2)
    assert result["changed_outputs"] == ["steer"]
    assert 0.0 < result["largest_change"]["steer"] <= 1e-14
    assert result["failed"] == {"parent": 0, "change": 0}


def test_largest_change_reads_numbers_and_is_null_where_outputs_differ_in_kind():
    import importlib.util

    import numpy as np

    spec = importlib.util.spec_from_file_location("ab_interleaved", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parent = [(0.5, np.array([1.0, 2.0])), ValueError("x")]
    change = [(0.5 + 2**-50, np.array([1.0, 2.0 + 2**-48])), ValueError("x")]
    assert tool.largest_change(parent, change) == 2**-48
    assert tool.largest_change(parent, parent) == 0.0
    assert tool.largest_change(np.zeros(2), np.zeros(3)) is None
    assert tool.largest_change(np.zeros(2), np.zeros(2, dtype=complex)) is None
    assert tool.largest_change(1.0, 1) is None
    assert tool.largest_change("a", "b") is None
    assert tool.largest_change(ValueError("x"), ValueError("y")) is None
    assert tool.largest_change([1.0], [1.0, 2.0]) is None
