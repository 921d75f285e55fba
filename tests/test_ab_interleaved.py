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
    assert result["changed_outputs"] == []
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
    assert result["changed_outputs"] == []


def test_a_parent_whose_steer_output_differs_in_the_last_bits_is_named(tmp_path):
    parent = tmp_path / "parent"
    copy_src(parent)
    steering = parent / "src" / "rhokit" / "steering.py"
    exact = "post_density=_weighted_projector_sum(ensemble.kets, ensemble.weights)"
    text = steering.read_text(encoding="utf-8")
    assert text.count(exact) == 1
    steering.write_text(text.replace(exact, f"{exact} * (1 + 2**-50)"), encoding="utf-8")
    result = ab_line(parent, 2)
    assert result["changed_outputs"] == ["steer"]
    assert result["failed"] == {"parent": 0, "change": 0}
