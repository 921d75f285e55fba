"""``tools/ab_interleaved.py`` times a parent tree against this one in one process."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_interleaved.py"


def tree(*dirs):
    return {p for d in dirs for p in d.rglob("*")}


def test_tree_against_itself_prints_one_json_line_and_leaves_no_files(tmp_path):
    parent = tmp_path / "parent"
    shutil.copytree(
        ROOT / "src" / "rhokit",
        parent / "src" / "rhokit",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    watched = (parent, ROOT / "src", ROOT / "perfbench", ROOT / "tools")
    before = tree(*watched)
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--workload",
         "steer_sweep", "--seed", "5", "--pairs", "4"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert tree(*watched) == before
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["workload"] == "steer_sweep" and result["pairs"] == 4
    assert result["failed"] == {"parent": 0, "change": 0}
    assert result["parent_median_ms"] > 0 and result["change_median_ms"] > 0
    assert result["parent_iqr_ms"] >= 0
    assert result["ratio"] > 0
    assert result["change_faster_share"] in (0, 0.25, 0.5, 0.75, 1)
