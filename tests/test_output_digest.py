"""``tools/output_digest.py`` prints reproducible digests of a round's outputs."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def digest_lines(workload, seed):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.splitlines()


def test_steer_sweep_digests_repeat_and_follow_the_seed():
    lines = digest_lines("steer_sweep", 5)
    assert [line.split()[0] for line in lines] == ["steer", "measure_ancilla"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    # A fresh process gives the same digests; another seed's outputs differ.
    assert digest_lines("steer_sweep", 5) == lines
    other = digest_lines("steer_sweep", 6)
    assert all(a != b for a, b in zip(lines, other))
