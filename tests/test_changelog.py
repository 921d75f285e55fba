"""CHANGES.md is one line per entry, each entry written once."""

from collections import Counter
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"


def test_no_line_of_the_changelog_appears_twice():
    lines = [line for line in CHANGES.read_text(encoding="utf-8").splitlines() if line.strip()]
    repeated = [line[:120] for line, count in Counter(lines).items() if count > 1]
    assert not repeated, f"{len(repeated)} lines appear more than once, first: {repeated[0]!r}"
