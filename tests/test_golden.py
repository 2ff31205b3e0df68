"""The CLI's stdout against recorded sha256 digests.

The benchmark records one digest per input it runs, in perfbench/golden.json.
tests/golden_extra.json adds deeper cutoffs, larger bases, converge mode and
the csv and plain table, each recorded before the density kernel moved to
row bands.  Each input runs here in-process, so a change that alters any
output byte fails tier-1, not only the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from multsidon.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE.parent / "perfbench" / "golden.json").read_text(encoding="ascii"))
GOLDEN_EXTRA = json.loads((HERE / "golden_extra.json").read_text(encoding="ascii"))


def stdout_digest(capsys, command: str) -> str:
    assert main(command.split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden_digest(capsys, command):
    assert stdout_digest(capsys, command) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_EXTRA))
def test_stdout_matches_extra_digest(capsys, command):
    assert stdout_digest(capsys, command) == GOLDEN_EXTRA[command]
