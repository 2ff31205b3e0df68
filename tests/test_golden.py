"""The CLI's stdout against the sha256 digests in perfbench/golden.json.

The benchmark records one digest per input it runs.  Each input runs here
in-process, so a change that alters any output byte fails tier-1, not only
the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from multsidon.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="ascii"))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
