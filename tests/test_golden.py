"""The CLI's stdout against recorded sha256 digests.

The benchmark records one digest per input it runs, in perfbench/golden.json.
tests/golden_extra.json adds deeper cutoffs, larger bases, converge mode and
the csv and plain table, each recorded before the density kernel moved to
row bands, and (2,3,5) at --d 1, whose upper end is clamped to 1.  Each input runs here in-process, so a change that alters any
output byte fails tier-1, not only the benchmark.

tests/golden_exits.json holds the exit code and the digests of stdout and
stderr of the top-level and every subcommand's --help, at COLUMNS=80, and of
two argparse refusals (--a 0, and --eps beside --d) and one ValueError
refusal.  The --help runs and the argparse refusals end in SystemExit, which
is read as their exit code.
"""

import hashlib
import json
from pathlib import Path

import pytest

from multsidon.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE.parent / "perfbench" / "golden.json").read_text(encoding="ascii"))
GOLDEN_EXTRA = json.loads((HERE / "golden_extra.json").read_text(encoding="ascii"))
GOLDEN_EXITS = json.loads((HERE / "golden_exits.json").read_text(encoding="ascii"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_digest(capsys, command: str) -> str:
    assert main(command.split()) == 0
    return digest(capsys.readouterr().out)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden_digest(capsys, command):
    assert stdout_digest(capsys, command) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_EXTRA))
def test_stdout_matches_extra_digest(capsys, command):
    assert stdout_digest(capsys, command) == GOLDEN_EXTRA[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_EXITS))
def test_help_and_refusals_match_digests(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert {"exit": code, "stderr": digest(err), "stdout": digest(out)} == GOLDEN_EXITS[command]
