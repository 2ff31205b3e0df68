"""What each command loads at start-up, and that a fresh interpreter prints the same bytes.

Each case runs in a new `python -S` interpreter with PYTHONPATH=src, so the
modules it reports are the ones the package itself pulled in.  Importing
multsidon.cli loads argparse, json and multsidon.rational; each command
imports its own layer when it runs, csv only for --format csv, and
fractions (with decimal) only where a rational is built, never for
pair-construct.
Stdout is buffered in every case but those run with -u, where its binary
layer is a raw file.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multsidon.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("multsidon.components", "multsidon.density", "multsidon.oracle", "multsidon.pair_sidon")

# Prints the modules loaded by running argv through cli.main, its stdout discarded.
MODULES_AFTER = """
import io, sys
from multsidon.cli import main
stdout, sys.stdout = sys.stdout, io.StringIO()
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
stdout.write(f"{code} {' '.join(sys.modules)}")
"""


def environment() -> dict[str, str]:
    """This process's environment with PYTHONPATH=src and PYTHONUNBUFFERED unset."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", *args], env=environment(),
                          capture_output=True, timeout=60, check=False)


def modules_after(*argv: str) -> set[str]:
    result = python("-c", MODULES_AFTER, *argv)
    code, *modules = result.stdout.decode().split()
    assert code == "0", result.stderr.decode()
    return set(modules)


def test_import_cli_loads_no_layer():
    loaded = modules_after()
    assert "multsidon.rational" in loaded
    unwanted = {"dataclasses", "inspect", "typing", "csv", "fractions", "decimal", *LAYERS}
    assert not loaded & unwanted, sorted(loaded & unwanted)


@pytest.mark.parametrize(
    "argv, unwanted",
    [
        ("triple-density --a 2 --b 3 --c 5 --eps 1e-10",
         {"multsidon.oracle", "multsidon.pair_sidon"}),
        ("triple-density --a 2 --b 3 --c 5 --mode converge",
         {"multsidon.oracle", "multsidon.pair_sidon"}),
        ("triple-table", {"multsidon.oracle", "multsidon.pair_sidon"}),
        ("pair-density --a 2 --b 3",
         {"multsidon.components", "multsidon.density", "multsidon.oracle"}),
        ("pair-construct --a 2 --b 3 --n 100 --verify",
         {"multsidon.components", "multsidon.density", "multsidon.oracle",
          "fractions", "decimal"}),
        ("pair-construct --a 2 --b 3 --n 100 --format csv",
         {"multsidon.components", "multsidon.density", "multsidon.oracle",
          "fractions", "decimal"}),
        ("empirical --a 2 --b 3 --c 5 --n 1000",
         {"multsidon.density", "multsidon.pair_sidon"}),
    ],
)
def test_each_command_loads_only_its_layers(argv, unwanted):
    loaded = modules_after(*argv.split())
    unwanted |= {"dataclasses", "inspect", "typing", "csv"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_csv_is_loaded_for_csv_only():
    assert "csv" in modules_after("pair-density", "--a", "2", "--b", "3", "--format", "csv")


COMMANDS = (
    "pair-density --a 4 --b 6",
    "pair-construct --a 2 --b 3 --n 2000 --verify",
    "triple-density --a 2 --b 3 --c 5 --eps 1e-12",
    "triple-density --a 3 --b 4 --c 5 --mode converge --digits 8",
    "triple-table",
    "empirical --a 2 --b 3 --c 5 --n 300 --verify",
    "check-set --A 2 --B 3,5 --set-file SET_FILE",
)


# Under -u stdout's binary layer is a raw file, which may take part of a write.
@pytest.mark.parametrize("fmt, flags",
                         [("json", ()), ("csv", ()), ("plain", ()), ("json", ("-u",))],
                         ids=["json", "csv", "plain", "json-unbuffered"])
@pytest.mark.parametrize("command", COMMANDS)
def test_fresh_interpreter_prints_the_in_process_bytes(capsys, tmp_path, command, fmt, flags):
    set_file = tmp_path / "set.txt"
    set_file.write_text("1\n2\n6\n7\n", encoding="ascii")
    argv = [str(set_file) if arg == "SET_FILE" else arg for arg in command.split()]
    argv += ["--format", fmt]
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    result = python(*flags, "-m", "multsidon.cli", *argv)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode() == in_process


def test_unbuffered_run_whose_reader_closes_early_exits_2_without_traceback():
    argv = "pair-construct --a 2 --b 3 --n 1000000".split()  # 8.9 MB, far over a pipe's buffer
    with subprocess.Popen([sys.executable, "-S", "-u", "-m", "multsidon.cli", *argv],
                          env=environment(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 2, err
    assert "Broken pipe" in err and "Traceback" not in err


def test_no_source_file_imports_dataclasses_or_typing():
    offenders = []
    for path in sorted((SRC / "multsidon").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name.split(".")[0] in ("dataclasses", "typing")]
    assert not offenders, offenders


def test_density_does_not_sort():
    """The kernel walks each band in one kept row order: density calls neither sorted nor .sort."""
    tree = ast.parse((SRC / "multsidon" / "density.py").read_text(encoding="utf-8"))
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    offenders = [f"line {func.lineno}" for func in calls
                 if isinstance(func, ast.Name) and func.id == "sorted"
                 or isinstance(func, ast.Attribute) and func.attr == "sort"]
    assert not offenders, offenders
