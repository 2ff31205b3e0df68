"""The benchmark's tracer run on the package, one small input per traced layer.

perfbench/traced_cli.py wraps the layers' public calls by name and counts
len(decomposition.paths), and the benchmark's per-layer metrics read the
spans, counters and hot calls it records.  These runs fail here when a
change to the package breaks one of those hooks, instead of only in a
traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
PAIR_SPANS = {f"pair_sidon.{stage}" for stage in (
    "construct_extremal_set", "build_path_decomposition", "path_alpha", "is_pair_multiplicative")}
# the components of [1000] for (2, 3, 5): q <= 1000 // 2**p divisible by none of 2, 3, 5
VISITED = sum(1 for p in range(10) for q in range(1, 1000 // 2**p + 1)
              if q % 2 and q % 3 and q % 5)


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)


def traced_run(tmp_path: Path, argv: tuple[str, ...]) -> tuple[bytes, dict]:
    """The stdout and trace of a traced run, which must print the untraced run's bytes."""
    out = tmp_path / "trace.json"
    traced = python(str(TRACED_CLI), str(out), "t/0", *argv)
    assert traced.stdout == python("-m", "multsidon.cli", *argv).stdout
    return traced.stdout, json.loads(out.read_text(encoding="ascii"))


@pytest.mark.parametrize(
    "argv, spans, counters",
    [
        (("pair-construct", "--a", "2", "--b", "3", "--n", "1000", "--verify"), PAIR_SPANS,
         {"pair_sidon.paths": 667}),  # the sources <= 1000 not divisible by 3
        (("empirical", "--a", "2", "--b", "3", "--c", "5", "--n", "1000"),
         {"oracle.empirical_density", "oracle.component_ids"},
         {"oracle.components_visited": VISITED}),
        (("triple-table", "--digits", "4"), {"density.convergence_estimate"}, {}),
    ],
)
def test_traced_run_prints_the_untraced_output_and_records_its_spans(
    tmp_path, argv, spans, counters
):
    _, trace = traced_run(tmp_path, argv)
    assert {"cli.main", *spans} <= {span["name"] for span in trace["spans"]}
    assert {name: trace["counters"].get(name) for name in counters} == counters


def test_traced_certified_run_counts_every_cell_up_to_its_cutoff(tmp_path):
    """The hooks of the certified-deep workload, whose cell count the benchmark checks."""
    stdout, trace = traced_run(
        tmp_path, ("triple-density", "--a", "2", "--b", "3", "--c", "5", "--eps", "1e-4"))
    assert {"cli.main", "components.f_table", "density.approximate_density",
            "density.choose_cutoff", "density.delta_small"} <= {
                span["name"] for span in trace["spans"]}
    d = json.loads(stdout)["d"]
    # the cells (x, y) with x + y <= p of every height p <= d
    assert trace["counters"]["components.cells"] == sum(
        (p + 1) * (p + 2) // 2 for p in range(d + 1))
    called = {name for name, hot in trace["hot"].items() if hot["calls"]}
    assert {"density.tail_bound", "rational.format_rational",
            "rational.truncated_decimal"} <= called
