"""Tests of the benchmark's own logic.

Run from the root of the repository:  python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracing
from workloads import (
    WORKLOADS,
    CheckFailed,
    check_certified,
    components_visited,
    pair_cardinality,
    tail_bound,
    verify_output,
)

sys.path.insert(0, run.SRC)

from multsidon import density, oracle, pair_sidon  # noqa: E402
from multsidon.components import TripleParams  # noqa: E402


def _span(id_, name, start, end, parent=None, hot_ns=0):
    return {"id": id_, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "run": "r", "hot_ns": hot_ns}


def test_self_time_on_synthetic_tree():
    # cli.main [0, 100) holds density [10, 60) and pair_sidon [70, 90);
    # density holds components [20, 30) and [25, 40) (overlapping) and
    # 5 ns of summed hot calls.
    spans = [
        _span(0, "cli.main", 0, 100),
        _span(1, "density.delta_small", 10, 60, parent=0, hot_ns=5),
        _span(2, "components.f_table", 20, 30, parent=1),
        _span(3, "components.f_table", 25, 40, parent=1),
        _span(4, "pair_sidon.path_alpha", 70, 90, parent=0),
    ]
    self_ns = tracing.span_self_ns(spans)
    assert self_ns == {0: 100 - 50 - 20, 1: 50 - 20 - 5, 2: 10, 3: 15, 4: 20}
    trace = {"spans": spans, "hot": {"rational.format_rational": {"calls": 3, "ns": 5}}}
    assert tracing.layer_self_ns(trace) == {
        "cli": 30, "density": 25, "components": 25, "pair_sidon": 20, "rational": 5,
    }
    assert tracing.coverage(trace, {"density", "components"}, "cli.main") == 0.5


def _certified_report(eps: Fraction, width: Fraction) -> dict:
    a, b, c = 2, 3, 5
    d = next(d for d in range(200) if tail_bound(a, b, c, d) <= eps)
    lower = Fraction(1, 2)
    return {"mode": "certified", "a": a, "b": b, "c": c, "d": d,
            "lower": str(lower), "upper": str(lower + width),
            "tail_bound": str(tail_bound(a, b, c, d)),
            "delta_complete": "1/4", "delta_small": "1/4"}


def test_width_above_eps_is_a_failure():
    eps = Fraction(1, 1000)
    report = _certified_report(eps, width=eps * 2)
    with pytest.raises(CheckFailed, match="exceeds eps"):
        check_certified(2, 3, 5, eps, Fraction(report["lower"]), Fraction(report["upper"]),
                        report["d"])
    # Through the whole output check too, with the digest made to match.
    argv = ("triple-density", "--a", "2", "--b", "3", "--c", "5", "--eps", "1/1000")
    stdout = json.dumps(report).encode()
    golden = {" ".join(argv): hashlib.sha256(stdout).hexdigest()}
    with pytest.raises(CheckFailed, match="exceeds eps"):
        verify_output(WORKLOADS["certified-deep"], argv, stdout, golden)


def test_non_minimal_cutoff_is_a_failure():
    eps = Fraction(1, 1000)
    report = _certified_report(eps, width=Fraction(0))
    with pytest.raises(CheckFailed, match="not minimal"):
        check_certified(2, 3, 5, eps, Fraction(1, 2), Fraction(1, 2), report["d"] + 1)


def test_wrong_digest_is_a_failure():
    argv = WORKLOADS["empirical-scan"].pool[0]
    n = int(argv[-1])
    stdout = json.dumps({"n": n, "alpha": n // 2, "ratio": "1/2"}).encode()
    golden = {" ".join(argv): hashlib.sha256(b"other bytes").hexdigest()}
    with pytest.raises(CheckFailed, match="digest"):
        verify_output(WORKLOADS["empirical-scan"], argv, stdout, golden)


def test_failures_are_counted_and_do_not_stop_the_run():
    tally = run.Tally()

    def reject(child):
        raise CheckFailed("rejected")

    assert run.run_checked(tally, ["-c", "print(1)"], reject) is None
    assert run.run_checked(tally, ["-c", "raise SystemExit(3)"], lambda c: None) is None
    done = run.run_checked(tally, ["-c", "print(2)"], lambda c: c.stdout)
    assert done is not None and done[1] == b"2\n"
    assert tally.attempted == 3 and len(tally.failures) == 2


@pytest.mark.parametrize("triple", [(2, 3, 5), (3, 4, 7)])
@pytest.mark.parametrize("n", [1, 2, 17, 100, 999, 5000])
def test_components_visited_closed_form(triple, n):
    direct = sum(1 for _ in oracle.component_ids(TripleParams(*triple), n))
    assert components_visited(*triple, n) == direct


@pytest.mark.parametrize("triple", [(2, 3, 5), (3, 5, 7)])
def test_tail_bound_is_independent_and_exact(triple):
    a, b, c = triple
    k = Fraction((a - 1) * (b - 1) * (c - 1), a * b * c)
    for d in range(40):
        assert tail_bound(a, b, c, d) - tail_bound(a, b, c, d + 1) == k * Fraction(d * d, a**d)
        assert tail_bound(a, b, c, d) == density.tail_bound(TripleParams(a, b, c), d)


@pytest.mark.parametrize("pair", [(2, 3), (4, 6), (1, 3), (3, 5)])
def test_pair_cardinality_closed_form(pair):
    params = pair_sidon.reduce_pair(*pair)
    for n in (1, 2, 3, 10, 81, 1000):
        assert pair_cardinality(*pair, n) == pair_sidon.construct_extremal_set(params, n).cardinality


def test_benchmark_json_matches_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }


def test_golden_covers_every_pool_input():
    golden = run.load_golden()
    assert set(golden) == {" ".join(argv) for w in WORKLOADS.values() for argv in w.pool}


def test_traced_command_records_spans(tmp_path):
    out = tmp_path / "spans.json"
    argv = ["triple-density", "--a", "2", "--b", "3", "--c", "5", "--eps", "1/1000"]
    done = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "traced_cli.py"), str(out), "t/0", *argv],
        env=run._child_env(), capture_output=True, check=True,
    )
    untraced = subprocess.run([sys.executable, "-m", "multsidon.cli", *argv],
                              env=run._child_env(), capture_output=True, check=True)
    assert done.stdout == untraced.stdout
    trace = json.loads(out.read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"cli.main", "density.approximate_density", "density.choose_cutoff",
            "density.delta_small", "components.f_table"} <= names
    assert all(s["run"] == "t/0" for s in trace["spans"])
    d = json.loads(done.stdout)["d"]
    assert trace["counters"]["components.cells"] == sum(
        (p + 1) * (p + 2) // 2 for p in range(d + 1))
    assert trace["hot"]["density.tail_bound"]["calls"] > 0
