#!/usr/bin/env python3
"""Benchmark of the multsidon command-line tool.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

One single-threaded parent process starts `python -m multsidon.cli ...` children one
at a time (a closed loop with one client).  Every timed repetition is a
fresh interpreter, so the per-height lru caches start cold, as they do for
a user of the CLI.  Each child is timed from outside, its stdout is drained
while it runs, and its output is checked against a golden digest and
recomputed invariants (see workloads.py).

With --trace 0 a run starts the workload's command, input drawn from its
pool by the seed, until --seconds have passed, and takes a set-up sample
(interpreter start plus `import multsidon.cli`, no command) before each,
at least 9 in all.  It prints the median, quartiles and sample count of
each end-to-end metric.

With --trace 1 a run traces one command of every workload (perfbench/
traced_cli.py), reports each per-layer metric from the workload that
exercises that layer, and times one untraced run of the chosen workload
to give the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output
checked out, 1 when any failed, and 2 when the checkout has no program.
A result file with the machine, every sample and every span goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracing
from workloads import WORKLOADS, CheckFailed, components_visited, load_golden, verify_output

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
SETUP_REPS = 9
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metric -> (unit, the workload whose traced run it is taken from).
PER_LAYER = {
    "cli.main_s": ("s", "pair-construct"),
    "cli.self_s": ("s", "pair-construct"),
    "cli.stdout_bytes": ("bytes", "pair-construct"),
    "density.delta_small_s": ("s", "certified-deep"),
    "density.choose_cutoff_s": ("s", "certified-deep"),
    "density.tail_bound_calls": ("count", "certified-deep"),
    "density.cutoff_d": ("count", "certified-deep"),
    "density.result_bits": ("bits", "certified-deep"),
    "density.delta_small_calls": ("count", "table-converge"),
    "density.convergence_estimate_s": ("s", "table-converge"),
    "components.f_table_s": ("s", "certified-deep"),
    "components.cells": ("count", "certified-deep"),
    "components.rss_mb": ("MB", "certified-deep"),
    "components.q_copy_alpha_s": ("s", "empirical-scan"),
    "components.q_copy_alpha_calls": ("count", "empirical-scan"),
    "oracle.empirical_density_s": ("s", "empirical-scan"),
    "oracle.component_ids_s": ("s", "empirical-scan"),
    "oracle.components_visited": ("count", "empirical-scan"),
    "oracle.ns_per_component": ("ns", "empirical-scan"),
    "pair_sidon.construct_extremal_set_s": ("s", "pair-construct"),
    "pair_sidon.build_path_decomposition_s": ("s", "pair-construct"),
    "pair_sidon.path_alpha_s": ("s", "pair-construct"),
    "pair_sidon.is_pair_multiplicative_s": ("s", "pair-construct"),
    "pair_sidon.members": ("count", "pair-construct"),
    "pair_sidon.paths": ("count", "pair-construct"),
    "pair_sidon.rss_mb": ("MB", "pair-construct"),
    "rational.format_s": ("s", "certified-deep"),
    "rational.calls": ("count", "certified-deep"),
    "trace.overhead_ratio": ("ratio", "the chosen workload"),
}


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Tally:
    """Invocations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str]) -> Child:
    """Run the interpreter with args, draining stdout and stderr as it runs.

    Wall time runs from the spawn to the reaped exit.  CPU time and peak RSS
    are the child's own, from os.wait4; RUSAGE_CHILDREN would keep the
    maximum over every earlier child.
    """
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *args], _child_env(),
        file_actions=[(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2)],
    )
    os.close(out_w)
    os.close(err_w)
    chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
    deadline = start + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as selector:
        for fd in chunks:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            if time.perf_counter() > deadline:
                os.kill(pid, signal.SIGKILL)
                deadline = float("inf")
            for key, _ in selector.select(timeout=1.0):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(out_r)
    os.close(err_r)
    return Child(
        code=os.waitstatus_to_exitcode(status),
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


def run_checked(tally: Tally, args: list[str], check) -> tuple[Child, object] | None:
    """Spawn one child and check it; count a failure instead of raising."""
    tally.attempted += 1
    child = spawn(args)
    try:
        if child.code != 0:
            stderr = child.stderr.decode(errors="replace")[-300:]
            raise CheckFailed(f"exit code {child.code}: {stderr}")
        return child, check(child)
    except CheckFailed as exc:
        tally.failures.append(f"{' '.join(args[:6])}: {exc}")
        return None


def _check_setup(child: Child) -> None:
    if child.stdout:
        raise CheckFailed("import printed to stdout")


def setup_once(tally: Tally, samples: list[float]) -> None:
    done = run_checked(tally, ["-c", "import multsidon.cli"], _check_setup)
    if done:
        samples.append(done[0].wall_s)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(name: str, seed: int, seconds: float, golden: dict, tally: Tally) -> dict:
    """Untraced run: the workload until `seconds` pass, with set-up samples between."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    setup_once(tally, [])  # writes the bytecode caches; not timed
    setup: list[float] = []
    samples = []
    laps: list[float] = []
    start = time.perf_counter()
    # Start another lap while it would end, by the median lap so far, no
    # later than half a lap past `seconds`: a run lasts `seconds` give or
    # take half a lap, however long one command takes.  Each lap also takes
    # one set-up sample, so set-up is measured under the same conditions as
    # the commands, across the whole run.
    while not laps or time.perf_counter() - start + statistics.median(laps) / 2 < seconds:
        lap_start = time.perf_counter()
        setup_once(tally, setup)
        argv = rng.choice(workload.pool)
        done = run_checked(tally, ["-m", "multsidon.cli", *argv],
                           lambda c: verify_output(workload, argv, c.stdout, golden))
        if done:
            child = done[0]
            samples.append({"input": " ".join(argv), "wall_s": child.wall_s,
                            "cpu_s": child.cpu_s, "peak_rss_mb": child.rss_mb})
        laps.append(time.perf_counter() - lap_start)
    for _ in range(SETUP_REPS - len(laps)):
        setup_once(tally, setup)
    stats = {key: summary([s[key] for s in samples])
             for key in ("wall_s", "cpu_s", "peak_rss_mb") if samples}
    if setup:
        stats["setup_s"] = summary(setup)
    return {"workload": name, "samples": samples, "setup_samples": setup, "metrics": stats}


@dataclass
class Traced:
    child: Child
    trace: dict
    report: dict


def run_traced(name: str, argv: tuple[str, ...], run_id: str, golden: dict,
               tally: Tally) -> Traced | None:
    os.makedirs(RESULTS, exist_ok=True)
    trace_path = os.path.join(RESULTS, f"spans-{os.getpid()}-{name}.json")
    done = run_checked(
        tally, [os.path.join(BENCH, "traced_cli.py"), trace_path, run_id, *argv],
        lambda c: verify_output(WORKLOADS[name], argv, c.stdout, golden),
    )
    if done is None:
        return None
    with open(trace_path, encoding="ascii") as handle:
        trace = json.load(handle)
    os.remove(trace_path)
    return Traced(done[0], trace, done[1])


def layer_metrics(traced: dict[str, Traced]) -> dict[str, float]:
    """Every per-layer metric except the overhead, each from its own workload."""
    deep, table, scan, pair = (traced[w] for w in
                               ("certified-deep", "table-converge", "empirical-scan",
                                "pair-construct"))

    def span_s(run: Traced, span: str) -> float:
        return tracing.total_ns(run.trace, span) / 1e9

    def hot(run: Traced, *names: str) -> tuple[int, float]:
        entries = [run.trace["hot"][n] for n in names]
        return sum(e["calls"] for e in entries), sum(e["ns"] for e in entries) / 1e9

    rational_calls, rational_s = hot(deep, "rational.format_rational",
                                     "rational.truncated_decimal")
    q_copy_calls, q_copy_s = hot(scan, "components.q_copy_alpha")
    visited = scan.trace["counters"]["oracle.components_visited"]
    metrics = {
        "cli.main_s": span_s(pair, "cli.main"),
        "cli.self_s": tracing.layer_self_ns(pair.trace)["cli"] / 1e9,
        "cli.stdout_bytes": len(pair.child.stdout),
        "density.delta_small_s": span_s(deep, "density.delta_small"),
        "density.choose_cutoff_s": span_s(deep, "density.choose_cutoff"),
        "density.tail_bound_calls": hot(deep, "density.tail_bound")[0],
        "density.cutoff_d": deep.report["d"],
        "density.result_bits": sum(int(part).bit_length()
                                   for part in deep.report["lower"].split("/")),
        "density.delta_small_calls": tracing.count(table.trace, "density.delta_small"),
        "density.convergence_estimate_s": span_s(table, "density.convergence_estimate"),
        "components.f_table_s": span_s(deep, "components.f_table"),
        "components.cells": deep.trace["counters"]["components.cells"],
        "components.rss_mb": deep.trace["counters"]["components.rss_kb"] / 1024,
        "components.q_copy_alpha_s": q_copy_s,
        "components.q_copy_alpha_calls": q_copy_calls,
        "oracle.empirical_density_s": span_s(scan, "oracle.empirical_density"),
        "oracle.component_ids_s": span_s(scan, "oracle.component_ids"),
        "oracle.components_visited": visited,
        "oracle.ns_per_component": span_s(scan, "oracle.empirical_density") * 1e9 / visited,
        "pair_sidon.members": pair.report["cardinality"],
        "pair_sidon.paths": pair.trace["counters"]["pair_sidon.paths"],
        "pair_sidon.rss_mb": pair.trace["counters"]["pair_sidon.rss_kb"] / 1024,
        "rational.format_s": rational_s,
        "rational.calls": rational_calls,
    }
    for stage in ("construct_extremal_set", "build_path_decomposition", "path_alpha",
                  "is_pair_multiplicative"):
        metrics[f"pair_sidon.{stage}_s"] = span_s(pair, f"pair_sidon.{stage}")
    return metrics


def _check_traced_counts(traced: dict[str, Traced], tally: Tally) -> None:
    """Cross-check the exact counts the traced runs report."""
    scan = traced.get("empirical-scan")
    if scan is not None:
        r = scan.report
        expected = components_visited(r["a"], r["b"], r["c"], r["n"])
        if scan.trace["counters"]["oracle.components_visited"] != expected:
            tally.failures.append(f"components_visited != closed form {expected}")
    deep = traced.get("certified-deep")
    if deep is not None:
        d = deep.report["d"]
        expected = sum((p + 1) * (p + 2) // 2 for p in range(d + 1))
        if deep.trace["counters"]["components.cells"] != expected:
            tally.failures.append(f"components.cells != closed form {expected}")


def trace_run(overhead_for: list[str], seed: int, golden: dict, tally: Tally) -> dict:
    """Trace one command of every workload; time the chosen ones untraced too."""
    inputs = {name: random.Random(f"{name}/{seed}/trace").choice(w.pool)
              for name, w in WORKLOADS.items()}
    untraced = {}
    for name in overhead_for:
        argv = inputs[name]
        done = run_checked(tally, ["-m", "multsidon.cli", *argv],
                           lambda c: verify_output(WORKLOADS[name], argv, c.stdout, golden))
        if done:
            untraced[name] = done[0].wall_s
    traced = {}
    for name, argv in inputs.items():
        result = run_traced(name, argv, f"{name}/{seed}", golden, tally)
        if result is not None:
            traced[name] = result
    _check_traced_counts(traced, tally)
    out = {"inputs": {k: " ".join(v) for k, v in inputs.items()},
           "untraced_wall_s": untraced,
           "traced_wall_s": {k: t.child.wall_s for k, t in traced.items()},
           "layer_self_s": {k: {layer: ns / 1e9 for layer, ns in
                                tracing.layer_self_ns(t.trace).items()}
                            for k, t in traced.items()},
           "traces": {k: t.trace for k, t in traced.items()}}
    if "certified-deep" in traced:
        out["deep_coverage_of_main"] = tracing.coverage(
            traced["certified-deep"].trace, {"density", "components"}, "cli.main")
    out["overhead_ratio"] = {name: traced[name].child.wall_s / wall
                             for name, wall in untraced.items() if name in traced}
    if len(traced) == len(WORKLOADS):
        out["metrics"] = layer_metrics(traced)
    return out


def machine_info() -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "platform": platform.platform(),
        "commit": None,
        "dirty": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = ["git", "-C", ROOT]
            info["commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                            text=True, timeout=30, check=True).stdout.strip()
            info["dirty"] = bool(subprocess.run(git + ["status", "--porcelain"],
                                                capture_output=True, text=True, timeout=30,
                                                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def _value(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "multsidon", "cli.py")):
        print(f"no multsidon sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tally = Tally()
    metrics: dict[str, dict] = {}
    result = {"machine": machine_info(), "args": vars(args)}

    if args.trace:
        traced = trace_run(names, args.seed, golden, tally)
        result["trace"] = traced
        print(f"trace run, seed {args.seed}; inputs: {json.dumps(traced['inputs'])}")
        for workload, layers in traced["layer_self_s"].items():
            shares = "  ".join(f"{layer} {s:.4f}" for layer, s in sorted(layers.items()))
            print(f"  self time (s) on {workload}: {shares}")
        if "deep_coverage_of_main" in traced:
            print(f"  density and components spans cover "
                  f"{traced['deep_coverage_of_main']:.4f} of cli.main on certified-deep")
        for key, value in traced.get("metrics", {}).items():
            unit, home = PER_LAYER[key]
            print(f"  {key} = {value} {unit}  (on {home})")
            metrics[key] = _value(value, unit)
        for name, ratio in traced["overhead_ratio"].items():
            print(f"  trace.overhead_ratio on {name}: {ratio:.4f} "
                  f"(traced {traced['traced_wall_s'][name]:.4f} s / "
                  f"untraced {traced['untraced_wall_s'][name]:.4f} s)")
            key = "trace.overhead_ratio" if len(names) == 1 else f"{name}.trace.overhead_ratio"
            metrics[key] = _value(ratio, "ratio")
    else:
        runs = result["runs"] = []
        for name in names:
            run = measure(name, args.seed, args.seconds, golden, tally)
            runs.append(run)
            print(f"{name}, seed {args.seed}, {args.seconds:g} s:")
            for key, stats in run["metrics"].items():
                print(f"  {key:<12} median {stats['median']:.4f} {END_TO_END[key]}  "
                      f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}")
                metric = key if len(names) == 1 else f"{name}.{key}"
                metrics[metric] = _value(stats["median"], END_TO_END[key])

    failed = len(tally.failures)
    print(f"error_rate {failed}/{tally.attempted} = {failed / max(tally.attempted, 1):.4f} "
          f"(failed/attempted invocations)")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    result.update(attempted=tally.attempted, failures=tally.failures)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as handle:
        json.dump(result, handle, indent=1)
    expected = (len(PER_LAYER) - 1 + len(names)) if args.trace else len(END_TO_END) * len(names)
    if len(metrics) < expected:
        print("too few successful runs to report every metric", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
