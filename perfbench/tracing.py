"""Spans around the public calls of each multsidon layer, and their self times.

A span records a name, start, end, parent and run id.  Spans live in memory
and are written once, when the traced command ends.  Functions called
millions of times (`components.q_copy_alpha` in the empirical scan) or in
tight loops (`density.tail_bound`, the `rational` formatters) are not given
one span per call: their calls and time are summed per name instead, and
each call's time is charged to the span it ran in, so that span's self time
still excludes it.

The layer of a span is the part of its name before the first dot.  A
layer's self time is, over its spans, the span's duration minus the part of
it covered by child spans and by summed calls, plus the time of its summed
calls.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.hot: dict[str, list[int]] = {}  # name -> [calls, total ns]
        self.counters: dict[str, int] = {}
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "hot_ns": 0,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, func, rss_counter: str | None = None):
        """Give every call of func its own span; optionally track peak RSS after it."""

        @wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if rss_counter is not None:
                self.max_counter(rss_counter, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            return result

        return traced

    def wrap_hot(self, name: str, func):
        """Sum the calls and time of func under name, without one span per call."""
        totals = self.hot.setdefault(name, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(func)
        def traced(*args, **kwargs):
            start = clock()
            result = func(*args, **kwargs)
            elapsed = clock() - start
            totals[0] += 1
            totals[1] += elapsed
            if stack:
                stack[-1]["hot_ns"] += elapsed
            return result

        return traced

    def add_counter(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def max_counter(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "hot": {name: {"calls": c, "ns": ns} for name, (c, ns) in self.hot.items()},
            "counters": self.counters,
        }


def install(tracer: Tracer) -> None:
    """Wrap the names the CLI and the layers resolve at call time.

    `density.delta_small` first enumerates, in a `components.f_table` span,
    every height up to the cutoff that this process has not enumerated yet,
    then telescopes in its own span.  The split holds because
    `components._f_arrays` caches each height, so the telescoping finds the
    cells already sorted; it must be revisited when that cache goes.
    `oracle.empirical_density` likewise first drains `component_ids` once in
    its own span, to time the enumeration and count the components.
    """
    from multsidon import cli, components, density, oracle, pair_sidon

    enumerated: set = set()
    f_table = components.f_table
    delta_small = tracer.wrap("density.delta_small", density.delta_small)

    def traced_delta_small(params, cutoff):
        heights = [p for p in range(cutoff + 1) if (params, p) not in enumerated]
        if heights:
            with tracer.span("components.f_table"):
                for p in heights:
                    tracer.add_counter("components.cells", len(f_table(params, p)))
                    enumerated.add((params, p))
            tracer.max_counter("components.rss_kb",
                               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return delta_small(params, cutoff)

    component_ids = oracle.component_ids
    empirical_density = tracer.wrap("oracle.empirical_density", oracle.empirical_density)

    def traced_empirical_density(params, n, *args, **kwargs):
        with tracer.span("oracle.component_ids"):
            visited = sum(1 for _ in component_ids(params, n))
        tracer.add_counter("oracle.components_visited", visited)
        return empirical_density(params, n, *args, **kwargs)

    density.delta_small = traced_delta_small
    density.choose_cutoff = tracer.wrap("density.choose_cutoff", density.choose_cutoff)
    density.tail_bound = tracer.wrap_hot("density.tail_bound", density.tail_bound)
    cli.approximate_density = tracer.wrap("density.approximate_density",
                                          density.approximate_density)
    cli.convergence_estimate = tracer.wrap("density.convergence_estimate",
                                           density.convergence_estimate)
    cli.empirical_density = traced_empirical_density
    oracle.q_copy_alpha = tracer.wrap_hot("components.q_copy_alpha", oracle.q_copy_alpha)
    for module in (cli, density):
        for name in ("format_rational", "truncated_decimal"):
            if hasattr(module, name):
                setattr(module, name, tracer.wrap_hot(f"rational.{name}", getattr(module, name)))
    for name in ("construct_extremal_set", "build_path_decomposition", "path_alpha",
                 "is_pair_multiplicative"):
        setattr(pair_sidon, name, tracer.wrap(f"pair_sidon.{name}", getattr(pair_sidon, name),
                                              rss_counter="pair_sidon.rss_kb"))
    build_path_decomposition = pair_sidon.build_path_decomposition

    def counted_path_decomposition(params, n):
        decomposition = build_path_decomposition(params, n)
        tracer.add_counter("pair_sidon.paths", len(decomposition.paths))
        return decomposition

    pair_sidon.build_path_decomposition = counted_path_decomposition


def _covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_self_ns(spans: list[dict]) -> dict[int, int]:
    """Self time of every span: duration minus children and summed calls."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return {
        s["id"]: s["end_ns"] - s["start_ns"]
        - _covered(children.get(s["id"], []), s["start_ns"], s["end_ns"])
        - s["hot_ns"]
        for s in spans
    }


def layer_self_ns(trace: dict) -> dict[str, int]:
    """Self time per layer, from spans and summed hot calls."""
    totals: dict[str, int] = {}
    self_ns = span_self_ns(trace["spans"])
    for s in trace["spans"]:
        layer = layer_of(s["name"])
        totals[layer] = totals.get(layer, 0) + self_ns[s["id"]]
    for name, hot in trace["hot"].items():
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0) + hot["ns"]
    return totals


def total_ns(trace: dict, name: str) -> int:
    """Summed duration of the spans with this name."""
    return sum(s["end_ns"] - s["start_ns"] for s in trace["spans"] if s["name"] == name)


def count(trace: dict, name: str) -> int:
    return sum(1 for s in trace["spans"] if s["name"] == name)


def coverage(trace: dict, layers: set[str], root: str) -> float:
    """Share of the root span covered by spans of the given layers."""
    (top,) = (s for s in trace["spans"] if s["name"] == root)
    intervals = [(s["start_ns"], s["end_ns"]) for s in trace["spans"]
                 if layer_of(s["name"]) in layers]
    return _covered(intervals, top["start_ns"], top["end_ns"]) / (top["end_ns"] - top["start_ns"])
