"""Workload pools, golden digests and output invariants for the benchmark.

Each workload is one multsidon CLI command with a small fixed pool of
inputs.  The inputs of one pool do the same work, so that the seed can pick
among them without moving the timings: every certified-deep input reaches
the cutoff d = 147 on (2,3,5), every table-converge input converges the
same ten triples to 12 digits, the empirical-scan inputs differ in n by
less than 0.2%, and every pair-construct pair reduces to (2,3).

Every output is checked twice from outside the program: its sha256 must
equal the committed golden digest for that input, and the invariants below
are recomputed from the parsed JSON with exact Fractions.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# The ten triples `triple-table` reports, in its row order.
TABLE_TRIPLES = (
    (2, 3, 5), (2, 3, 7), (2, 5, 7), (2, 5, 9), (2, 7, 9),
    (3, 4, 5), (3, 4, 7), (3, 5, 7), (3, 5, 8), (3, 7, 8),
)


class CheckFailed(Exception):
    """An output broke a digest or an invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _arg(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def tail_bound(a: int, b: int, c: int, d: int) -> Fraction:
    """K * sum_{p >= d} p^2 / a^p with K = (a-1)(b-1)(c-1)/(abc), exactly.

    Uses sum_{k>=0} (k+d)^2 x^k = x(1+x)/(1-x)^3 + 2dx/(1-x)^2 + d^2/(1-x)
    at x = 1/a, derived here independently of the program's closed form.
    """
    x = Fraction(1, a)
    series = x * (1 + x) / (1 - x) ** 3 + 2 * d * x / (1 - x) ** 2 + Fraction(d * d) / (1 - x)
    return Fraction((a - 1) * (b - 1) * (c - 1), a * b * c) * x**d * series


def _truncated(value: Fraction, digits: int) -> str:
    whole, rem = divmod(value.numerator, value.denominator)
    return f"{whole}.{rem * 10**digits // value.denominator:0{digits}d}"


def check_certified(a: int, b: int, c: int, eps: Fraction, lower: Fraction,
                    upper: Fraction, d: int) -> None:
    """lower <= upper, upper - lower <= eps, and d is the least sufficient cutoff."""
    where = f"({a},{b},{c}) eps={eps}"
    _require(lower <= upper, f"{where}: lower > upper")
    _require(upper - lower <= eps, f"{where}: width {upper - lower} exceeds eps")
    _require(d >= 0 and tail_bound(a, b, c, d) <= eps, f"{where}: tail_bound({d}) > eps")
    _require(d == 0 or tail_bound(a, b, c, d - 1) > eps, f"{where}: cutoff {d} is not minimal")


def check_triple_density(argv: tuple[str, ...], report: dict) -> None:
    a, b, c = (int(_arg(argv, f)) for f in ("--a", "--b", "--c"))
    # The requested eps, never the printed "eps" field.
    eps = Fraction(_arg(argv, "--eps"))
    _require(report["mode"] == "certified" and (report["a"], report["b"], report["c"]) == (a, b, c),
             "report does not echo the requested triple")
    lower, upper, tail, complete, small = (
        Fraction(report[k])
        for k in ("lower", "upper", "tail_bound", "delta_complete", "delta_small")
    )
    d = report["d"]
    check_certified(a, b, c, eps, lower, upper, d)
    _require(complete == Fraction((a - 1) * (b - 1) * c**3, a * b * (c - 1) ** 2 * (c + 1)),
             "delta_complete differs from the closed form")
    _require(tail == tail_bound(a, b, c, d), "printed tail_bound differs from tail_bound(d)")
    _require(lower == complete + small, "lower != delta_complete + delta_small")
    _require(upper == min(lower + tail, Fraction(1)), "upper != min(lower + tail, 1)")
    digits = report["decimal_digits"]
    _require(report["lower_decimal"] == _truncated(lower, digits), "lower_decimal is not lower")
    _require(report["upper_decimal"] == _truncated(upper, digits), "upper_decimal is not upper")


def check_triple_table(argv: tuple[str, ...], report: dict) -> None:
    eps = Fraction(_arg(argv, "--eps"))
    digits = int(_arg(argv, "--digits"))
    rows = report["rows"]
    _require(tuple((r["a"], r["b"], r["c"]) for r in rows) == TABLE_TRIPLES,
             "table rows are not the ten table triples")
    for r in rows:
        lower, upper = Fraction(r["lower"]), Fraction(r["upper"])
        check_certified(r["a"], r["b"], r["c"], eps, lower, upper, r["certified_d"])
        frac = r["estimate"].partition(".")[2]
        _require(len(frac) == digits and r["estimate_d"] >= 1,
                 f"({r['a']},{r['b']},{r['c']}): estimate is not {digits} digits")
        _require(Fraction(r["estimate"]) <= upper,
                 f"({r['a']},{r['b']},{r['c']}): estimate above the certified upper end")


def check_empirical(argv: tuple[str, ...], report: dict) -> None:
    n = int(_arg(argv, "--n"))
    ratio = Fraction(report["ratio"])
    _require(report["n"] == n, "report does not echo n")
    _require(ratio * n == report["alpha"], "alpha != ratio * n")
    _require(0 < report["alpha"] <= n, "alpha outside [1, n]")


def pair_cardinality(a: int, b: int, n: int) -> int:
    """|T_n| = sum over even i of floor(n/b^i) - floor(n/b^(i+1)), b reduced."""
    base = b // gcd(a, b)
    total, power = 0, 1
    while power <= n:
        total += n // power - n // (power * base)
        power *= base * base
    return total


def admissible_count(a: int, b: int, c: int, limit: int) -> int:
    """q <= limit divisible by none of a, b, c, by inclusion-exclusion."""
    return (limit - limit // a - limit // b - limit // c + limit // (a * b)
            + limit // (a * c) + limit // (b * c) - limit // (a * b * c))


def components_visited(a: int, b: int, c: int, n: int) -> int:
    """Closed form of the (height, multiplier) components meeting [n]."""
    total, power = 0, 1
    while power <= n:
        total += admissible_count(a, b, c, n // power)
        power *= a
    return total


def check_pair_construct(argv: tuple[str, ...], report: dict) -> None:
    a, b, n = (int(_arg(argv, f)) for f in ("--a", "--b", "--n"))
    members = report["members"]
    _require(report["verified"] is True, "set was not verified")
    _require(report["cardinality"] == len(members) == pair_cardinality(a, b, n),
             "cardinality differs from the closed form")
    _require(all(x < y for x, y in zip(members, members[1:])), "members not strictly increasing")
    _require(1 <= members[0] and members[-1] <= n, "members outside [1, n]")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: tuple[tuple[str, ...], ...]
    check: Callable[[tuple[str, ...], dict], None]


def _certified(eps: str) -> tuple[str, ...]:
    return ("triple-density", "--a", "2", "--b", "3", "--c", "5", "--eps", eps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certified-deep",
            "deep certified interval, d=147: O(d^3) cell enumeration and Fraction telescoping",
            tuple(_certified(e) for e in ("7e-41", "8e-41", "9e-41", "1e-40", "1.1e-40", "1.2e-40")),
            check_triple_density,
        ),
        Workload(
            "table-converge",
            "ten triples in converge mode: delta_small at every cutoff, per-height results reused",
            tuple(("triple-table", "--digits", "12", "--eps", e)
                  for e in ("1/20000", "1/25000", "1/30000", "1/40000")),
            check_triple_table,
        ),
        Workload(
            "empirical-scan",
            "O(n) oracle scan over 1.6M (height, multiplier) components; density layer idle",
            tuple(("empirical", "--a", "2", "--b", "3", "--c", "5", "--n", str(n))
                  for n in (3_000_000, 3_001_000, 3_002_000, 3_003_000, 3_004_000)),
            check_empirical,
        ),
        Workload(
            "pair-construct",
            "pair set for n=1e6 with --verify: pair_sidon layer, 8.9 MB of JSON, 256 MB peak",
            tuple(("pair-construct", "--a", str(a), "--b", str(b), "--n", "1000000", "--verify")
                  for a, b in ((2, 3), (4, 6), (6, 9), (8, 12))),
            check_pair_construct,
        ),
    )
}


def input_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def load_golden(path: str = GOLDEN_PATH) -> dict[str, str]:
    with open(path, encoding="ascii") as handle:
        return json.load(handle)


def verify_output(workload: Workload, argv: tuple[str, ...], stdout: bytes,
                  golden: dict[str, str]) -> dict:
    """Check one output against its golden digest and invariants; return the report."""
    expected = golden.get(input_key(argv))
    _require(expected is not None, f"no golden digest for {input_key(argv)!r}")
    _require(hashlib.sha256(stdout).hexdigest() == expected,
             f"stdout digest differs from golden for {input_key(argv)!r}")
    try:
        report = json.loads(stdout)
        workload.check(argv, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None
    return report
