"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.

Criterion 1 reads the reference table as truncated to 4 digits, and compares
its one transposed entry, (3,4,5), against a recorded erratum that the test
itself checks against the v_3-even density and the pair bound.  Criterion 8
contains a clause that no correct program can satisfy: the exact empirical
ratio oscillates around the limit at the 1e-5 scale.  It is asserted
faithfully at its stated tolerances and left red; the failure message carries
the measured numbers, and the README summarises the independent-oracle
evidence.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from multsidon import (
    TripleParams,
    VerificationError,
    approximate_density,
    build_path_decomposition,
    choose_cutoff,
    construct_extremal_set,
    delta_complete,
    delta_small,
    empirical_density,
    is_pair_multiplicative,
    path_alpha,
    reduce_pair,
    tail_bound,
)
from multsidon.cli import main
from multsidon.components import admissible_density
from multsidon.oracle import general_multiplicative_witness

from claims import (
    exact_tail_within_simplified,
    extremal_members,
    f_value,
    finite_graph_report,
    floor_log,
    random_staircase,
    staircase_lemma_check,
)

TABLE = {
    (2, 3, 5): Fraction("0.7292"),
    (2, 3, 7): Fraction("0.7407"),
    (2, 5, 7): Fraction("0.8235"),
    (2, 5, 9): Fraction("0.8187"),
    (2, 7, 9): Fraction("0.8709"),
    (3, 4, 5): Fraction("0.7093"),
    (3, 4, 7): Fraction("0.7934"),
    (3, 5, 7): Fraction("0.8239"),
    (3, 5, 8): Fraction("0.8212"),
    (3, 7, 8): Fraction("0.8727"),
}

# The printed (3,4,5) entry 0.7093 is impossible.  {x : v_3(x) even} is
# admissible for (3,4,5) and has density a/(a+1) = 3/4, and an admissible set
# is in particular {3,4}-multiplicative, whose density the pair theorem caps
# at b/(b+1) = 4/5.  Of the six single swaps of two digits of 7093, only 7903
# lies in [3/4, 4/5]; criterion 1 re-derives all of this below.
ERRATA = {
    (3, 4, 5): Fraction("0.7903"),
}


def digit_transpositions(value: Fraction) -> set[Fraction]:
    """Every value that swapping two of the 4 decimal digits of `value` gives."""
    digits = f"{int(value * 10**4):04d}"
    swapped = set()
    for i in range(4):
        for j in range(i + 1, 4):
            chars = list(digits)
            chars[i], chars[j] = chars[j], chars[i]
            swapped.add(Fraction(int("".join(chars)), 10**4))
    return swapped


def report(number: int, failures: list[str], detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} {status} - {detail}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def run_cli_json(*argv: str) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0, f"CLI exited {code} for {argv}"
    return json.loads(buffer.getvalue())


def test_criterion_1_table_reproduction():
    """Converged estimates within 1e-3 of the table; each certified interval
    meets the truncation window [t, t + 1e-4) of its table value t, the
    table's digits being truncated, not rounded.  The (3,4,5) row is compared
    against its erratum, whose departure from the printed value is checked."""
    t0 = time.time()
    failures = []
    for (a, b, c), corrected in ERRATA.items():
        printed = TABLE[(a, b, c)]
        floor, cap = Fraction(a, a + 1), Fraction(b, b + 1)
        if printed >= floor:
            failures.append(
                f"({a},{b},{c}): printed {float(printed):.4f} is not below the "
                f"v_{a}-even density {float(floor):.4f}"
            )
        plausible = {v for v in digit_transpositions(printed) if floor <= v <= cap}
        if plausible != {corrected}:
            failures.append(
                f"({a},{b},{c}): transpositions of {float(printed):.4f} inside "
                f"[{float(floor):.4f}, {float(cap):.4f}] are "
                f"{sorted(f'{float(v):.4f}' for v in plausible)}, not only "
                f"the erratum {float(corrected):.4f}"
            )
    for (a, b, c), printed in TABLE.items():
        table_value = ERRATA.get((a, b, c), printed)
        converge = run_cli_json(
            "triple-density", "--a", str(a), "--b", str(b), "--c", str(c),
            "--mode", "converge", "--digits", "4",
        )
        estimate = Fraction(converge["decimal"])
        if abs(estimate - table_value) > Fraction(1, 1000):
            failures.append(
                f"({a},{b},{c}): converged {converge['decimal']} vs table "
                f"{float(table_value):.4f}, off by {float(abs(estimate - table_value)):.2e}"
            )
        certified = run_cli_json(
            "triple-density", "--a", str(a), "--b", str(b), "--c", str(c),
            "--eps", "5e-5",
        )
        lower = Fraction(certified["lower"])
        upper = Fraction(certified["upper"])
        window_end = table_value + Fraction(1, 10000)
        if upper < table_value or lower >= window_end:
            failures.append(
                f"({a},{b},{c}): certified [{float(lower):.7f}, {float(upper):.7f}] "
                f"misses truncation window [{float(table_value):.4f}, "
                f"{float(window_end):.4f})"
            )
    report(1, failures, f"table rows via CLI, both modes ({time.time() - t0:.1f}s)")


def test_criterion_2_complete_closed_form():
    """Closed form vs series partial sum to i=20, exact comparison at 1e-20."""
    failures = []
    for triple in TABLE:
        t = TripleParams(*triple)
        c = t.c
        partial = admissible_density(t) * sum(
            (
                Fraction(i * (i + 1) * c, c ** (2 * i))
                + Fraction((i + 1) ** 2, c ** (2 * i))
                for i in range(21)
            ),
            Fraction(0),
        )
        gap = abs(delta_complete(t) - partial)
        if gap >= Fraction(1, 10**20):
            failures.append(f"{triple}: series gap {float(gap):.2e}")
    report(2, failures, "closed form equals series tail-sum to 1e-20, all triples")


def test_criterion_3_pair_exactness():
    """|T_n| equals the path optimum for every n <= 2000, the sets satisfy
    the defining condition, and the density gap at n = 10**6 is bracketed."""
    t0 = time.time()
    failures = []
    pairs = [(1, 2), (2, 3), (2, 4), (3, 5), (4, 6)]
    for a, b in pairs:
        p = reduce_pair(a, b)
        for n in range(1, 2001):
            constructed = construct_extremal_set(p, n).cardinality
            optimum = path_alpha(build_path_decomposition(p, n))
            if constructed != optimum:
                failures.append(f"({a},{b}) n={n}: {constructed} != {optimum}")
                break
        # one violation inside T_2000 would also be a violation in T_n below it
        extremal = construct_extremal_set(p, 2000)
        if not is_pair_multiplicative(extremal, p):
            failures.append(f"({a},{b}): T_2000 violates the condition")
        if general_multiplicative_witness(extremal_members(extremal), [a], [b]) is not None:
            failures.append(f"({a},{b}): the witness search finds a violation in T_2000")
        n = 10**6
        cardinality = construct_extremal_set(p, n).cardinality
        target = Fraction(b, b + p.g)
        gap = abs(Fraction(cardinality, n) - target)
        allowed = Fraction(floor_log(p.b_red, n) + 3, n)
        if gap > allowed:
            failures.append(f"({a},{b}) n=1e6: gap {float(gap):.2e} > {float(allowed):.2e}")
    report(3, failures, f"5 pairs, n<=2000 exact + n=1e6 bracket ({time.time() - t0:.1f}s)")


def test_criterion_4_staircase_lemma():
    """500 seeded random staircases of at most 24 cells."""
    rng = random.Random(31415926)
    failures = []
    for index in range(500):
        cells = random_staircase(rng, 24)
        if not staircase_lemma_check(cells):
            failures.append(f"staircase #{index}: {sorted(cells)}")
    report(4, failures, "max parity class = exhaustive optimum on 500 staircases")


def test_criterion_5_oracle_triangulation():
    """Parity alphas equal matching alphas on every component at n = 5000."""
    t0 = time.time()
    failures = []
    n = 5000
    for triple in [(2, 3, 5), (2, 3, 7), (3, 4, 5)]:
        t = TripleParams(*triple)
        try:
            rep = finite_graph_report(t, n, cutoff=choose_cutoff(t, Fraction(1, 100)),
                                      verify=True)
        except VerificationError as exc:
            failures.append(f"{triple}: {exc}")
            continue
        via_parity = rep.total_alpha
        via_ratio = empirical_density(t, n, verify=True) * n
        if via_parity != via_ratio:
            failures.append(f"{triple}: totals differ {via_parity} vs {via_ratio}")
        if sum(s.vertex_count for s in rep.components) != n:
            failures.append(f"{triple}: vertex counts do not partition [n]")
    report(5, failures, f"3 triples at n=5000, per-component and total ({time.time() - t0:.1f}s)")


def test_criterion_6_telescoping():
    """Step-function telescoping equals the literal double sum, exactly."""
    failures = []
    for triple in TABLE:
        t = TripleParams(*triple)
        for d in range(5):
            literal = admissible_density(t) * sum(
                (
                    Fraction(f_value(t, p, r), r * (r + 1))
                    for p in range(d + 1)
                    for r in range(t.a**p, t.c**p)
                ),
                Fraction(0),
            )
            if delta_small(t, d) != literal:
                failures.append(f"{triple} d={d}")
    report(6, failures, "telescoped = literal double sum, all triples, d <= 4")


def test_criterion_7_tail_soundness():
    """Tail strictly decreasing, dominated by the simplified bound on
    [22, 200], and widths within eps for chosen cutoffs."""
    failures = []
    for triple in TABLE:
        t = TripleParams(*triple)
        for d in range(22, 200):
            if not tail_bound(t, d + 1) < tail_bound(t, d):
                failures.append(f"{triple}: tail not strictly decreasing at d={d}")
                break
        if not all(exact_tail_within_simplified(t, d) for d in range(22, 201)):
            failures.append(f"{triple}: simplified bound violated on [22, 200]")
        for eps in (Fraction(1, 10**3), Fraction(1, 10**4), Fraction(1, 10**5)):
            interval = approximate_density(t, eps=eps)
            if interval.upper - interval.lower > eps:
                failures.append(f"{triple}: width {interval.upper - interval.lower} > eps {eps}")
    report(7, failures, "monotone tails, simplified-bound domination, width <= eps")


def test_criterion_8_empirical_convergence():
    """Empirical ratio near the table at n=1e5; distance to the certified
    interval non-increasing over n in {1e3, 1e4, 1e5}."""
    t0 = time.time()
    failures = []
    t = TripleParams(2, 3, 5)
    ratios = {n: empirical_density(t, n, verify=False) for n in (10**3, 10**4, 10**5)}
    if abs(ratios[10**5] - Fraction("0.7292")) >= Fraction(1, 100):
        failures.append(f"n=1e5 ratio {float(ratios[10**5]):.5f} not within 0.01 of 0.7292")
    interval = approximate_density(t, eps=Fraction(1, 20000))
    distances = [
        max(Fraction(0), interval.lower - ratios[n], ratios[n] - interval.upper)
        for n in (10**3, 10**4, 10**5)
    ]
    if not all(x >= y for x, y in zip(distances, distances[1:])):
        failures.append(
            "interval distances not non-increasing: "
            + ", ".join(f"{float(d):.3e}" for d in distances)
        )
    report(8, failures, f"(2,3,5) ratios at 1e3/1e4/1e5 ({time.time() - t0:.1f}s)")
