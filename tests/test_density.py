"""Density tests: closed forms against partial series, the two-walk kernel
against the per-height sign walk, a sort-and-divide numerator, Fraction
telescoping and literal double sums, and tail-bound soundness."""

import inspect
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multsidon import (
    TripleParams,
    approximate_density,
    choose_cutoff,
    convergence_estimate,
    delta_complete,
    delta_small,
    f_table,
    tail_bound,
)
from multsidon import density
from multsidon.components import admissible_density, alpha_complete
from multsidon.rational import truncated_decimal

from claims import (
    beta,
    coprime_triples,
    exact_tail_within_simplified,
    f_value,
    reference_convergence_estimate,
)

TABLE_TRIPLES = [
    (2, 3, 5), (2, 3, 7), (2, 5, 7), (2, 5, 9), (2, 7, 9),
    (3, 4, 5), (3, 4, 7), (3, 5, 7), (3, 5, 8), (3, 7, 8),
]

T235 = TripleParams(2, 3, 5)

SMALL_TRIPLES = [
    (a, b, c)
    for a in range(2, 6)
    for b in range(a + 1, 13)
    for c in range(b + 1, 14)
    if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1
]

KERNEL_TRIPLES = [
    (a, b, c)
    for a in range(2, 8)
    for b in range(a + 1, 19)
    for c in range(b + 1, 20)
    if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1
]


def complete_series_partial_sum(t: TripleParams, terms: int) -> Fraction:
    """Row-by-row series for the complete-component density, summed directly.

    Heights 2i-1 and 2i contribute i(i+1)/c**(2i-1) and (i+1)**2/c**(2i)
    admissible-weighted copies per unit length; the closed form is its limit.
    """
    c = t.c
    total = Fraction(0)
    for i in range(terms + 1):
        total += Fraction(i * (i + 1) * c, c ** (2 * i)) + Fraction(
            (i + 1) ** 2, c ** (2 * i)
        )
    return admissible_density(t) * total


def telescoped_delta_small(t: TripleParams, cutoff: int) -> Fraction:
    """Fraction telescoping over f_table: one add per breakpoint.

    f is constant between consecutive component values v_k < v_{k+1} and
    sum_{r=v_k}^{v_{k+1}-1} 1/(r(r+1)) = 1/v_k - 1/v_{k+1}, so the double
    sum collapses to one term per breakpoint.
    """
    total = Fraction(0)
    for p in range(cutoff + 1):
        table = f_table(t, p)
        for (value, plateau), (following, _) in zip(table, table[1:]):
            total += plateau * (Fraction(1, value) - Fraction(1, following))
    return admissible_density(t) * total


def sorted_cells_numerator(t: TripleParams, height: int) -> int:
    """N_p by sorting the cells of the height and dividing per rising plateau.

    (abc)^p / v for each value v that raises the larger parity class, less
    the last plateau times (abc)^p / c^p.
    """
    pa, pb, pc = ([base**i for i in range(height + 1)] for base in (t.a, t.b, t.c))
    cells = sorted(
        (pa[height - x - y] * pb[x] * pc[y], x, y)
        for x in range(height + 1) for y in range(height + 1 - x)
    )
    top = (t.a * t.b * t.c) ** height
    counts = [0, 0]
    best = total = 0
    for value, x, y in cells:
        parity = (x + y) % 2
        counts[parity] += 1
        if counts[parity] > best:
            best += 1
            total += top // value
    return total - best * (t.a * t.b) ** height


def sorted_cells_delta_small(t: TripleParams, cutoff: int) -> Fraction:
    """delta_small from the sort-and-divide numerators, by Horner's rule."""
    abc = t.a * t.b * t.c
    total = 0
    for p in range(cutoff + 1):
        total = total * abc + sorted_cells_numerator(t, p)
    return admissible_density(t) * Fraction(total, abc**cutoff)


def sign_walk_numerator(t: TripleParams, height: int) -> int:
    """N_p by one sign walk along the cells of the height sorted by value, O(p^2 log p).

    diff is #even - #odd so far, and a cell raises the plateau
    max(#even, #odd) exactly when it moves diff away from 0.  A rising cell
    adds (abc)^p / v = (a^x b^(p-x)) * (a^y c^(p-y)); the second factor is
    summed per x and multiplied by the first once.  f_last is
    alpha_complete(p).
    """
    pa, pb, pc = ([base**i for i in range(height + 1)] for base in (t.a, t.b, t.c))
    row = [pa[y] * pc[height - y] for y in range(height + 1)]
    by_x = [0] * (height + 1)
    diff = 0
    cells = sorted(
        (pa[height - x - y] * pb[x] * pc[y], x, y)
        for x in range(height + 1) for y in range(height + 1 - x)
    )
    for _, x, y in cells:
        if (x + y) & 1:
            diff -= 1
            if diff < 0:
                by_x[x] += row[y]
        else:
            diff += 1
            if diff > 0:
                by_x[x] += row[y]
    total = sum(pa[x] * pb[height - x] * by_x[x] for x in range(height + 1))
    return total - alpha_complete(height) * pa[height] * pb[height]


def kernel_numerators(t: TripleParams, height: int) -> list[int]:
    """N_0 .. N_height from the kernel's generator."""
    return list(islice(density._numerators(t), height + 1))


def naive_delta_small(t: TripleParams, cutoff: int) -> Fraction:
    """Literal double sum over every height and every truncation cap."""
    total = Fraction(0)
    for p in range(cutoff + 1):
        for r in range(t.a**p, t.c**p):
            total += Fraction(f_value(t, p, r), r * (r + 1))
    return admissible_density(t) * total


class TestBeta:
    def test_value(self):
        assert beta(T235) == Fraction(8, 15)

    @pytest.mark.parametrize("triple", TABLE_TRIPLES)
    def test_strictly_between_zero_and_one(self, triple):
        assert 0 < beta(TripleParams(*triple)) < 1


class TestDeltaComplete:
    def test_examples(self):
        assert delta_complete(T235) == Fraction(125, 288)
        assert delta_complete(TripleParams(2, 3, 7)) == Fraction(686, 1728)

    def test_series_identity_c5(self):
        # sum_i [i(i+1)/c^(2i-1) + (i+1)^2/c^(2i)] -> c^4/((c-1)^3 (c+1))
        partial = complete_series_partial_sum(T235, 20) / admissible_density(T235)
        assert abs(partial - Fraction(625, 384)) < Fraction(1, 5**35)

    @pytest.mark.parametrize("triple", TABLE_TRIPLES)
    def test_partial_sums_converge_to_closed_form(self, triple):
        t = TripleParams(*triple)
        assert abs(delta_complete(t) - complete_series_partial_sum(t, 20)) < Fraction(
            1, t.c**35
        )


class TestDeltaSmall:
    def test_cutoff_zero_is_empty(self):
        assert delta_small(T235, 0) == 0

    def test_cutoff_one(self):
        assert delta_small(T235, 1) == Fraction(2, 25)

    @pytest.mark.parametrize("triple", [(2, 3, 5), (3, 4, 5), (2, 7, 9)])
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 4])
    def test_telescoped_equals_naive(self, triple, cutoff):
        t = TripleParams(*triple)
        assert delta_small(t, cutoff) == naive_delta_small(t, cutoff)

    def test_non_decreasing_in_cutoff(self):
        values = [delta_small(T235, d) for d in range(12)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    @settings(max_examples=40, deadline=None)
    @given(triple=st.sampled_from(SMALL_TRIPLES), cutoff=st.integers(0, 30))
    def test_integer_kernel_equals_telescoping(self, triple, cutoff):
        t = TripleParams(*triple)
        assert delta_small(t, cutoff) == telescoped_delta_small(t, cutoff)

    def test_deep_cutoff_equals_telescoping(self):
        assert delta_small(T235, 60) == telescoped_delta_small(T235, 60)

    @settings(max_examples=60, deadline=None)
    @given(triple=st.sampled_from(SMALL_TRIPLES), cutoff=st.integers(0, 40))
    def test_equals_sorted_cells_numerator(self, triple, cutoff):
        t = TripleParams(*triple)
        assert delta_small(t, cutoff) == sorted_cells_delta_small(t, cutoff)

    def test_deep_cutoff_equals_sorted_cells_numerator(self):
        assert delta_small(T235, 147) == sorted_cells_delta_small(T235, 147)

    @pytest.mark.parametrize("triple", [(2, 3, 5), (3, 7, 8)])
    @pytest.mark.parametrize("request_order", ["rising", "falling"])
    def test_independent_of_request_order(self, triple, request_order):
        t = TripleParams(*triple)
        cutoffs = [0, 1, 2, 3, 7, 16, 25]
        cold = {d: delta_small(t, d) for d in cutoffs}
        for d in sorted(cutoffs, reverse=request_order == "falling"):
            assert delta_small(t, d) == cold[d], d


class TestTwoWalkKernel:
    @settings(max_examples=120, deadline=None)
    @given(triple=st.sampled_from(KERNEL_TRIPLES) | coprime_triples(), height=st.integers(0, 40))
    @example(triple=(5, 10**20 + 1, 10**20 + 3), height=40)
    @example(triple=(2, 3, 10**50 + 1), height=40)
    def test_equals_sign_walk(self, triple, height):
        t = TripleParams(*triple)
        assert kernel_numerators(t, height)[height] == sign_walk_numerator(t, height)

    def test_deep_heights_equal_sign_walk(self):
        numerators = kernel_numerators(T235, 147)
        assert all(numerators[p] == sign_walk_numerator(T235, p) for p in range(0, 148, 7))


def in_bottom(t: TripleParams, p: int, x: int, y: int) -> bool:
    """a * value < b^(p+1) for a cell; w < (b/a)^(p+1) for any point."""
    return t.b**x * t.c**y * t.a ** (p + 1) < t.b ** (p + 1) * t.a ** (x + y)


def in_top(t: TripleParams, p: int, x: int, j: int) -> bool:
    return t.c ** (x + j) * t.b ** (p + 1) <= t.c**p * t.a ** (j + 1) * t.b**x


def row_starts(t: TripleParams, height: int) -> tuple[list[int], list[int]]:
    """The kernel's bottom and top row starts after it yields N_height."""
    numerators = density._numerators(t)
    for _ in range(height + 1):
        next(numerators)
    state = inspect.getgeneratorlocals(numerators)
    return state["rows"], state["tops"]


class TestWalksAndRegions:
    TRIPLES = [(2, 3, 5), (3, 4, 5), (2, 7, 9), (3, 7, 8), (2, 5, 9), (5, 6, 7), (4, 9, 25)]
    HEIGHT = 30

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_top_walk_orders_by_integer_key(self, triple):
        """The bands in turn, each sorted by its term at its height, walk by key.

        A bottom band is sorted by descending term (abc)^p / value, a top band
        by ascending term a^(p-j) b^(p-x) c^(x+j).  Each walk must list the
        points that have entered by the height as one sort at that height does.
        """
        t = TripleParams(*triple)
        a, b, c = t.a, t.b, t.c

        def bottom_term(p, x, y):
            return a ** (x + y) * b ** (p - x) * c ** (p - y)

        def top_term(p, x, j):
            return a ** (p - j) * b ** (p - x) * c ** (x + j)

        height = self.HEIGHT
        rows, tops = row_starts(t, height)
        bottom, top = [], []
        for p in range(height + 1):
            band = [(p - start, y) for y, start in enumerate(rows) if start <= p]
            bottom += sorted(band, key=lambda q: bottom_term(p, *q), reverse=True)
            band = [(p - start, j) for j, start in enumerate(tops) if start <= p]
            top += sorted(band, key=lambda q: top_term(p, *q))
        assert bottom == sorted(bottom, key=lambda q: bottom_term(height, *q), reverse=True)
        assert top == sorted(top, key=lambda q: top_term(height, *q))

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_band_orders_are_a_fresh_sort_of_each_band(self, triple):
        """The kernel's bottom and top, one insertion per row and a factor ac per
        height, equal at every height its band sorted afresh by term, each
        entry with the parity of x + y (bottom) or of j (top)."""
        t = TripleParams(*triple)
        a, b, c = t.a, t.b, t.c
        numerators = density._numerators(t)
        for p in range(self.HEIGHT + 1):
            next(numerators)
            state = inspect.getgeneratorlocals(numerators)
            bottom = [(a ** (x + y) * b ** (p - x) * c ** (p - y), (x + y) & 1)
                      for y, x in enumerate(p - start for start in state["rows"])]
            top = [(a ** (p - j) * b ** (p - x) * c ** (x + j), j & 1)
                   for j, x in enumerate(p - start for start in state["tops"])]
            assert state["bottom"] == sorted(bottom), p
            assert state["top"] == sorted(top), p

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_each_cell_in_exactly_one_region(self, triple):
        t = TripleParams(*triple)
        for p in range(self.HEIGHT + 1):
            for x in range(p + 1):
                for y in range(p + 1 - x):
                    assert in_bottom(t, p, x, y) != in_top(t, p, x, p - x - y), (p, x, y)

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_regions_are_prefixes_of_their_walks(self, triple):
        """Point (x, y) enters the bottom at rows[y] + x, and (x, j) the top at tops[j] + x.

        By brute force over the points of the quarter plane with coordinates
        up to the height: each enters its region once and stays, as a cell of
        the height it enters at, and the row starts rise strictly.  So the
        region of height p is the bands up to p.
        """
        t = TripleParams(*triple)
        heights = range(self.HEIGHT + 1)
        for starts, inside in zip(row_starts(t, self.HEIGHT), (in_bottom, in_top)):
            assert all(r < s for r, s in zip(starts, starts[1:]))
            for row in heights:
                for x in heights:
                    entered = [p for p in heights if inside(t, p, x, row)]
                    if row < len(starts) and starts[row] + x <= self.HEIGHT:
                        entry = starts[row] + x
                        assert entered == list(range(entry, self.HEIGHT + 1)), (x, row)
                        assert x + row <= entry
                    else:
                        assert entered == [], (x, row)


class TestTailBound:
    def test_example_d22(self):
        assert tail_bound(T235, 22) == Fraction(177, 2621440)

    def test_d_zero_is_whole_series(self):
        t = T235
        a = t.a
        expected = admissible_density(t) * Fraction(a * (a + 1), (a - 1) ** 3)
        assert tail_bound(t, 0) == expected

    def test_strictly_decreasing_from_one(self):
        # the height-0 term of the series is zero, so d=0 and d=1 coincide
        assert tail_bound(T235, 0) == tail_bound(T235, 1)
        for d in range(1, 200):
            assert tail_bound(T235, d + 1) < tail_bound(T235, d)

    @pytest.mark.parametrize("triple", TABLE_TRIPLES)
    def test_simplified_bound_dominates_beyond_22(self, triple):
        t = TripleParams(*triple)
        assert all(exact_tail_within_simplified(t, d) for d in range(22, 201))

    def test_dominates_true_remainder(self):
        # tail(d) must bound the small-component mass it cuts off
        for triple in [(2, 3, 5), (3, 5, 8), (3, 7, 8)]:
            t = TripleParams(*triple)
            far = delta_small(t, 40)
            for d in range(0, 12):
                remainder = far - delta_small(t, d) + tail_bound(t, 40)
                assert tail_bound(t, d) >= remainder


class TestChooseCutoff:
    def test_examples(self):
        assert choose_cutoff(T235, Fraction(1, 10000)) == 22
        assert choose_cutoff(T235, Fraction(1, 2)) == 6

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("eps", ["1/1000", "1/100000", "3/7", "1/2"])
    @pytest.mark.parametrize("triple", [(2, 3, 5), (3, 7, 8)])
    def test_minimality(self, triple, eps, data):
        """choose_cutoff against a linear scan of the exact tail.

        Besides its fixed (triple, eps), each case draws a triple and an eps
        of one of three kinds: an exact tail value, so that eps sits on a
        boundary; a value in [tail(0), 1), where the answer is 0 although
        tail(0) == tail(1); and 10**-k.
        """
        drawn = TripleParams(*data.draw(st.sampled_from(SMALL_TRIPLES)))
        kind = data.draw(st.sampled_from(["boundary", "flat", "power"]))
        if kind == "boundary":
            drawn_eps = tail_bound(drawn, data.draw(st.integers(0, 150)))
        elif kind == "flat":
            top = tail_bound(drawn, 0)
            drawn_eps = top + (1 - top) * Fraction(data.draw(st.integers(0, 999)), 1000)
        else:
            drawn_eps = Fraction(1, 10 ** data.draw(st.integers(1, 150)))
        assume(drawn_eps < 1)
        for t, e in ((TripleParams(*triple), Fraction(eps)), (drawn, drawn_eps)):
            least = 0
            while tail_bound(t, least) > e:
                least += 1
            assert choose_cutoff(t, e) == least

    @pytest.mark.parametrize("eps", [0, 1, Fraction(3, 2), Fraction(-1, 5)])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            choose_cutoff(T235, Fraction(eps))


class TestApproximateDensity:
    def test_interval_shape(self):
        iv = approximate_density(T235, eps=Fraction(1, 20000))
        assert iv.lower == iv.delta_complete + iv.delta_small
        assert iv.upper == iv.lower + iv.tail_bound
        assert iv.upper - iv.lower <= Fraction(1, 20000)
        assert 0 < iv.lower <= iv.upper <= 1
        assert iv.lower >= iv.delta_complete

    def test_monotone_refinement(self):
        intervals = [approximate_density(T235, cutoff=d) for d in (5, 10, 15, 20)]
        for narrow, wide in zip(intervals[1:], intervals):
            assert narrow.lower >= wide.lower
            assert narrow.upper <= wide.upper

    @settings(max_examples=40, deadline=None)
    @given(
        triple=st.sampled_from(SMALL_TRIPLES),
        cutoff=st.integers(0, 30),
        step=st.integers(1, 10),
    )
    def test_intervals_nest(self, triple, cutoff, step):
        t = TripleParams(*triple)
        wide = approximate_density(t, cutoff=cutoff)
        narrow = approximate_density(t, cutoff=cutoff + step)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    def test_forced_cutoff_reports_achieved_width(self):
        iv = approximate_density(T235, cutoff=10)
        assert iv.cutoff == 10
        assert iv.epsilon == tail_bound(T235, 10)

    def test_upper_clamped_to_one(self):
        iv = approximate_density(TripleParams(3, 7, 8), cutoff=0)
        assert iv.upper == 1
        assert iv.lower <= 1

    def test_requires_eps_or_cutoff(self):
        with pytest.raises(ValueError):
            approximate_density(T235)

    @pytest.mark.parametrize("triple", TABLE_TRIPLES)
    def test_endpoints_proper(self, triple):
        iv = approximate_density(TripleParams(*triple), eps=Fraction(1, 20000))
        assert 0 < iv.lower <= iv.upper <= 1


class TestConvergenceEstimate:
    def test_table_examples(self):
        assert convergence_estimate(T235, 4).decimal == "0.7292"
        assert convergence_estimate(TripleParams(3, 7, 8), 4).decimal == "0.8727"
        assert convergence_estimate(TripleParams(2, 7, 9), 4).decimal == "0.8709"

    def test_estimate_sits_in_tight_interval(self):
        est = convergence_estimate(T235, 6)
        iv = approximate_density(T235, eps=Fraction(1, 10**8))
        assert iv.lower - Fraction(1, 10**6) <= est.value <= iv.upper

    @pytest.mark.parametrize("triple", [*TABLE_TRIPLES, (2, 3, 1000003)])
    def test_one_walk_equals_one_delta_small_per_cutoff(self, triple):
        t = TripleParams(*triple)
        for digits in range(1, 13):
            expected = reference_convergence_estimate(t, digits)
            assert convergence_estimate(t, digits) == expected, digits
            assert len(expected.decimal.partition(".")[2]) == digits

    @pytest.mark.parametrize("digits", [0, 13, -2])
    def test_rejects_bad_digits(self, digits):
        with pytest.raises(ValueError):
            convergence_estimate(T235, digits)

    # Converge mode stops once the truncated decimal survives STABLE_STEPS more
    # cutoffs, and on these six runs it stops on a digit that the certified
    # interval excludes: the printed decimal against the one both interval ends
    # share.  They pass once converge mode stops where the two ends agree.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="converge mode prints a digit the certified interval excludes")
    @pytest.mark.parametrize(
        "triple, digits, printed, certified",
        [
            ((2, 3, 5), 6, "0.729292", "0.729293"),
            ((2, 5, 13), 3, "0.814", "0.815"),
            ((2, 5, 13), 9, "0.815042734", "0.815042735"),
            ((2, 7, 9), 9, "0.870967741", "0.870967742"),
            ((2, 7, 9), 12, "0.870967742022", "0.870967742023"),
            ((2, 13, 15), 6, "0.927834", "0.927835"),
        ],
    )
    def test_printed_digits_are_certified(self, triple, digits, printed, certified):
        t = TripleParams(*triple)
        interval = approximate_density(t, eps=Fraction(1, 10 ** (digits + 4)))
        ends = {truncated_decimal(end, digits) for end in (interval.lower, interval.upper)}
        assert ends == {certified}, "the two ends must share the certified digits"
        estimate = convergence_estimate(t, digits).decimal
        assert estimate == certified, f"printed {estimate}, recorded {printed}"
