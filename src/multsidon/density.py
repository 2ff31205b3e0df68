"""Certified approximation of the maximum triple-case density.

The maximum density of a set avoiding ax = by and ax = cy splits over the
component types of the divisibility graph relative to a height cutoff d:

  * complete components contribute the closed form
        delta_C = (a-1)(b-1)c^3 / (a b (c-1)^2 (c+1)),
  * incomplete components of height p <= d contribute the exact sum
        delta_S(d) = K * sum_p sum_r f(p, r) / (r (r+1)),
    with K = (a-1)(b-1)(c-1)/(abc) and r running over [a^p, c^p - 1],
  * incomplete components of height p > d contribute at most
        tail(d) = K * sum_{p >= d} p^2 / a^p,
    which has the exact closed form used here and shrinks geometrically.

So [delta_C + delta_S(d), delta_C + delta_S(d) + tail(d)] is a certified
enclosure of the true density, of width tail(d) <= eps once d is large
enough.  delta_S(d) is one integer sum: with cell values v_0 < v_1 < ...
of height p and f_k the plateau of f(p, .) on [v_k, v_{k+1}), telescoping
1/(r(r+1)) and summing by parts give sum_k f_k (1/v_k - 1/v_{k+1}) =
(sum of 1/v_k over rising plateaus, f_k = f_{k-1} + 1) - f_last / c^p.
Each 1/v_k = a^(x+y) b^(p-x) c^(p-y) / (abc)^p, so height p adds one integer
numerator N_p, and delta_S(d) = K * sum_p N_p (abc)^(d-p) / (abc)^d is
accumulated by Horner's rule into a single Fraction.

N_p needs no division and no sort: all heights up to d cost O(d^2)
multiplications by ac and one bisect per started row.  Along
cells of rising value let diff = #even - #odd, by the parity of x + y,
over the cells passed so far; f rises at a cell iff the cell moves diff
away from 0, i.e. iff diff before it is 0 or has the cell's sign (+1 for
x + y even).  Cut the height-p triangle at the value b^(p+1)/a into two
regions, each read in row bands.  A region holds the points (x, r) of the
quarter plane whose key k, free of p, lies below a threshold t_p (strictly
or not) that grows by a factor s > 1 per height, where k(x, r) =
s^x k(0, r) and k(0, r+1) > s k(0, r).  So a point enters at the least
such p and stays, x heights after (0, r); the row starts rise strictly, so
band p, the points entering at p, is (p - start[r], r), one per started
row.  Its keys lie between t_(p-1) and t_p, above every earlier entrant:
the bands in turn, each sorted, walk the plane by key, and the region of
height p is that walk up to band p.  As k(x, r) = s^x k(0, r), two rows'
keys in band p differ by the factor s^(start[r'] - start[r]) k(0, r)/k(0, r'),
which does not depend on p: a region keeps its started rows in one band
order, a list of (term, parity) that a row enters once, by bisect at its
start height, and a row's term in band p + 1 is ac times that in band p.

Bottom: a * value < b^(p+1), i.e. w = (b/a)^x (c/a)^y < (b/a)^(p+1), with
s = b/a < c/a.  Row y starts at the least p with c^y a^(p+1-y) < b^(p+1),
and w(0, y) >= (b/a)^y gives rows[y] >= y, so band p holds cells of
height p.  The diff before a bottom cell is the same at every height, and
the cell rises at p iff it rises in the walk.  A rising cell adds
a^(x+y) b^(p-x) c^(p-y) = (abc)^p / value, by which a band is sorted
downward, and its term grows by bc per height:
    B_(p+1) = bc B_p + the terms of the rising cells of band p + 1.

Top: the other cells, c^(x+j) b^(p+1) <= c^p a^(j+1) b^x with
j = p - x - y, i.e. key (c/b)^x (c/a)^j <= (c/b)^p a/b, with s = c/b < c/a;
the value a^j b^x c^(p-x-j) falls as the key rises.  Row j starts at the
least p with c^j b^(p+1) <= c^p a^(j+1); for j >= 1, (c/a)^j b/a > (c/b)^j
gives tops[j] > j, so band p holds cells of height p.  A band is sorted by
the term a^(p-j) b^(p-x) c^(x+j) = (ab)^p key, and the cells above a top
cell are the points before it in the walk.  Let u = #(j even) - #(j odd)
over them.  Over the whole triangle #even - #odd is (-1)^p (floor(p/2) + 1),
and x + y is even iff j = p mod 2, so the diff below the cell is
(-1)^p (floor(p/2) + 1 - u - (-1)^j) and its sign is (-1)^(p+j).  The cell
rises iff their product is >= 0: for even j iff p >= 2u, for odd j iff
p <= 2u - 3.  Its term grows by ab per height:
    T_(p+1) = ab T_p + the cells that start to rise at p + 1
              - the odd-j cells whose last rising height is p.

Every cell of the triangle lies in exactly one region, so
    N_p = B_p + T_p - alpha_complete(p) (ab)^p.
The generator _numerators yields N_0, N_1, ... and keeps its row starts,
band orders, walk counters, sums and pending top events in locals, so no
state outlives a call; converge mode folds one generator for every cutoff.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections import defaultdict, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice
from math import lcm

from . import ConvergenceError
from .components import TripleParams, admissible_density, alpha_complete
from .rational import truncated_decimal

MAX_CONVERGENCE_DIGITS = 12
# A single-step comparison stops too early when the limit sits just past a
# digit boundary; four steps reproduce the reference table at four digits.
STABLE_STEPS = 4
# The kernel multiplies O(cutoff**2) terms by ac: --d 500 takes 0.12 s on (2,3,5)
# and 0.2 s on (2,3,1000003) in a fresh process, on a 2-core Xeon with Python
# 3.11.  500 keeps the same inputs accepted; _check_printable bounds the digits.
MAX_CUTOFF = 500


def delta_complete(params: TripleParams) -> Fraction:
    """Exact density contribution of the complete components."""
    a, b, c = params.a, params.b, params.c
    return Fraction((a - 1) * (b - 1) * c**3, a * b * (c - 1) ** 2 * (c + 1))


def _numerators(params: TripleParams) -> Iterator[int]:
    """Yield N_0, N_1, ... of params, one height per step.

    rows and tops hold the heights at which the bottom and top rows start,
    bottom and top their band orders, and events, per height, the signed
    terms, grown by ab per height, of the top cells that start or stop rising.
    """
    a, b, c = params.a, params.b, params.c
    ab, ac = a * b, a * c
    rows: list[int] = []
    tops: list[int] = []
    bottom: list[tuple[int, int]] = []  # (term, (x + y) & 1) per started row, by rising term
    top: list[tuple[int, int]] = []  # (term, j & 1) per started row, by rising term
    events: defaultdict[int, int] = defaultdict(int)  # height -> signed terms grown to it
    diff = bottom_sum = u = top_sum = 0
    for p in count():
        bottom = [(term * ac, odd ^ 1) for term, odd in bottom]  # band p from band p - 1
        top = [(term * ac, odd) for term, odd in top]
        y = len(rows)
        if c**y * a ** (p + 1 - y) < b ** (p + 1):
            rows.append(p)
            insort(bottom, (a**y * b**p * c ** (p - y), y & 1))  # x = 0
        bottom_sum *= b * c
        for term, odd in reversed(bottom):  # ascending value is descending term
            sign = 1 - 2 * odd  # +1 for even x + y
            diff += sign
            if diff * sign > 0:
                bottom_sum += term
        j = len(tops)
        if c**j * b ** (p + 1) <= c**p * a ** (j + 1):
            tops.append(p)
            insort(top, (a ** (p - j) * b**p * c**j, j & 1))  # x = 0
        top_sum = top_sum * ab + events.pop(p, 0)
        for term, odd in top:
            if odd:  # rises while p <= 2u - 3
                if p <= 2 * u - 3:
                    top_sum += term
                    events[2 * u - 2] -= term * ab ** (2 * u - 2 - p)
                u -= 1
            else:  # rises once p >= 2u
                if p >= 2 * u:
                    top_sum += term
                else:
                    events[2 * u] += term * ab ** (2 * u - p)
                u += 1
        yield bottom_sum + top_sum - alpha_complete(p) * ab**p


def delta_small(params: TripleParams, cutoff: int) -> Fraction:
    """Exact density contribution of incomplete components of height <= cutoff.

    The N_p are summed over the common denominator (abc)^cutoff in integers:
    O(cutoff**2) big-int products per call, and nothing is kept between calls.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    abc = params.a * params.b * params.c
    total = 0
    for numerator in islice(_numerators(params), cutoff + 1):
        total = total * abc + numerator
    k = admissible_density(params)
    return Fraction(k.numerator * total, k.denominator * abc**cutoff)


def _check_printable(params: TripleParams, cutoff: int, *known: Fraction) -> None:
    """Refuse a cutoff whose exact rationals could not be printed, before the kernel runs.

    They are delta_small (denominator dividing K's times (abc)**cutoff), the
    known ones and sums of these; all but the known lie in [0, 1].
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    abc = params.a * params.b * params.c
    denominator = lcm(admissible_density(params).denominator * abc**cutoff,
                      *(value.denominator for value in known))
    bits = max(denominator.bit_length(), *(value.numerator.bit_length() for value in known))
    digits = bits * 30103 // 100000 + 1
    if limit and digits > limit:
        raise ValueError(f"cutoff {cutoff} needs rationals of up to {digits} digits, "
                         f"over the limit of {limit} digits on printing an int")


def tail_bound(params: TripleParams, cutoff: int) -> Fraction:
    """Upper bound on the density contribution of heights above the cutoff.

    Exact value of K * sum_{p >= cutoff} p^2 / a^p; valid for every
    cutoff >= 0 because a height-p component truncated below its top
    vertex has independence number at most p^2.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    a, d = params.a, cutoff
    poly = (a - 1) ** 2 * d * d + 2 * (a - 1) * d + a + 1
    return admissible_density(params) * Fraction(poly * a, a**d * (a - 1) ** 3)


def choose_cutoff(params: TripleParams, eps: Fraction) -> int:
    """Smallest cutoff whose tail bound is at most eps.

    The tail bound is non-increasing in the cutoff (tail(0) == tail(1),
    since the height-0 term is zero), so doubling high = 0, 1, 3, 7, ...
    until it suffices, then bisect_left above the last refused high finds it.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")
    high = 0
    while tail_bound(params, high) > eps:
        high = 2 * high + 1
    return bisect_left(range(high), True, (high + 1) // 2,
                       key=lambda d: tail_bound(params, d) <= eps)


class DensityInterval(namedtuple("DensityInterval", "epsilon cutoff delta_complete "
                                                  "delta_small tail_bound lower upper")):
    """Certified enclosure [lower, upper] of the maximum density."""

    __slots__ = ()


def approximate_density(
    params: TripleParams,
    eps: Fraction | None = None,
    cutoff: int | None = None,
) -> DensityInterval:
    """Enclose the maximum density to within eps (or at a forced cutoff).

    Given only eps, the cheapest sufficient cutoff is chosen and the
    interval width is at most eps; given only a cutoff, the achieved tail
    bound is reported as the precision.  Given both, eps must lie in (0, 1)
    and be at least the tail bound at the cutoff, so the reported precision
    is always certified.  A cutoff, chosen or forced, above MAX_CUTOFF or
    with unprintable rationals is refused before any enumeration.  The
    upper end is clamped to 1 since densities are proper.
    """
    if cutoff is None:
        if eps is None:
            raise ValueError("either eps or cutoff is required")
        cutoff = choose_cutoff(params, Fraction(eps))
    if not 0 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} is outside [0, {MAX_CUTOFF}], the limit on its work")
    tail = tail_bound(params, cutoff)
    if eps is None:
        eps = tail
    else:
        eps = Fraction(eps)
        if not (0 < eps < 1 and tail <= eps):
            raise ValueError(
                f"eps {eps} is not certified at cutoff {cutoff}: need 0 < eps < 1 "
                f"and eps >= tail_bound {tail}"
            )
    dc = delta_complete(params)
    _check_printable(params, cutoff, eps, dc, tail)
    ds = delta_small(params, cutoff)
    lower = dc + ds
    upper = min(lower + tail, Fraction(1))
    return DensityInterval(
        epsilon=eps,
        cutoff=cutoff,
        delta_complete=dc,
        delta_small=ds,
        tail_bound=tail,
        lower=lower,
        upper=upper,
    )


class ConvergenceEstimate(namedtuple("ConvergenceEstimate", "cutoff value decimal")):
    """Heuristic point estimate: lower endpoint stable when truncated to the asked digits."""

    __slots__ = ()


def convergence_estimate(params: TripleParams, digits: int) -> ConvergenceEstimate:
    """Raise the cutoff until the printed decimal stops moving.

    Increments the cutoff and compares the truncated rendering of
    delta_complete + delta_small across consecutive cutoffs, reporting the
    value once it has survived STABLE_STEPS increments unchanged; one
    _numerators walk adds height d only once _check_printable accepts d.
    This mode carries no certificate; use approximate_density for certified
    output.
    """
    if not 1 <= digits <= MAX_CONVERGENCE_DIGITS:
        raise ValueError(f"digits must be in [1, {MAX_CONVERGENCE_DIGITS}]")
    dc = delta_complete(params)
    previous = truncated_decimal(dc, digits)
    streak = 0
    k = admissible_density(params)
    abc = params.a * params.b * params.c
    numerators = _numerators(params)
    total = next(numerators)
    for d in range(1, MAX_CUTOFF + 1):
        _check_printable(params, d, dc)
        total = total * abc + next(numerators)  # as in delta_small(params, d)
        value = dc + Fraction(k.numerator * total, k.denominator * abc**d)
        current = truncated_decimal(value, digits)
        streak = streak + 1 if current == previous else 0
        if streak >= STABLE_STEPS:
            return ConvergenceEstimate(cutoff=d, value=value, decimal=current)
        previous = current
    raise ConvergenceError(
        f"({params.a}, {params.b}, {params.c}) at {digits} digits: "
        f"no stabilisation within cutoff {MAX_CUTOFF}"
    )
