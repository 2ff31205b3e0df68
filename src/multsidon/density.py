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

N_p needs no sort and no division.  All heights share one cell order
(components.cell_order), so height p walks it up to its largest cell
(0, p), keeping the cells with x + y <= p, and finds the rising plateaus
by a sign walk on the small int #even - #odd.  Each term is a product
from the order's power tables.  N_p is cached per height, so a larger
cutoff computes only its new heights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .components import TripleParams, admissible_density, alpha_complete, cell_order
from .rational import truncated_decimal

MAX_CONVERGENCE_DIGITS = 12
# The sign walk visits every cell of every height up to the cutoff, O(cutoff**3)
# small-int steps: about 10.8M at 400.  triple-density --a 2 --b 3 --c 5 --d 400
# takes 2.5 s and peaks at 24 MB on a 2-core Xeon with Python 3.11.
MAX_CUTOFF = 400


def beta(params: TripleParams) -> Fraction:
    """The tail constant (b-1)(c-1)/(bc), strictly between 0 and 1."""
    return Fraction((params.b - 1) * (params.c - 1), params.b * params.c)


def delta_complete(params: TripleParams) -> Fraction:
    """Exact density contribution of the complete components."""
    a, b, c = params.a, params.b, params.c
    return Fraction((a - 1) * (b - 1) * c**3, a * b * (c - 1) ** 2 * (c + 1))


@lru_cache(maxsize=None)
def _height_numerator(params: TripleParams, height: int) -> int:
    """N_p: (abc)^p / v per rising plateau, less f_last * (abc)^p / c^p.

    Walks the shared cell order up to (0, p), the largest cell of height p
    (value c^p), skipping cells above the height.  diff is #even - #odd so
    far, and a cell raises the plateau max(#even, #odd) exactly when it
    moves diff away from 0.  A rising cell adds
    (abc)^p / v = (a^x b^(p-x)) * (a^y c^(p-y)); the second factor is
    summed per x and multiplied by the first once.  f_last is
    alpha_complete(p).
    """
    order = cell_order(params, height)
    pa, pb, pc = order.powers
    row = [pa[y] * pc[height - y] for y in range(height + 1)]
    by_x = [0] * (height + 1)
    diff = 0
    cells = order.cells
    if order.height > height:  # no cell of this height lies past (0, height)
        cells = islice(cells, cells.index((0, height)) + 1)
    for x, y in cells:
        s = x + y
        if s > height:
            continue
        if s & 1:
            diff -= 1
            if diff < 0:
                by_x[x] += row[y]
        else:
            diff += 1
            if diff > 0:
                by_x[x] += row[y]
    total = sum(pa[x] * pb[height - x] * by_x[x] for x in range(height + 1))
    return total - alpha_complete(height) * pa[height] * pb[height]


def delta_small(params: TripleParams, cutoff: int) -> Fraction:
    """Exact density contribution of incomplete components of height <= cutoff.

    The N_p are summed over the common denominator (abc)^cutoff in integers.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    abc = params.a * params.b * params.c
    total = 0
    for p in range(cutoff + 1):
        total = total * abc + _height_numerator(params, p)
    k = admissible_density(params)
    return Fraction(k.numerator * total, k.denominator * abc**cutoff)


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


def exact_tail_within_simplified(params: TripleParams, cutoff: int) -> bool:
    """Check tail_bound(d) <= beta * a**(-d/2) without leaving the rationals.

    Both sides are positive, so the inequality is equivalent to its square:
    tail(d)^2 * a^d <= beta^2.
    """
    t = tail_bound(params, cutoff)
    return t * t * params.a**cutoff <= beta(params) ** 2


def choose_cutoff(params: TripleParams, eps: Fraction) -> int:
    """Smallest cutoff whose tail bound is at most eps.

    The tail bound is non-increasing in the cutoff (tail(0) == tail(1),
    since the height-0 term is zero), so the cutoff is found exactly by
    doubling until the bound suffices and then bisecting.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")
    low, high = -1, 0  # tail(low) > eps >= tail(high) on exit; -1 means none tried
    while tail_bound(params, high) > eps:
        low, high = high, 2 * high + 1
    while high - low > 1:
        middle = (low + high) // 2
        if tail_bound(params, middle) > eps:
            low = middle
        else:
            high = middle
    return high


@dataclass(frozen=True)
class DensityInterval:
    """Certified enclosure [lower, upper] of the maximum density."""

    params: TripleParams
    epsilon: Fraction
    cutoff: int
    delta_complete: Fraction
    delta_small: Fraction
    tail_bound: Fraction
    lower: Fraction
    upper: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


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
    is always certified.  A cutoff, chosen or forced, above MAX_CUTOFF is
    refused before any enumeration.  The upper end is clamped to 1 since
    densities are proper.
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
    ds = delta_small(params, cutoff)
    lower = dc + ds
    upper = min(lower + tail, Fraction(1))
    return DensityInterval(
        params=params,
        epsilon=eps,
        cutoff=cutoff,
        delta_complete=dc,
        delta_small=ds,
        tail_bound=tail,
        lower=lower,
        upper=upper,
    )


class ConvergenceError(RuntimeError):
    """The truncated decimal did not stabilise within the cutoff limit."""


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Heuristic point estimate: lower endpoint stabilised to fixed decimals."""

    params: TripleParams
    digits: int
    cutoff: int
    value: Fraction
    decimal: str


def convergence_estimate(
    params: TripleParams, digits: int, stable_steps: int = 4
) -> ConvergenceEstimate:
    """Raise the cutoff until the printed decimal stops moving.

    Increments the cutoff and compares the truncated rendering of
    delta_complete + delta_small across consecutive cutoffs, reporting the
    value once it has survived `stable_steps` increments unchanged.  A
    single-step comparison stops too early when the limit sits just past a
    digit boundary; four steps reproduce the reference table at four
    digits.  This mode carries no certificate; use approximate_density for
    certified output.
    """
    if not 1 <= digits <= MAX_CONVERGENCE_DIGITS:
        raise ValueError(f"digits must be in [1, {MAX_CONVERGENCE_DIGITS}]")
    if stable_steps < 1:
        raise ValueError("stable_steps must be positive")
    dc = delta_complete(params)
    previous = truncated_decimal(dc, digits)
    value = dc
    streak = 0
    for d in range(1, MAX_CUTOFF + 1):
        value = dc + delta_small(params, d)
        current = truncated_decimal(value, digits)
        streak = streak + 1 if current == previous else 0
        if streak >= stable_steps:
            return ConvergenceEstimate(
                params=params, digits=digits, cutoff=d, value=value, decimal=current
            )
        previous = current
    raise ConvergenceError(
        f"({params.a}, {params.b}, {params.c}) at {digits} digits: "
        f"no stabilisation within cutoff {MAX_CUTOFF}"
    )
