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

N_p needs no sort, no division and no walk per height: all heights up to d
together cost O(d^2) big-int additions.  Divided by a^p, the value of cell
(x, y) is w = (b/a)^x (c/a)^y, which does not depend on p.  Along cells of
rising value let diff = #even - #odd, by the parity of x + y, over the
cells passed so far; f rises at a cell iff the cell moves diff away from 0,
i.e. iff diff before it is 0 or has the cell's sign (+1 for x + y even).
Cut the height-p triangle at the value b^(p+1)/a into two regions.

Bottom: a * value < b^(p+1), i.e. b^x c^y a^(p+1-x-y) < b^(p+1), i.e.
w < (b/a)^(p+1).  Since c > b, w >= (b/a)^(x+y), so every point of the
quarter plane below that bound has x + y <= p and is a cell of height p.
The bottom region is therefore a prefix of the one infinite walk of the
quarter plane by w (components.cell_order), the diff before each of its
cells is the same at every height, and a bottom cell rises at p iff it
rises in that walk.  A cell enters the region at the least p with
(b/a)^(p+1) > w and stays in it; w grows along the walk, so the entry
heights do not decrease.  A rising cell adds a^(x+y) b^(p-x) c^(p-y) from
its entry on, which grows by bc per height:
    B_(p+1) = bc B_p + the terms of the rising cells entering at p + 1.

Top: the other cells, c^(x+j) b^(p+1) <= c^p a^(j+1) b^x with
j = p - x - y.  The value is a^j b^x c^(p-x-j), so descending value is
ascending key (c/b)^x (c/a)^j, again free of p: the infinite walk of
CellOrder over the bases (ab, ac, bc) in the points (x, j), whose values
are distinct because a, b, c are coprime.  The top test reads
key * b/a <= (c/b)^p; a point enters at the least such p and stays
(c/b > 1), so the entry heights do not decrease along this walk either.
Every point before a top cell in the walk is a cell of height p: a point
with x + j = p + k, k >= 1, has y = -k and w <= (b/a)^(p+k) (a/c)^k
< (b/a)^p, below every top cell.  So the cells above a top cell are the
points before it.  Let u = #(j even) - #(j odd) over them.  Over the whole
triangle #even - #odd is (-1)^p (floor(p/2) + 1), and x + y is even iff
j = p mod 2, so the diff below the cell is
(-1)^p (floor(p/2) + 1 - u - (-1)^j) and the cell's sign is (-1)^(p+j).
The cell rises iff their product is >= 0: for even j iff p >= 2u, for odd
j iff p <= 2u - 3.  Its term a^(p-j) b^(p-x) c^(x+j) grows by ab per height:
    T_(p+1) = ab T_p + the cells that start to rise at p + 1
              - the odd-j cells whose last rising height is p.

Every cell of the triangle lies in exactly one region, so
    N_p = B_p + T_p - alpha_complete(p) (ab)^p.
Each cell enters once and stops rising at most once.  The kernel of each
TripleParams keeps a pointer into each walk, both sums and every finished
N_p, so a larger cutoff computes only its new heights.  Growing the walks
keeps the pointers valid: the cells added for heights above d have
x + y > d, so w >= (b/a)^(d+1) (resp. x + j > d, so key >= (c/b)^(d+1)),
and they land past every cell that enters at or below d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .components import CellOrder, TripleParams, admissible_density, alpha_complete, cell_order
from .rational import truncated_decimal

MAX_CONVERGENCE_DIGITS = 12
# A single-step comparison stops too early when the limit sits just past a
# digit boundary; four steps reproduce the reference table at four digits.
STABLE_STEPS = 4
# The kernel makes O(cutoff**2) big-int additions, but CellOrder.extend copies
# each walk's whole order once per diagonal, O(cutoff**3) list copying, and takes
# about three quarters of the time.  triple-density --a 2 --b 3 --c 5 --d 500
# takes 1.8 s and peaks at 40 MB on a 2-core Xeon with Python 3.11; 550 takes
# 2.1-2.4 s, too close to the 2.5 s budget, and 600 takes 2.9 s.
MAX_CUTOFF = 500


def delta_complete(params: TripleParams) -> Fraction:
    """Exact density contribution of the complete components."""
    a, b, c = params.a, params.b, params.c
    return Fraction((a - 1) * (b - 1) * c**3, a * b * (c - 1) ** 2 * (c + 1))


class _Kernel:
    """N_p of every height up to the largest cutoff asked, for one params.

    The bottom walk is the shared cell order of params; the top walk is
    the cell order of (ab, ac, bc) over the points (x, j).  Each keeps a
    pointer to its first cell that has not yet entered its region, and the
    parity count before it.  A top cell whose rising range starts or ends
    above the height it enters at is filed in events under that height,
    with the sign its term takes there.
    """

    def __init__(self, params: TripleParams) -> None:
        a, b, c = params.a, params.b, params.c
        self._params = params
        self._top = CellOrder((a * b, a * c, b * c))
        self.numerators: list[int] = []
        self._bottom_next = self._bottom_diff = self._bottom_sum = 0
        self._top_next = self._top_diff = self._top_sum = 0
        self._events: dict[int, list[tuple[int, int, int]]] = {}  # height -> (x, j, +-1)

    def extend(self, cutoff: int) -> None:
        if cutoff < len(self.numerators):
            return
        a, b, c = self._params.a, self._params.b, self._params.c
        order = cell_order(self._params, cutoff)
        self._top.extend(cutoff)
        bottom, top, (pa, pb, pc) = order.cells, self._top.cells, order.powers
        i, diff, bottom_sum = self._bottom_next, self._bottom_diff, self._bottom_sum
        k, u, top_sum = self._top_next, self._top_diff, self._top_sum
        events = self._events
        for p in range(len(self.numerators), cutoff + 1):
            bottom_sum *= b * c
            limit = pb[p] * b  # a cell is in the bottom region iff a * value < b**(p+1)
            while i < len(bottom):
                x, y = bottom[i]
                s = x + y
                if s > p or pa[p - s] * pb[x] * pc[y] * a >= limit:
                    break
                i += 1
                sign = 1 - 2 * (s & 1)  # +1 for even x + y
                diff += sign
                if diff * sign > 0:
                    bottom_sum += pa[s] * pb[p - x] * pc[p - y]
            top_sum *= a * b
            for x, j, sign in events.pop(p, ()):
                top_sum += sign * pa[p - j] * pb[p - x] * pc[x + j]
            scale = pc[p] * a  # top region iff c**(x+j) * b**(p+1) <= c**p * a**(j+1) * b**x
            while k < len(top):
                x, j = top[k]
                if pc[x + j] * pb[p] * b > scale * pa[j] * pb[x]:
                    break
                k += 1
                if j & 1:  # rises while p <= 2u - 3
                    if p <= 2 * u - 3:
                        top_sum += pa[p - j] * pb[p - x] * pc[x + j]
                        events.setdefault(2 * u - 2, []).append((x, j, -1))
                    u -= 1
                else:  # rises once p >= 2u
                    if p >= 2 * u:
                        top_sum += pa[p - j] * pb[p - x] * pc[x + j]
                    else:
                        events.setdefault(2 * u, []).append((x, j, 1))
                    u += 1
            self.numerators.append(bottom_sum + top_sum - alpha_complete(p) * pa[p] * pb[p])
        self._bottom_next, self._bottom_diff, self._bottom_sum = i, diff, bottom_sum
        self._top_next, self._top_diff, self._top_sum = k, u, top_sum


@lru_cache(maxsize=None)
def _kernel(params: TripleParams) -> _Kernel:
    return _Kernel(params)


def delta_small(params: TripleParams, cutoff: int) -> Fraction:
    """Exact density contribution of incomplete components of height <= cutoff.

    The N_p are summed over the common denominator (abc)^cutoff in integers.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    kernel = _kernel(params)
    kernel.extend(cutoff)
    abc = params.a * params.b * params.c
    total = 0
    for numerator in kernel.numerators[:cutoff + 1]:
        total = total * abc + numerator
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


def convergence_estimate(params: TripleParams, digits: int) -> ConvergenceEstimate:
    """Raise the cutoff until the printed decimal stops moving.

    Increments the cutoff and compares the truncated rendering of
    delta_complete + delta_small across consecutive cutoffs, reporting the
    value once it has survived STABLE_STEPS increments unchanged.  This
    mode carries no certificate; use approximate_density for certified
    output.
    """
    if not 1 <= digits <= MAX_CONVERGENCE_DIGITS:
        raise ValueError(f"digits must be in [1, {MAX_CONVERGENCE_DIGITS}]")
    dc = delta_complete(params)
    previous = truncated_decimal(dc, digits)
    value = dc
    streak = 0
    for d in range(1, MAX_CUTOFF + 1):
        value = dc + delta_small(params, d)
        current = truncated_decimal(value, digits)
        streak = streak + 1 if current == previous else 0
        if streak >= STABLE_STEPS:
            return ConvergenceEstimate(
                params=params, digits=digits, cutoff=d, value=value, decimal=current
            )
        previous = current
    raise ConvergenceError(
        f"({params.a}, {params.b}, {params.c}) at {digits} digits: "
        f"no stabilisation within cutoff {MAX_CUTOFF}"
    )
