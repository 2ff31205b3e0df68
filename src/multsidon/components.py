"""Grid components of the triple divisibility graph.

For pairwise coprime 1 < a < b < c, connect positive integers x and y
whenever bx = ay or cx = ay.  The resulting infinite graph splits into
finite components indexed by a height p >= 0 and a multiplier q divisible
by none of a, b, c: the component holds the integers

    a**(p - x - y) * b**x * c**y * q        for x, y >= 0, x + y <= p.

Mapping each vertex to its exponent pair (x, y) embeds the component as a
triangular staircase region of the grid graph, with edges exactly between
coordinates at Manhattan distance one.  On any downward-closed region of
the grid, one of the two chessboard colour classes (x + y even / odd) is a
maximum independent set.

A cell's value is a**p * (b/a)**x * (c/a)**y, so every height orders its
cells the same way.  The one enumeration of the triangle is the shared
cell order of each TripleParams (cell_order): all cells seen so far, by
value, grown one diagonal x + y = h at a time with integer arithmetic only.
sorted_cells is that order cut to a height and valued there.  Every
truncation to values <= r is a prefix of it and is downward closed,
because a step back in x or y divides the value by b/a or c/a
(tests/test_components.py checks this).  So the running size of the
larger parity class along the list is the truncated independence number
f(p, r) that f_table and f_value read.  The density kernel walks the same
order up the bottom of every height, and a CellOrder of (ab, ac, bc) down
its top.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

Coord = tuple[int, int]


@dataclass(frozen=True)
class TripleParams:
    """Pairwise coprime 1 < a < b < c."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if not 1 < self.a < self.b < self.c:
            raise ValueError(f"need 1 < a < b < c, got ({self.a}, {self.b}, {self.c})")
        for x, y in ((self.a, self.b), (self.a, self.c), (self.b, self.c)):
            if gcd(x, y) != 1:
                raise ValueError(f"{x} and {y} are not coprime")


def is_admissible(params: TripleParams, q: int) -> bool:
    """True iff q >= 1 is divisible by none of a, b, c (a valid multiplier)."""
    return q >= 1 and q % params.a != 0 and q % params.b != 0 and q % params.c != 0


def alpha_complete(height: int) -> int:
    """Independence number of a full component of the given height."""
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    if height % 2:
        i = (height + 1) // 2
        return i * (i + 1)
    i = height // 2
    return (i + 1) ** 2


class CellOrder:
    """The cells (x, y) with x + y <= height, by value at any height.

    The bases a < b < c need not be coprime, as long as no two cells share
    a value.  powers holds their powers up to the height.  extend adds the
    diagonals x + y = h one at a time and finds the index of each new cell
    without comparing it to the old ones.  The shifts (x, y) ->
    (x, y + 1) and (x, y) -> (x + 1, y) multiply every value by c/a and by
    b/a, so they keep the order.  Hence:

      * for x < h, the cells below (x, h - x) are the y-shifts of the cells
        below (x, h - 1 - x), plus the h + 1 cells of the row y = 0, since
        a**(h-i) * b**i <= b**h < b**x * c**(h-x).  Its index grows by h + 1;
      * the cells below (h, 0) are the x-shifts of the cells below
        (h - 1, 0), plus the cells (0, y) with c**y * a**(h-y) < b**h.  Their
        count never falls as h grows, so it is kept and advanced.
    """

    def __init__(self, bases: tuple[int, int, int]) -> None:
        self._bases = bases
        self.powers: tuple[list[int], list[int], list[int]] = ([1], [1], [1])
        self.cells: list[Coord] = [(0, 0)]
        self.height = 0
        self._diagonal = [0]  # index of (x, height - x) in cells, by x
        self._column = 0  # cells (0, y) below (height, 0)

    def extend(self, height: int) -> None:
        pa, pb, pc = self.powers
        while self.height < height:
            h = self.height = self.height + 1
            for powers, base in zip(self.powers, self._bases):
                powers.append(powers[-1] * base)
            while pc[self._column] * pa[h - self._column] < pb[h]:
                self._column += 1
            diagonal = [index + h + 1 for index in self._diagonal]
            diagonal.append(self._diagonal[-1] + self._column)
            # the new cells by value are (h, 0), (h - 1, 1), ..., (0, h)
            merged, start = [], 0
            for y in range(h + 1):
                stop = diagonal[h - y] - y  # old cells below (h - y, y)
                merged += self.cells[start:stop]
                merged.append((h - y, y))
                start = stop
            merged += self.cells[start:]
            self.cells, self._diagonal = merged, diagonal


@lru_cache(maxsize=None)
def _cell_order(params: TripleParams) -> CellOrder:
    return CellOrder((params.a, params.b, params.c))


def cell_order(params: TripleParams, height: int) -> CellOrder:
    """The shared cell order of params, extended to at least the given height."""
    order = _cell_order(params)
    order.extend(height)
    return order


def sorted_cells(params: TripleParams, height: int) -> list[tuple[int, int, int]]:
    """Cells (value, x, y) of the unit component of the given height, by value.

    The cells of the shared order with x + y <= height, valued at that
    height from its power tables.
    """
    order = cell_order(params, height)
    pa, pb, pc = order.powers
    return [(pa[height - x - y] * pb[x] * pc[y], x, y)
            for x, y in order.cells if x + y <= height]


@lru_cache(maxsize=None)
def _f_arrays(params: TripleParams, height: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted unit-component values and running best parity-class size."""
    values, plateaus = [], []
    counts = [0, 0]
    for value, x, y in sorted_cells(params, height):
        counts[(x + y) % 2] += 1
        values.append(value)
        plateaus.append(max(counts))
    return tuple(values), tuple(plateaus)


def f_table(params: TripleParams, height: int) -> tuple[tuple[int, int], ...]:
    """Step function r -> f(height, r) as (breakpoint, plateau) pairs.

    f(p, r) is the independence number of the unit component of height p
    truncated to values <= r.  It equals plateau f_k for r in
    [v_k, v_{k+1}), is 0 below a**p, and alpha_complete(p) from c**p on.
    """
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    values, plateaus = _f_arrays(params, height)
    return tuple(zip(values, plateaus))


def f_value(params: TripleParams, height: int, cap: int) -> int:
    """f(height, cap): truncated independence number by table lookup."""
    values, plateaus = _f_arrays(params, height)
    k = bisect_right(values, cap)
    return plateaus[k - 1] if k else 0


def cell_count(params: TripleParams, height: int, cap: int) -> int:
    """Cells of the unit component of the given height with value <= cap."""
    return bisect_right(_f_arrays(params, height)[0], cap)


def q_copy_alpha(params: TripleParams, height: int, multiplier: int, n: int) -> int:
    """Independence number within [n] of the (height, multiplier) component.

    The component truncated to [n] is the multiplier-scaled copy of the
    unit component truncated to floor(n / multiplier).
    """
    if not is_admissible(params, multiplier):
        raise ValueError(f"multiplier {multiplier} is divisible by one of the bases")
    if params.a**height * multiplier > n:
        raise ValueError("component does not intersect [n]")
    return f_value(params, height, n // multiplier)


def admissible_count(params: TripleParams, limit: int) -> int:
    """Exact count of q <= limit divisible by none of a, b, c."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    a, b, c = params.a, params.b, params.c
    return (
        limit
        - limit // a - limit // b - limit // c
        + limit // (a * b) + limit // (a * c) + limit // (b * c)
        - limit // (a * b * c)
    )


def admissible_density(params: TripleParams) -> Fraction:
    """Natural density of the admissible multipliers: (a-1)(b-1)(c-1)/(abc)."""
    a, b, c = params.a, params.b, params.c
    return Fraction((a - 1) * (b - 1) * (c - 1), a * b * c)


@dataclass(frozen=True)
class ComponentId:
    """A component (height, multiplier) classified relative to n and a cutoff."""

    height: int
    multiplier: int
    kind: str  # 'complete', 'small' or 'large'


def classify_component(
    params: TripleParams, height: int, multiplier: int, n: int, cutoff: int
) -> ComponentId:
    """Label a component intersecting [n] as complete, small or large.

    Complete components lie entirely inside [n]; incomplete ones are small
    or large according to whether their height exceeds the cutoff.
    """
    if params.a**height * multiplier > n:
        raise ValueError("component does not intersect [n]")
    if params.c**height * multiplier <= n:
        kind = "complete"
    elif height <= cutoff:
        kind = "small"
    else:
        kind = "large"
    return ComponentId(height=height, multiplier=multiplier, kind=kind)
