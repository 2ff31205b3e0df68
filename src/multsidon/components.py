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
maximum independent set, which gives closed forms and fast truncated
independence numbers f(p, r) used by the density computation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

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


class Decomposition(NamedTuple):
    """m = a**(height - x - y) * b**x * c**y * multiplier."""

    height: int
    x: int
    y: int
    multiplier: int


def decompose(params: TripleParams, m: int) -> Decomposition:
    """Unique factorisation of m over the three bases.

    Extracts the maximal powers of a, b and c (well defined because the
    bases are pairwise coprime); the height is the total exponent and the
    multiplier is the remaining factor, divisible by none of the bases.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    exponents = []
    for base in (params.a, params.b, params.c):
        e = 0
        while m % base == 0:
            m //= base
            e += 1
        exponents.append(e)
    ea, x, y = exponents
    return Decomposition(height=ea + x + y, x=x, y=y, multiplier=m)


@dataclass(frozen=True, eq=False)
class GridComponent:
    """One component: coordinates (x, y), x + y <= height, with values."""

    params: TripleParams
    height: int
    multiplier: int
    values: dict[Coord, int]

    @property
    def min_value(self) -> int:
        return self.params.a**self.height * self.multiplier

    @property
    def max_value(self) -> int:
        return self.params.c**self.height * self.multiplier

    def cells_by_value(self) -> list[tuple[int, Coord]]:
        return sorted((v, xy) for xy, v in self.values.items())


def grid_component(params: TripleParams, height: int, multiplier: int = 1) -> GridComponent:
    """Materialise the component with the given height and multiplier."""
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    if not is_admissible(params, multiplier):
        raise ValueError(f"multiplier {multiplier} is divisible by one of the bases")
    values = {(x, y): v * multiplier for v, x, y in sorted_cells(params, height)}
    return GridComponent(params=params, height=height, multiplier=multiplier, values=values)


@dataclass(frozen=True, eq=False)
class TruncatedComponent:
    """A unit component restricted to values at most cap."""

    base: GridComponent
    cap: int
    active: tuple[Coord, ...]  # sorted by value


def truncate_component(base: GridComponent, cap: int) -> TruncatedComponent:
    """Restrict a multiplier-1 component to its vertices <= cap."""
    if base.multiplier != 1:
        raise ValueError("truncations are taken on the multiplier-1 component")
    active = tuple(xy for v, xy in base.cells_by_value() if v <= cap)
    return TruncatedComponent(base=base, cap=cap, active=active)


def check_staircase(active: set[Coord]) -> None:
    """Raise ValueError unless the cells are downward closed in the quarter grid."""
    for x, y in active:
        if x > 0 and (x - 1, y) not in active:
            raise ValueError(f"staircase property violated at ({x}, {y})")
        if y > 0 and (x, y - 1) not in active:
            raise ValueError(f"staircase property violated at ({x}, {y})")


def parity_alpha(truncated: TruncatedComponent) -> int:
    """Independence number of a truncated component via colour classes.

    Valid because the active region is downward closed (dividing a vertex
    by b/a or c/a gives a smaller vertex), so the larger of the two parity
    classes of x + y is a maximum independent set.  Raises if the region
    is not downward closed.
    """
    check_staircase(set(truncated.active))
    even = sum(1 for x, y in truncated.active if (x + y) % 2 == 0)
    return max(even, len(truncated.active) - even)


def alpha_complete(height: int) -> int:
    """Independence number of a full component of the given height."""
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    if height % 2:
        i = (height + 1) // 2
        return i * (i + 1)
    i = height // 2
    return (i + 1) ** 2


def sorted_cells(params: TripleParams, height: int) -> list[tuple[int, int, int]]:
    """Cells (value, x, y) of the unit component of the given height, by value."""
    pa, pb, pc = ([base**i for i in range(height + 1)] for base in (params.a, params.b, params.c))
    return sorted(
        [(pa[height - x - y] * pb[x] * pc[y], x, y)
         for x in range(height + 1) for y in range(height + 1 - x)]
    )


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


def render_component(component: GridComponent) -> str:
    """Plain-text dump of a component as rows of constant x + y."""
    lines = []
    for row in range(component.height + 1):
        entries = [
            str(component.values[(x, row - x)])
            for x in range(row, -1, -1)
            if (x, row - x) in component.values
        ]
        lines.append(f"row {row}: " + " ".join(entries))
    return "\n".join(lines)
