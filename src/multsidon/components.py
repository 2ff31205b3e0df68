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

A cell's value is a**p * (b/a)**x * (c/a)**y, so a step back in x or y
divides it by b/a or c/a.  Hence every truncation to values <= r is
downward closed, and sorted_cells reads it row by row up to the cap r,
each row cut at its first value above r.  In value order the running
size of the larger parity class (plateaus) is the truncated independence
number f(p, r) of f_table and f_value.  The density kernel reads row bands instead.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

Coord = tuple[int, int]


class TripleParams(namedtuple("TripleParams", "a b c")):
    """Pairwise coprime 1 < a < b < c."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> TripleParams:
        if not 1 < a < b < c:
            raise ValueError(f"need 1 < a < b < c, got ({a}, {b}, {c})")
        for x, y in ((a, b), (a, c), (b, c)):
            if gcd(x, y) != 1:
                raise ValueError(f"{x} and {y} are not coprime")
        return super().__new__(cls, a, b, c)


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


def sorted_cells(params: TripleParams, height: int, limit: int) -> list[tuple[int, int, int]]:
    """Cells (value, x, y) of the unit component of the given height up to limit, by value."""
    a, b, c = params.a, params.b, params.c
    cells, start = [], a**height  # start is the value of cell (x, 0)
    for x in range(height + 1):
        if start > limit:
            break
        value = start
        for y in range(height + 1 - x):
            cells.append((value, x, y))
            value = value // a * c  # a divides every value with x + y < height
            if value > limit:
                break
        start = start // a * b
    cells.sort()
    return cells


def f_table(
    params: TripleParams, height: int, limit: int | None = None
) -> tuple[tuple[int, int], ...]:
    """Step function r -> f(height, r) as (breakpoint, plateau) pairs.

    f(p, r) is the independence number of the unit component of height p
    truncated to values <= r.  It equals plateau f_k for r in
    [v_k, v_{k+1}), is 0 below a**p, and alpha_complete(p) from c**p on.
    The table holds the breakpoints <= limit, every one when limit is None.
    """
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    return plateaus(sorted_cells(params, height, params.c**height if limit is None else limit))


def plateaus(cells: list[tuple[int, int, int]]) -> tuple[tuple[int, int], ...]:
    """(value, the size of the larger parity class of x + y so far) at each cell (value, x, y)."""
    counts, table = [0, 0], []
    for value, x, y in cells:
        counts[(x + y) % 2] += 1
        table.append((value, max(counts)))
    return tuple(table)


def f_value(params: TripleParams, height: int, cap: int) -> int:
    """f(height, cap): the last plateau of f_table up to cap, 0 below a**height."""
    table = f_table(params, height, cap)
    return table[-1][1] if table else 0


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
