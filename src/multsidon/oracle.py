"""Independent verification of the component computations, and alpha(G_n).

The verifier avoids the parity shortcut: each truncated component's maximum
independent set is recomputed by Koenig duality, as its cell count minus a
maximum matching.  empirical_density reads the cells <= n of each height
once, in value order, and sums alpha(G_n) over their rising values, one
admissible_count per rise.  A verified run also feeds those cells to one
incremental matcher per height, which solves every prefix, checks each
against its parity plateau, then walks the components of [n], each a
prefix of its height's cells, and checks the per-component total against
that sum.  general_multiplicative_witness checks the {A,B} condition on
any finite set of positive integers, the pair condition {a},{b} included.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import zip_longest

from . import VerificationError, components
from .components import (
    Coord,
    TripleParams,
    admissible_count,
    is_admissible,
    plateaus,
    sorted_cells,
)

# Not called here, but perfbench/tracing.py wraps oracle.q_copy_alpha.
q_copy_alpha = components.q_copy_alpha


def component_ids(params: TripleParams, n: int) -> Iterator[tuple[int, int]]:
    """All (height, multiplier) pairs whose component intersects [n]."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    power = 1  # a**height
    height = 0
    while power <= n:
        for q in range(1, n // power + 1):
            if is_admissible(params, q):
                yield height, q
        power *= params.a
        height += 1


def _augment(root: int, adjacent: list[list[int]], mate: list[int]) -> bool:
    """Find an augmenting path from the unmatched root by BFS and flip it."""
    reached_from = {}  # far-side vertex -> the near-side vertex that reached it
    queue = [root]
    for u in queue:
        for v in adjacent[u]:
            if v in reached_from:
                continue
            reached_from[v] = u
            if mate[v] != -1:
                queue.append(mate[v])
                continue
            while v != -1:  # flip the path back to the root, which had no mate
                u = reached_from[v]
                mate[v], mate[u], v = u, v, mate[u]
            return True
    return False


def _matched_alphas(cells: Iterable[tuple[int, int, int]]) -> list[int]:
    """k - |M_k| for every prefix of the cells (value, x, y), M_k a maximum matching.

    Cells join one at a time, adjacent to the cells one grid step away that
    joined before.  A new vertex raises a maximum matching by at most one,
    and an augmenting path must end at it, so one breadth-first search from
    it suffices.  Grid steps change the parity of x + y, so the graph is
    bipartite and the search needs no blossoms; by Koenig duality k - |M_k|
    is the independence number of the first k cells.
    """
    index: dict[Coord, int] = {}
    adjacent: list[list[int]] = []
    mate: list[int] = []
    alphas, matched = [], 0
    for new, (_, x, y) in enumerate(cells):
        joined = [index[xy] for xy in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                  if xy in index]
        for j in joined:
            adjacent[j].append(new)
        index[x, y] = new
        adjacent.append(joined)
        mate.append(-1)
        matched += _augment(new, adjacent, mate)
        alphas.append(new + 1 - matched)
    return alphas


def empirical_density(params: TripleParams, n: int, verify: bool) -> Fraction:
    """alpha(G_n) / n as one sum over the rising values v <= n.

    Component (p, q) contributes f(p, floor(n / q)), the number of rising
    values <= floor(n / q) at height p.  v <= floor(n / q) holds exactly when
    q <= floor(n / v), so alpha(G_n) sums admissible_count(floor(n / v)) over
    the rising values v <= n of every height: one call per rise, after the
    cells <= n of each height p with a**p <= n are read and sorted once.

    With verify, one matcher per height solves every prefix of those cells,
    each checked against its plateau, and the walk of component_ids sums
    the matched alphas of the prefixes <= n // q against the rising-value
    sum; a mismatch raises VerificationError.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total, matched, p, power = 0, [], 0, 1
    while power <= n:
        cells = sorted_cells(params, p, n)
        table = plateaus(cells)
        previous = 0
        for value, plateau in table:
            if plateau > previous:
                total += admissible_count(params, n // value)
            previous = plateau
        if verify:
            values, steps = zip(*table)
            alphas = _matched_alphas(cells)
            for k, (plateau, alpha) in enumerate(zip_longest(steps, alphas), 1):
                if plateau != alpha:
                    raise VerificationError(f"height {p}, first {k} cells: parity alpha "
                                            f"{plateau} != matching alpha {alpha}")
            matched.append((values, alphas))
        p, power = p + 1, power * params.a
    if verify:
        summed = 0
        for p, q in component_ids(params, n):
            values, alphas = matched[p]
            summed += alphas[bisect_right(values, n // q) - 1]
        if summed != total:
            raise VerificationError(
                f"alpha(G_{n}): per-component sum {summed} != rising-value sum {total}"
            )
    return Fraction(total, n)


def general_multiplicative_witness(
    members: Iterable[int], left: Iterable[int], right: Iterable[int]
) -> tuple[int, int, int, int] | None:
    """First violation (a, b, x, y) of the {A,B}-multiplicative condition.

    The condition demands that a*x = b*y with a in A, b in B and x, y in
    the set forces a = b and x = y.  Returns None when it holds.
    """
    values = set(members)
    ordered = sorted(values)
    a_set = sorted(set(left))
    b_set = sorted(set(right))
    if not a_set or not b_set:
        raise ValueError("A and B must be nonempty")
    if (ordered and ordered[0] < 1) or a_set[0] < 1 or b_set[0] < 1:
        raise ValueError("all inputs must be positive")
    for a in a_set:
        for b in b_set:
            if a == b:
                continue  # a*x = a*y forces x = y; never violated
            for x in ordered:
                if (a * x) % b == 0 and (a * x) // b in values:
                    return a, b, x, (a * x) // b
    return None
