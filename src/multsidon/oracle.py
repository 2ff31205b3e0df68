"""Independent verification of the component computations, and alpha(G_n).

The verifiers avoid the parity shortcut: maximum independent sets are
recomputed from scratch, either by Koenig duality (|V| minus a maximum
bipartite matching, valid because every component 2-colours by coordinate
parity) or by branch-and-bound over vertex subsets for graphs small enough
to enumerate.  empirical_density sums alpha(G_n) over the rising values of
the step functions, one admissible_count per rise, each unit triangle read
up to n; when n <= verify_upto it also walks the components of [n],
re-solves each distinct truncated component once, on a prefix of that
triangle, and checks the per-component total against that sum.
general_multiplicative_witness checks the {A,B} condition on any finite
set of positive integers, the pair condition {a},{b} included.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from . import VerificationError
from .components import (
    Coord,
    TripleParams,
    admissible_count,
    f_table,
    is_admissible,
    q_copy_alpha,
    sorted_cells,
)

EXHAUSTIVE_LIMIT = 24


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


def grid_cell_edges(cells: Sequence[Coord]) -> list[tuple[int, int]]:
    """Index pairs of cells one grid step apart (the component adjacency)."""
    index = {xy: i for i, xy in enumerate(cells)}
    edges = []
    for (x, y), i in index.items():
        for nb in ((x + 1, y), (x, y + 1)):
            j = index.get(nb)
            if j is not None:
                edges.append((i, j))
    return edges


def exact_alpha_matching(num_vertices: int, edges: Iterable[tuple[int, int]]) -> int:
    """Independence number of a bipartite graph via Koenig duality.

    2-colours the graph (raising on an odd cycle), computes a maximum
    matching by augmenting paths, and returns |V| - |matching|.
    """
    adjacency: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    colour = [-1] * num_vertices
    for start in range(num_vertices):
        if colour[start] != -1:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if colour[v] == -1:
                    colour[v] = colour[u] ^ 1
                    stack.append(v)
                elif colour[v] == colour[u]:
                    raise VerificationError("graph is not bipartite")

    match_of = [-1] * num_vertices

    def augment(u: int, seen: set[int]) -> bool:
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_of[v] == -1 or augment(match_of[v], seen):
                match_of[v] = u
                match_of[u] = v
                return True
        return False

    matching = 0
    for u in range(num_vertices):
        if colour[u] == 0 and match_of[u] == -1 and augment(u, set()):
            matching += 1
    return num_vertices - matching


def exact_alpha_exhaustive(num_vertices: int, edges: Iterable[tuple[int, int]]) -> int:
    """Independence number by pruned subset search, for <= 24 vertices."""
    if num_vertices > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search limited to {EXHAUSTIVE_LIMIT} vertices")
    masks = [0] * num_vertices
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    def search(active: int) -> int:
        if active == 0:
            return 0
        best_v, best_deg, count, edge_count = -1, -1, 0, 0
        m = active
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (masks[v] & active).bit_count()
            edge_count += deg
            count += 1
            if deg > best_deg:
                best_deg, best_v = deg, v
        if best_deg <= 1:
            # disjoint edges and isolated vertices: take one endpoint each
            return count - edge_count // 2
        without = search(active & ~(1 << best_v))
        with_v = 1 + search(active & ~((1 << best_v) | masks[best_v]))
        return max(without, with_v)

    return search((1 << num_vertices) - 1)


def _verify_components(params: TripleParams, n: int, total: int) -> None:
    """Re-solve the components of G_n and check their alphas sum to total.

    Component (p, q) truncated to [n] is q times the first k cells of height
    p's unit triangle, k the number of unit values <= n // q, so each distinct
    (p, k) is solved once, by matching (and exhaustively on tiny components),
    on the first k cells of the triangle read once per height up to n >= n // q.
    VerificationError is raised when that disagrees with the parity alpha,
    which q_copy_alpha computes from its own f_table, or when the verified
    alphas, one per component, do not sum to total.
    """
    solved: dict[tuple[int, int], int] = {}
    summed, height, unit, values = 0, None, [], []
    for p, q in component_ids(params, n):
        if p != height:  # component_ids yields the heights in rising order
            height, unit = p, sorted_cells(params, p, n)
            values = [v for v, _, _ in unit]
        k = bisect_right(values, n // q)
        if (p, k) not in solved:
            alpha = q_copy_alpha(params, p, q, n)
            cells = [(x, y) for _, x, y in unit[:k]]
            edges = grid_cell_edges(cells)
            found = {"matching": exact_alpha_matching(len(cells), edges)}
            if len(cells) <= EXHAUSTIVE_LIMIT:
                found["exhaustive"] = exact_alpha_exhaustive(len(cells), edges)
            for method, other in found.items():
                if other != alpha:
                    raise VerificationError(
                        f"component (p={p}, q={q}): parity alpha {alpha} "
                        f"!= {method} alpha {other}"
                    )
            solved[p, k] = alpha
        summed += solved[p, k]
    if summed != total:
        raise VerificationError(
            f"alpha(G_{n}): per-component sum {summed} != rising-value sum {total}"
        )


def empirical_density(params: TripleParams, n: int, verify_upto: int) -> Fraction:
    """alpha(G_n) / n as one sum over the rising values v <= n.

    Component (p, q) contributes f(p, floor(n / q)), the number of rising
    values <= floor(n / q) at height p.  v <= floor(n / q) holds exactly when
    q <= floor(n / v), so alpha(G_n) sums admissible_count(floor(n / v)) over
    the rising values v <= n of every height: one call per rise, after the
    cells <= n of each height p with a**p <= n are read and sorted.
    When n <= verify_upto, every component is also re-solved by matching
    and the per-component total checked against this sum, raising
    VerificationError on any mismatch.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total, p, power = 0, 0, 1
    while power <= n:
        previous = 0
        for value, plateau in f_table(params, p, n):
            if plateau > previous:
                total += admissible_count(params, n // value)
            previous = plateau
        p, power = p + 1, power * params.a
    if n <= verify_upto:
        _verify_components(params, n, total)
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
