"""Claims of the paper that only the tests check, and the helpers they need.

The library computes the extremal pair set, the pair density and the
certified triple-density interval.  The statements here back those results
without being part of them: the explicit decomposition of [n] into
truncated components with their integer values, a maximum independent set
read off it, the members of an extremal pair set as integers, the
staircase lemma on random staircases, the simplified tail bound, the
pair-set cardinality bracket, the floor-block sum of alpha(G_n), converge
mode as one delta_small per cutoff, the single value f(p, r) of the step
function, the edges of [n] straight from the definition, a Hypothesis
strategy of coprime triples, two reference solvers of the independence
number that the verifier's incremental matcher is checked against (Koenig
duality on a fresh edge list, and pruned subset search up to
EXHAUSTIVE_LIMIT vertices), and finite_graph_report, which lists
every component of [n] with its vertex count, its independence number
(re-solved by matching on request) and a complete/small/large label.  The
module is named so that pytest does not collect it; test modules import
from it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

from hypothesis import strategies as st

from multsidon import ConvergenceError, VerificationError
from multsidon.components import (
    Coord,
    TripleParams,
    admissible_count,
    f_table,
    q_copy_alpha,
    sorted_cells,
)
from multsidon.density import (
    MAX_CONVERGENCE_DIGITS,
    MAX_CUTOFF,
    STABLE_STEPS,
    DensityInterval,
    _check_printable,
    delta_complete,
    delta_small,
    tail_bound,
)
from multsidon.oracle import component_ids
from multsidon.pair_sidon import ExtremalPairSet, PairParams
from multsidon.rational import truncated_decimal


class ComponentInstance(namedtuple("ComponentInstance", "height multiplier cells values")):
    """A component truncated to [n]: its cells by value, with their integer values."""

    __slots__ = ()


def component_instance(params: TripleParams, height: int, q: int, n: int) -> ComponentInstance:
    """The cells of component (height, q) with values <= n: the unit's up to n // q."""
    cells = sorted_cells(params, height, n // q)
    if not cells:
        raise ValueError("component does not intersect [n]")
    return ComponentInstance(
        height=height,
        multiplier=q,
        cells=tuple((x, y) for _, x, y in cells),
        values=tuple(v * q for v, _, _ in cells),
    )


EXHAUSTIVE_LIMIT = 24


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


@st.composite
def coprime_triples(draw) -> tuple[int, int, int]:
    """Pairwise coprime 1 < a < b < c, with c up to about 10^30.

    b and c are raised to the next value coprime to the smaller bases, so
    that no draw is filtered out.
    """
    a = draw(st.integers(2, 30))
    b = draw(st.integers(a + 1, 200))
    while gcd(a, b) != 1:
        b += 1
    c = draw(st.one_of(st.integers(b + 1, 300), st.integers(10**20, 10**30)))
    while gcd(a * b, c) != 1:
        c += 1
    return a, b, c


def extremal_members(extremal: ExtremalPairSet) -> tuple[int, ...]:
    """The members of an extremal pair set, read off its mask in ascending order."""
    return tuple(compress(range(extremal.n + 1), extremal.mask))


def build_gn(params: TripleParams, n: int) -> list[ComponentInstance]:
    """Explicit decomposition of [n] into truncated components."""
    return [component_instance(params, p, q, n) for p, q in component_ids(params, n)]


def parity_independent_set(params: TripleParams, n: int) -> tuple[int, ...]:
    """A maximum independent set in G_n: best parity class per component."""
    chosen = []
    for p, q in component_ids(params, n):
        inst = component_instance(params, p, q, n)
        even = [v for v, (x, y) in zip(inst.values, inst.cells) if (x + y) % 2 == 0]
        odd = [v for v, (x, y) in zip(inst.values, inst.cells) if (x + y) % 2 == 1]
        chosen.extend(even if len(even) >= len(odd) else odd)
    return tuple(sorted(chosen))


def check_staircase(active: set[Coord]) -> None:
    """Raise ValueError unless the cells are downward closed in the quarter grid."""
    for x, y in active:
        if x > 0 and (x - 1, y) not in active:
            raise ValueError(f"staircase property violated at ({x}, {y})")
        if y > 0 and (x, y - 1) not in active:
            raise ValueError(f"staircase property violated at ({x}, {y})")


def staircase_lemma_check(cells: Sequence[Coord]) -> bool:
    """Does the best parity class match the exhaustive optimum on a staircase?

    The cells must form a downward-closed subset of the quarter grid with
    at most 24 entries; the graph is the grid adjacency on those cells.
    """
    cell_set = set(cells)
    if len(cell_set) > EXHAUSTIVE_LIMIT:
        raise ValueError(f"staircase check limited to {EXHAUSTIVE_LIMIT} cells")
    check_staircase(cell_set)
    ordered = sorted(cell_set)
    even = sum(1 for x, y in ordered if (x + y) % 2 == 0)
    best_parity = max(even, len(ordered) - even)
    exhaustive = exact_alpha_exhaustive(len(ordered), grid_cell_edges(ordered))
    return best_parity == exhaustive


def random_staircase(rng: random.Random, max_cells: int) -> list[Coord]:
    """Random downward-closed cell set via non-increasing column heights."""
    if max_cells < 1:
        raise ValueError("max_cells must be positive")
    cells: list[Coord] = []
    height = rng.randint(1, max_cells)
    x = 0
    while height > 0 and len(cells) < max_cells:
        height = min(height, max_cells - len(cells))
        cells.extend((x, y) for y in range(height))
        x += 1
        height = rng.randint(0, height)
    return cells


def beta(params: TripleParams) -> Fraction:
    """The tail constant (b-1)(c-1)/(bc), strictly between 0 and 1."""
    return Fraction((params.b - 1) * (params.c - 1), params.b * params.c)


def exact_tail_within_simplified(params: TripleParams, cutoff: int) -> bool:
    """Check tail_bound(d) <= beta * a**(-d/2) without leaving the rationals.

    Both sides are positive, so the inequality is equivalent to its square:
    tail(d)^2 * a^d <= beta^2.
    """
    t = tail_bound(params, cutoff)
    return t * t * params.a**cutoff <= beta(params) ** 2


def floor_log(base: int, n: int) -> int:
    """Largest k >= 0 with base**k <= n, by integer exponent search."""
    if base < 2 or n < 1:
        raise ValueError("need base >= 2 and n >= 1")
    k = 0
    power = base
    while power <= n:
        k += 1
        power *= base
    return k


def cardinality_bounds(params: PairParams, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational bracket for the size of the extremal set in [n].

    With b = b_red and k the integer floor of log_b(n):
    b*n/(b+1) - (k+1)/2  <=  |T_n|  <=  1 + k/2 + b*n/(b+1).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    b = params.b_red
    k = floor_log(b, n)
    main = Fraction(b * n, b + 1)
    lower = main - Fraction(k + 1, 2)
    upper = 1 + Fraction(k, 2) + main
    return lower, upper


def floor_block_alpha(params: TripleParams, n: int) -> int:
    """alpha(G_n) summed over the blocks of multipliers q that share floor(n / q).

    Component (p, q) contributes f(p, floor(n / q)), the number of rising
    values <= floor(n / q) at height p.  floor(n / q) takes O(sqrt n) values,
    admissible_count counts the q of each block, and a bisect counts the
    rising values of all heights up to its floor.
    """
    rises = []
    for p in range(floor_log(params.a, n) + 1):
        previous = 0
        for value, plateau in f_table(params, p):
            if plateau > previous and value <= n:
                rises.append(value)
            previous = plateau
    rises.sort()
    total, q = 0, 1
    while q <= n:
        m = n // q
        last = n // m
        multipliers = admissible_count(params, last) - admissible_count(params, q - 1)
        total += multipliers * bisect_right(rises, m)
        q = last + 1
    return total


def reference_convergence_estimate(params: TripleParams, digits: int) -> DensityInterval:
    """convergence_estimate as one delta_small call per cutoff.

    The same STABLE_STEPS streak over the truncated decimals of
    delta_complete + delta_small(params, d) for d = 1, 2, ..., each sum
    computed afresh; the interval at the cutoff where it stops reports that
    cutoff's tail bound as epsilon.
    """
    if not 1 <= digits <= MAX_CONVERGENCE_DIGITS:
        raise ValueError(f"digits must be in [1, {MAX_CONVERGENCE_DIGITS}]")
    dc = delta_complete(params)
    previous = truncated_decimal(dc, digits)
    streak = 0
    for d in range(1, MAX_CUTOFF + 1):
        _check_printable(params, d, dc)
        ds = delta_small(params, d)
        current = truncated_decimal(dc + ds, digits)
        streak = streak + 1 if current == previous else 0
        if streak >= STABLE_STEPS:
            return DensityInterval(params, tail_bound(params, d), d, ds)
        previous = current
    raise ConvergenceError(
        f"({params.a}, {params.b}, {params.c}) at {digits} digits: "
        f"no stabilisation within cutoff {MAX_CUTOFF}"
    )


def f_value(params: TripleParams, height: int, cap: int) -> int:
    """f(height, cap): the last plateau of f_table up to cap, 0 below a**height."""
    table = f_table(params, height, cap)
    return table[-1][1] if table else 0


def direct_edge_scan(t: TripleParams, n: int) -> set[frozenset[int]]:
    """All edges bx = ay or cx = ay inside [n], straight from the definition."""
    edges = set()
    for x in range(1, n + 1):
        for mult in (t.b, t.c):
            if (mult * x) % t.a == 0 and mult * x // t.a <= n:
                edges.add(frozenset((x, mult * x // t.a)))
    return edges


def cell_count(params: TripleParams, height: int, cap: int) -> int:
    """Cells of the unit component of the given height with value <= cap."""
    return len(sorted_cells(params, height, cap))


class ComponentId(namedtuple("ComponentId", "height multiplier kind")):
    """A component (height, multiplier) classified relative to n and a cutoff.

    kind is 'complete', 'small' or 'large'.
    """

    __slots__ = ()


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


class ComponentSummary(namedtuple("ComponentSummary", "ident vertex_count alpha")):
    """A component's ComponentId, its vertex count in [n] and its independence number."""

    __slots__ = ()


class FiniteGraphReport(namedtuple("FiniteGraphReport", "n components total_alpha ratio")):
    """Decomposition of [n] with per-component independence numbers."""

    __slots__ = ()


def finite_graph_report(
    params: TripleParams,
    n: int,
    cutoff: int = 0,
    verify: bool = False,
) -> FiniteGraphReport:
    """Per-component independence numbers for [n], classified by the cutoff.

    Alphas come from the parity step function; with verify=True each one is
    recomputed by matching (and exhaustively on tiny components), raising
    VerificationError on any disagreement.
    """
    summaries = []
    for p, q in component_ids(params, n):
        alpha = q_copy_alpha(params, p, q, n)
        vertex_count = cell_count(params, p, n // q)
        if verify:
            cells = component_instance(params, p, q, n).cells
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
        ident = classify_component(params, p, q, n, cutoff)
        summaries.append(ComponentSummary(ident=ident, vertex_count=vertex_count, alpha=alpha))
    total = sum(s.alpha for s in summaries)
    return FiniteGraphReport(
        n=n, components=tuple(summaries), total_alpha=total, ratio=Fraction(total, n)
    )
