"""Component-structure tests, cross-checked by union-find and exhaustive MIS."""

from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multsidon import (
    TripleParams,
    admissible_count,
    admissible_density,
    alpha_complete,
    f_table,
    q_copy_alpha,
)
from multsidon.components import sorted_cells

from claims import (
    check_staircase,
    classify_component,
    component_instance,
    coprime_triples,
    direct_edge_scan,
    exact_alpha_exhaustive,
    f_value,
    grid_cell_edges,
)

T235 = TripleParams(2, 3, 5)


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


def plain_sorted_cells(params: TripleParams, height: int) -> list[tuple[int, int, int]]:
    """Cells (value, x, y) of the whole triangle of the given height, sorted."""
    pa, pb, pc = ([base**i for i in range(height + 1)] for base in (params.a, params.b, params.c))
    return sorted(
        (pa[height - x - y] * pb[x] * pc[y], x, y)
        for x in range(height + 1) for y in range(height + 1 - x)
    )


def truncation(params: TripleParams, height: int, cap: int) -> list[tuple[int, int]]:
    """Cells (x, y) of the unit component of the given height with value <= cap."""
    return [(x, y) for v, x, y in plain_sorted_cells(params, height) if v <= cap]


def edge_caps(params: TripleParams, height: int) -> list[int]:
    """0, a^h - 1, a^h, every cell value and its neighbours, and c^h."""
    values = [v for v, _, _ in plain_sorted_cells(params, height)]
    low = params.a**height
    return sorted({0, low - 1, low, params.c**height}
                  | {v + d for v in values for d in (-1, 0, 1)})


def exhaustive_alpha(cells: list[tuple[int, int]]) -> int:
    """Independence number of the grid graph on the cells, by subset search."""
    return exact_alpha_exhaustive(len(cells), grid_cell_edges(cells)) if cells else 0


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n + 1))

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> None:
        self.parent[self.find(u)] = self.find(v)


def edge_relation_components(t: TripleParams, n: int) -> dict[int, frozenset[int]]:
    """Connected components of {bx = ay or cx = ay} on [n], via union-find."""
    uf = UnionFind(n)
    for x, y in direct_edge_scan(t, n):
        uf.union(x, y)
    groups: dict[int, set[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(uf.find(v), set()).add(v)
    return {root: frozenset(members) for root, members in groups.items()}


class TestTripleParams:
    def test_accepts_table_triples(self):
        for triple in [(2, 3, 5), (2, 7, 9), (3, 5, 8), (4, 9, 25)]:
            TripleParams(*triple)

    @pytest.mark.parametrize(
        "triple", [(2, 4, 5), (1, 2, 3), (3, 2, 5), (2, 3, 3), (2, 3, 9), (2, 6, 9)]
    )
    def test_rejects_invalid(self, triple):
        with pytest.raises(ValueError):
            TripleParams(*triple)


class TestDecompose:
    def test_examples(self):
        assert decompose(T235, 12) == (3, 1, 0, 1)
        assert decompose(T235, 7) == (0, 0, 0, 7)
        assert decompose(T235, 90) == (4, 2, 1, 1)

    @given(st.integers(1, 10**9))
    def test_roundtrip(self, m):
        d = decompose(T235, m)
        rebuilt = 2 ** (d.height - d.x - d.y) * 3**d.x * 5**d.y * d.multiplier
        assert rebuilt == m
        assert d.multiplier % 2 and d.multiplier % 3 and d.multiplier % 5

    def test_composite_bases(self):
        t = TripleParams(4, 9, 25)
        d = decompose(t, 4 * 9 * 25 * 7)
        assert d == (3, 1, 1, 7)
        # 8 = 4 * 2 with leftover 2 admissible
        assert decompose(t, 8) == (1, 0, 0, 2)

    @pytest.mark.parametrize("t,n", [(T235, 100_000), (TripleParams(3, 4, 5), 20_000)])
    def test_grouping_matches_edge_relation(self, t, n):
        by_id: dict[tuple[int, int], set[int]] = {}
        for m in range(1, n + 1):
            d = decompose(t, m)
            by_id.setdefault((d.height, d.multiplier), set()).add(m)
        expected = {frozenset(s) for s in by_id.values()}
        actual = set(edge_relation_components(t, n).values())
        assert expected == actual


class TestGridComponent:
    def test_extreme_values(self):
        cells = sorted_cells(T235, 3, 5**3)
        assert cells[0] == (2**3, 0, 0)
        assert cells[-1] == (5**3, 0, 3)
        values = component_instance(T235, 3, 7, 5**3 * 7).values
        assert (min(values), max(values)) == (2**3 * 7, 5**3 * 7)

    @pytest.mark.parametrize("t", [T235, TripleParams(3, 4, 5), TripleParams(2, 7, 9)])
    def test_value_map_injective_up_to_height_50(self, t):
        cells = sorted_cells(t, 50, t.c**50)
        assert len({v for v, _, _ in cells}) == len(cells) == 51 * 52 // 2
        assert {(x, y) for _, x, y in cells} == {
            (x, y) for x in range(51) for y in range(51 - x)
        }


class TestSortedCells:
    TRIPLES = [(2, 3, 5), (3, 4, 5), (2, 7, 9), (3, 7, 8), (4, 9, 25), (5, 6, 7)]

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_rising_heights_equal_plain_sort(self, triple):
        t = TripleParams(*triple)
        for height in range(51):
            assert sorted_cells(t, height, t.c**height) == plain_sorted_cells(t, height), height

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_high_height_first_equals_plain_sort(self, triple):
        t = TripleParams(*triple)
        assert sorted_cells(t, 50, t.c**50) == plain_sorted_cells(t, 50)
        for height in range(50, -1, -3):
            assert sorted_cells(t, height, t.c**height) == plain_sorted_cells(t, height), height

    def test_negative_height_is_empty(self):
        assert sorted_cells(T235, -1, 10) == []

    @settings(max_examples=20, deadline=None)
    @given(triple=coprime_triples(), height=st.integers(0, 30))
    @example(triple=(2, 3, 5), height=30)
    @example(triple=(5, 10**20 + 1, 10**20 + 3), height=30)
    def test_capped_equals_filtered_triangle(self, triple, height):
        t = TripleParams(*triple)
        whole = plain_sorted_cells(t, height)
        for cap in edge_caps(t, height):
            assert sorted_cells(t, height, cap) == [cell for cell in whole if cell[0] <= cap], cap

    @settings(max_examples=20, deadline=None)
    @given(triple=coprime_triples(), height=st.integers(0, 30))
    @example(triple=(2, 3, 5), height=30)
    def test_f_value_equals_parity_count(self, triple, height):
        t = TripleParams(*triple)
        whole = plain_sorted_cells(t, height)
        for cap in edge_caps(t, height):
            counts = [0, 0]
            for value, x, y in whole:
                if value <= cap:
                    counts[(x + y) % 2] += 1
            assert f_value(t, height, cap) == max(counts), cap


class TestParityAlpha:
    def test_truncated_at_ten(self):
        assert [v for v, _, _ in sorted_cells(T235, 2, 10)] == [4, 6, 9, 10]
        assert f_value(T235, 2, 10) == 2
        assert exhaustive_alpha(truncation(T235, 2, 10)) == 2

    def test_height_one_complete(self):
        assert f_value(T235, 1, 5) == 2

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5])
    def test_single_vertex_truncation(self, p):
        assert truncation(T235, p, 2**p) == [(0, 0)]
        assert f_value(T235, p, 2**p) == 1

    def test_staircase_violation_raises(self):
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            check_staircase({(1, 0)})
        check_staircase({(0, 0), (1, 0)})

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_truncation_is_downward_closed_and_optimal(self, p):
        for cap, alpha in f_table(T235, p):
            cells = truncation(T235, p, cap)
            check_staircase(set(cells))
            even = sum(1 for x, y in cells if (x + y) % 2 == 0)
            assert alpha == max(even, len(cells) - even) == exhaustive_alpha(cells)


class TestAlphaComplete:
    def test_examples(self):
        assert alpha_complete(0) == 1
        assert alpha_complete(1) == 2
        assert alpha_complete(2) == 4

    def test_matches_parity_classes_up_to_50(self):
        for p in range(51):
            cells = [(x, y) for x in range(p + 1) for y in range(p + 1 - x)]
            even = sum(1 for x, y in cells if (x + y) % 2 == 0)
            assert alpha_complete(p) == max(even, len(cells) - even)


class TestFTable:
    def test_height_one(self):
        assert f_table(T235, 1) == ((2, 1), (3, 1), (5, 2))

    def test_height_zero(self):
        assert f_table(T235, 0) == ((1, 1),)

    def test_height_two(self):
        table = f_table(T235, 2)
        assert tuple(v for v, _ in table) == (4, 6, 9, 10, 15, 25)
        assert table[-1] == (25, 4)
        assert dict(table)[10] == 2

    @pytest.mark.parametrize("t", [T235, TripleParams(3, 5, 8)])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_plateau_invariants(self, t, p):
        table = f_table(t, p)
        values = [v for v, _ in table]
        plateaus = [f for _, f in table]
        assert values[0] == t.a**p and values[-1] == t.c**p
        assert values == sorted(set(values))
        assert plateaus[0] == 1
        assert plateaus[-1] == alpha_complete(p)
        assert all(x <= y for x, y in zip(plateaus, plateaus[1:]))

    def test_f_value_below_min_is_zero(self):
        assert f_value(T235, 3, 7) == 0  # smallest vertex is 8
        assert f_value(T235, 3, 8) == 1

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_f_value_against_exhaustive(self, p):
        for cap in range(1, 5**p + 2):
            assert f_value(T235, p, cap) == exhaustive_alpha(truncation(T235, p, cap))


class TestQCopyAlpha:
    def test_seven_copy(self):
        # the 7-copy of height 1 inside [25] is {14, 21} with an edge
        inst = component_instance(T235, 1, 7, 25)
        assert inst.values == (14, 21)
        assert q_copy_alpha(T235, 1, 7, 25) == 1

    def test_complete_case(self):
        assert q_copy_alpha(T235, 3, 1, 5**3) == alpha_complete(3)
        assert q_copy_alpha(T235, 3, 1, 10**6) == alpha_complete(3)

    def test_truncated_unit(self):
        assert q_copy_alpha(T235, 2, 1, 10) == 2

    def test_outside_range_raises(self):
        with pytest.raises(ValueError):
            q_copy_alpha(T235, 2, 7, 20)  # min vertex 28 > 20
        with pytest.raises(ValueError):
            q_copy_alpha(T235, 1, 6, 100)  # 6 not admissible


class TestAdmissibleCount:
    def test_examples(self):
        assert admissible_count(T235, 30) == 8
        assert admissible_count(T235, 0) == 0
        assert admissible_count(T235, 1) == 1

    @given(st.integers(0, 5000))
    def test_against_enumeration(self, limit):
        direct = sum(
            1 for q in range(1, limit + 1) if q % 2 and q % 3 and q % 5
        )
        assert admissible_count(T235, limit) == direct

    def test_density_constant(self):
        assert admissible_density(T235) == Fraction(4, 15)
        assert admissible_density(TripleParams(3, 4, 5)) == Fraction(2, 5)


class TestClassifyComponent:
    def test_kinds(self):
        # component (p=1, q=1) spans [2, 5]
        assert classify_component(T235, 1, 1, 10, 0).kind == "complete"
        assert classify_component(T235, 1, 1, 4, 1).kind == "small"
        assert classify_component(T235, 1, 1, 4, 0).kind == "large"

    def test_boundary_is_complete(self):
        # n equal to the largest vertex: everything fits inside [n]
        assert classify_component(T235, 2, 1, 25, 0).kind == "complete"

    def test_disjoint_raises(self):
        with pytest.raises(ValueError):
            classify_component(T235, 2, 1, 3, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300))
def test_components_partition_range(n):
    seen = {}
    for m in range(1, n + 1):
        d = decompose(T235, m)
        seen.setdefault((d.height, d.multiplier), []).append(m)
    assert sum(len(v) for v in seen.values()) == n
    for (p, q), members in seen.items():
        assert min(members) >= 2**p * q
