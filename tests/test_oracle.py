"""Oracle tests: the verification machinery itself gets verified here."""

import pkgutil
import random
from fractions import Fraction
from importlib import import_module
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multsidon import (
    TripleParams,
    VerificationError,
    build_path_decomposition,
    empirical_density,
    path_alpha,
    reduce_pair,
)
from multsidon.components import q_copy_alpha, sorted_cells
from multsidon.oracle import _matched_alphas, component_ids, general_multiplicative_witness

from claims import (
    EXHAUSTIVE_LIMIT,
    build_gn,
    cell_count,
    component_instance,
    coprime_triples,
    exact_alpha_exhaustive,
    exact_alpha_matching,
    finite_graph_report,
    floor_block_alpha,
    grid_cell_edges,
    parity_independent_set,
    random_staircase,
    staircase_lemma_check,
)

T235 = TripleParams(2, 3, 5)
T345 = TripleParams(3, 4, 5)

SMALL_TRIPLES = [
    (a, b, c)
    for a in range(2, 6)
    for b in range(a + 1, 13)
    for c in range(b + 1, 14)
    if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1
]


def per_component_alpha(t: TripleParams, n: int) -> int:
    """alpha(G_n) as one step-function lookup per (height, multiplier) component."""
    return sum(q_copy_alpha(t, p, q, n) for p, q in component_ids(t, n))


def direct_edge_scan(t: TripleParams, n: int) -> set[frozenset[int]]:
    """All edges bx = ay or cx = ay inside [n], straight from the definition."""
    edges = set()
    for x in range(1, n + 1):
        for mult in (t.b, t.c):
            if (mult * x) % t.a == 0 and mult * x // t.a <= n:
                edges.add(frozenset((x, mult * x // t.a)))
    return edges


class TestBuildGn:
    def test_components_at_ten(self):
        by_values = {inst.values for inst in build_gn(T235, 10)}
        assert (2, 3, 5) in by_values
        assert (4, 6, 9, 10) in by_values
        assert (1,) in by_values and (7,) in by_values and (8,) in by_values

    def test_single_vertex(self):
        insts = build_gn(T235, 1)
        assert len(insts) == 1 and insts[0].values == (1,)

    @pytest.mark.parametrize("n", [1, 2, 17, 100, 555])
    def test_vertex_counts_partition_range(self, n):
        insts = build_gn(T235, n)
        everything = sorted(v for inst in insts for v in inst.values)
        assert everything == list(range(1, n + 1))

    @pytest.mark.parametrize("t", [T235, TripleParams(3, 4, 5)])
    def test_grid_adjacency_matches_edge_scan(self, t):
        n = 500
        from_components = set()
        for inst in build_gn(t, n):
            for i, j in grid_cell_edges(inst.cells):
                from_components.add(frozenset((inst.values[i], inst.values[j])))
        assert from_components == direct_edge_scan(t, n)


class TestExactAlphaMatching:
    def test_path_of_three(self):
        assert exact_alpha_matching(3, [(0, 1), (1, 2)]) == 2

    def test_component_of_four(self):
        # values {4, 6, 9, 10}: edges 4-6, 4-10, 6-9
        assert exact_alpha_matching(4, [(0, 1), (0, 3), (1, 2)]) == 2

    def test_single_vertex(self):
        assert exact_alpha_matching(1, []) == 1

    def test_rejects_odd_cycle(self):
        with pytest.raises(VerificationError):
            exact_alpha_matching(3, [(0, 1), (1, 2), (2, 0)])

    @settings(max_examples=50)
    @given(st.integers(2, 12), st.data())
    def test_agrees_with_exhaustive_on_random_bipartite(self, n, data):
        left = list(range(n // 2))
        right = list(range(n // 2, n))
        edges = [
            (u, v)
            for u in left
            for v in right
            if data.draw(st.booleans(), label=f"edge {u}-{v}")
        ]
        assert exact_alpha_matching(n, edges) == exact_alpha_exhaustive(n, edges)


class TestMatchedAlphas:
    def test_path_then_square(self):
        # (0,0), (1,0), (0,1), (1,1): a path of three, then a four-cycle
        assert _matched_alphas([(1, 0, 0), (2, 1, 0), (3, 0, 1), (4, 1, 1)]) == [1, 1, 2, 2]

    @settings(max_examples=60, deadline=None)
    @given(triple=coprime_triples(), height=st.integers(0, 12), data=st.data())
    def test_every_prefix_agrees_with_reference_solvers(self, triple, height, data):
        t = TripleParams(*triple)
        values = [v for v, _, _ in sorted_cells(t, height, t.c**height)]
        cap = data.draw(st.one_of(st.sampled_from(values),
                                  st.integers(t.a**height, t.c**height)), label="cap")
        cells = sorted_cells(t, height, cap)
        alphas = _matched_alphas(cells)
        assert len(alphas) == len(cells)
        for k in range(1, len(cells) + 1):
            edges = grid_cell_edges([(x, y) for _, x, y in cells[:k]])
            assert alphas[k - 1] == exact_alpha_matching(k, edges), k
            if k <= EXHAUSTIVE_LIMIT:
                assert alphas[k - 1] == exact_alpha_exhaustive(k, edges), k


class TestExactAlphaExhaustive:
    def test_empty_graph(self):
        assert exact_alpha_exhaustive(3, []) == 3

    def test_grid_fragment(self):
        assert exact_alpha_exhaustive(4, [(0, 1), (0, 3), (1, 2)]) == 2

    def test_complete_component_height_two(self):
        inst = component_instance(T235, 2, 1, 25)
        assert exact_alpha_exhaustive(6, grid_cell_edges(inst.cells)) == 4

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            exact_alpha_exhaustive(25, [])


class TestTripleOracleAgreement:
    @pytest.mark.parametrize("t", [T235, TripleParams(2, 3, 7), TripleParams(3, 4, 5)])
    def test_all_components_at_small_n(self, t):
        report = finite_graph_report(t, 800, cutoff=3, verify=True)
        assert report == finite_graph_report(t, 800, cutoff=3)
        assert [s.vertex_count for s in report.components] == [
            len(inst.cells) for inst in build_gn(t, 800)
        ]
        assert sum(s.vertex_count for s in report.components) == 800
        assert report.total_alpha == sum(s.alpha for s in report.components)
        assert report.ratio == Fraction(report.total_alpha, 800)

    def test_pair_graph_agreement(self):
        # path-count optimum equals matching-based alpha on the pair graph
        for a, b in [(2, 3), (1, 2), (6, 15)]:
            p = reduce_pair(a, b)
            n = 2000
            decomp = build_path_decomposition(p, n)
            edges = [
                (u - 1, v - 1)
                for path in decomp.paths
                for u, v in zip(path, path[1:])
            ]
            assert path_alpha(decomp) == exact_alpha_matching(n, edges)


class TestEmpiricalDensity:
    def test_n_one(self):
        assert empirical_density(T235, 1, verify=True) == Fraction(1, 1)

    def test_ten(self):
        assert empirical_density(T235, 10, verify=True) == Fraction(7, 10)

    def test_methods_agree_at_ten(self):
        report = finite_graph_report(T235, 10, cutoff=2, verify=True)
        assert report.total_alpha == 7

    @pytest.mark.parametrize("t", [T235, T345])
    @pytest.mark.parametrize("n", [1, 7, 100, 12345, 10**5])
    def test_block_sum_equals_per_component_sum(self, t, n):
        assert empirical_density(t, n, verify=False) * n == per_component_alpha(t, n)

    @settings(max_examples=60, deadline=None)
    @given(triple=st.sampled_from(SMALL_TRIPLES), n=st.integers(1, 3000))
    def test_block_sum_equals_per_component_sum_on_small_triples(self, triple, n):
        t = TripleParams(*triple)
        assert empirical_density(t, n, verify=False) * n == per_component_alpha(t, n)

    @pytest.mark.parametrize(
        "triple", [(2, 3, 5), (3, 4, 5), (2, 7, 9), (5, 6, 7), (3, 7, 8), (2, 3, 1000003),
                   (7, 11, 13)],
    )
    def test_rising_value_sum_equals_floor_block_sum(self, triple):
        # per_component_alpha stops near 10**5; the floor-block sum reaches 10**10
        t = TripleParams(*triple)
        rng = random.Random(str(triple))
        for n in (1, 2, 10**5 - 1, rng.randint(10**8, 10**9), rng.randint(10**9, 10**10)):
            assert empirical_density(t, n, verify=False) * n == floor_block_alpha(t, n), n

    def test_verified_path_agrees(self):
        for n in (1, 2, 999, 3000):
            assert empirical_density(T345, n, verify=True) == empirical_density(
                T345, n, verify=False
            )

    def test_nonpositive_n_raises(self):
        with pytest.raises(ValueError):
            empirical_density(T235, 0, verify=False)

    def test_mismatch_raises(self, monkeypatch):
        import multsidon.oracle as oracle_module

        table = oracle_module.plateaus

        def wrong_plateau(cells):
            # one plateau too high: the fifth cell of height 3 (first value 2**3), the value 27
            return tuple((value, plateau + (cells[0][0] == 2**3 and k == 5))
                         for k, (value, plateau) in enumerate(table(cells), 1))

        monkeypatch.setattr(oracle_module, "plateaus", wrong_plateau)
        with pytest.raises(VerificationError, match=r"height 3, first 5 cells: parity alpha 4 "
                                                    r"!= matching alpha 3"):
            empirical_density(T235, 30, verify=True)

    @pytest.mark.parametrize(
        "t, n", [(T235, 30), (T345, 999), (TripleParams(2, 3, 1000003), 5000)]
    )
    def test_wrong_rising_value_sum_raises_only_when_verified(self, monkeypatch, t, n):
        import multsidon.oracle as oracle_module

        exact = empirical_density(t, n, verify=False)
        count = oracle_module.admissible_count
        # one off-by-one at limit n, the term of the rising value 1
        monkeypatch.setattr(oracle_module, "admissible_count",
                            lambda params, limit: count(params, limit) + (limit == n))
        with pytest.raises(VerificationError, match="rising-value sum"):
            empirical_density(t, n, verify=True)
        # an unverified run prints the wrong sum: only verified runs check it
        assert empirical_density(t, n, verify=False) == exact + Fraction(1, n)

    @pytest.mark.parametrize(
        "t, graphs, components, heights",
        [(T235, 172, 53_333, 17), (T345, 96, 60_000, 11),
         (TripleParams(2, 3, 1000003), 83, 66_667, 17)],
    )
    def test_verified_run_solves_each_truncated_component_once(
        self, monkeypatch, t, graphs, components, heights
    ):
        import multsidon.components as components_module
        import multsidon.oracle as oracle_module

        n = 10**5
        ids = list(component_ids(t, n))
        distinct = {(p, cell_count(t, p, n // q)) for p, q in ids}
        assert (len(distinct), len(ids)) == (graphs, components)
        assert len({p for p, _ in ids}) == heights  # every height p with a**p <= n
        sizes, reads = [], []
        matcher, read = oracle_module._matched_alphas, oracle_module.sorted_cells
        monkeypatch.setattr(oracle_module, "_matched_alphas",
                            lambda cells: sizes.append(len(cells)) or matcher(cells))
        for module in (components_module, oracle_module):  # f_table reads it in components
            monkeypatch.setattr(module, "sorted_cells",
                                lambda *args: reads.append(args[1]) or read(*args))
        verified = empirical_density(t, n, verify=True)
        # each height is read once, and one matcher's prefixes hold its truncated components
        assert reads == list(range(heights))
        assert len(sizes) == heights
        assert all(k <= sizes[p] for p, k in distinct)
        assert verified == empirical_density(t, n, verify=False)
        assert len(reads) == 2 * heights

    def test_kind_split_covers_total(self):
        report = finite_graph_report(T235, 1000, cutoff=4)
        by_kind = {"complete": 0, "small": 0, "large": 0}
        for s in report.components:
            by_kind[s.ident.kind] += s.alpha
        assert sum(by_kind.values()) == report.total_alpha
        assert by_kind["complete"] > 0 and by_kind["small"] > 0


def test_no_module_holds_a_cache():
    import multsidon

    modules = [import_module(f"multsidon.{info.name}")
               for info in pkgutil.iter_modules(multsidon.__path__)]
    assert {"multsidon.cli", "multsidon.density", "multsidon.oracle"} <= {
        module.__name__ for module in modules}
    cached = [f"{module.__name__}.{name}"
              for module in [multsidon, *modules]
              for name, value in vars(module).items() if hasattr(value, "cache_info")]
    assert cached == []


class TestGeneralMultiplicative:
    def test_singleton(self):
        assert general_multiplicative_witness({1}, {2}, {3, 5}) is None

    def test_violation_with_witness(self):
        witness = general_multiplicative_witness({3, 2}, {2}, {3, 5})
        assert witness == (2, 3, 3, 2)

    def test_parity_set_is_multiplicative(self):
        chosen = parity_independent_set(T235, 100)
        assert general_multiplicative_witness(chosen, {2}, {3, 5}) is None
        assert len(chosen) == int(empirical_density(T235, 100, verify=True) * 100)

    def test_equal_elements_never_violate(self):
        assert general_multiplicative_witness({2, 3, 4}, {3}, {3}) is None

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            general_multiplicative_witness({1}, set(), {2})


class TestStaircaseLemma:
    def test_single_cell(self):
        assert staircase_lemma_check([(0, 0)])

    def test_two_by_two_block(self):
        assert staircase_lemma_check([(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_rejects_non_staircase(self):
        with pytest.raises(ValueError):
            staircase_lemma_check([(1, 1)])

    def test_seeded_random_staircases(self):
        rng = random.Random(20240817)
        for _ in range(50):
            cells = random_staircase(rng, 24)
            assert staircase_lemma_check(cells)

    def test_random_staircase_shape(self):
        rng = random.Random(7)
        for _ in range(100):
            cells = random_staircase(rng, 24)
            assert 1 <= len(cells) <= 24
            cell_set = set(cells)
            for x, y in cells:
                assert x == 0 or (x - 1, y) in cell_set
                assert y == 0 or (x, y - 1) in cell_set

    def test_deterministic_for_fixed_seed(self):
        first = [random_staircase(random.Random(42), 24) for _ in range(5)]
        second = [random_staircase(random.Random(42), 24) for _ in range(5)]
        assert first == second
