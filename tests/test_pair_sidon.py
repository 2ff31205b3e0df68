"""Pair-case tests: constructions checked against brute force and matching."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multsidon import (
    ExtremalPairSet,
    build_path_decomposition,
    construct_extremal_set,
    is_pair_multiplicative,
    pair_density,
    path_alpha,
    reduce_pair,
)

from multsidon.oracle import general_multiplicative_witness

from claims import cardinality_bounds, extremal_members, floor_log


def brute_force_max_pair_set(a: int, b: int, n: int) -> int:
    """Largest {a,b}-multiplicative subset of [n] by subset enumeration."""
    assert n <= 16
    best = 0
    universe = range(1, n + 1)
    for size in range(n, best, -1):
        for subset in combinations(universe, size):
            if is_pair_multiplicative(mask_set(subset, n), reduce_pair(a, b)):
                return size
    return 0


def subpower_index(x: int, base: int) -> tuple[int, int]:
    """Split x >= 1 as base**i * y with base not dividing y; return (i, y)."""
    index = 0
    while x % base == 0:
        x //= base
        index += 1
    return index, x


def level_sieve_members(b: int, n: int) -> tuple[int, ...]:
    """Even subpowers of b in [n], sieved level by level and sorted.

    For each even i the members of subpower index i are b**i * y with
    y <= n / b**i not divisible by b.
    """
    members = []
    power = 1
    while power <= n:
        members.extend(power * y for y in range(1, n // power + 1) if y % b)
        power *= b * b
    return tuple(sorted(members))


def mask_set(members, n: int | None = None) -> ExtremalPairSet:
    """A finite set of positive integers as an ExtremalPairSet over [0, n].

    n defaults to the largest member, or 0 for the empty set.
    """
    members = set(members)
    mask = bytearray(max(members, default=0) + 1 if n is None else n + 1)
    for x in members:
        mask[x] = 1
    return ExtremalPairSet(len(mask) - 1, bytes(mask))


def definition_is_pair_multiplicative(members, a: int, b: int) -> bool:
    """The O(|S|^2) definition: no x, y in S with a*x == b*y."""
    return all(a * x != b * y for x in members for y in members)


def walked_paths(params, n: int) -> tuple[tuple[int, ...], ...]:
    """Every maximal path under x -> x*b_red/a_red, walked from its source.

    Sources are exactly the integers not divisible by b_red; the successor
    of x exists when a_red divides x and x*b_red/a_red <= n.
    """
    a, b = params.a_red, params.b_red
    paths = []
    for source in range(1, n + 1):
        if source % b == 0:
            continue
        path = [source]
        v = source
        while v % a == 0 and v // a * b <= n:
            v = v // a * b
            path.append(v)
        paths.append(tuple(path))
    return tuple(paths)


def walked_length(params, n: int, x: int) -> int:
    """Vertices on x's path from x onward, by walking the edges one by one."""
    a, b = params.a_red, params.b_red
    length = 1
    while x % a == 0 and x // a * b <= n:
        x = x // a * b
        length += 1
    return length


def check_lengths_and_alpha(params, n: int) -> None:
    """Every remaining length against the walk, and path_alpha two ways."""
    d = build_path_decomposition(params, n)
    assert len(d.lengths) == n + 1 and d.lengths[0] == 0
    assert list(d.lengths[1:]) == [walked_length(params, n, x) for x in range(1, n + 1)]
    alpha = path_alpha(d)
    assert alpha == sum((len(path) + 1) // 2 for path in d.paths)
    assert alpha == construct_extremal_set(params, n).cardinality


def count_even_subpowers(b: int, n: int) -> int:
    """Independent cardinality count: levels b**i with even i telescope."""
    total = 0
    power = 1
    i = 0
    while power <= n:
        if i % 2 == 0:
            total += n // power - n // (power * b)
        power *= b
        i += 1
    return total


class TestReducePair:
    def test_examples(self):
        p = reduce_pair(2, 4)
        assert (p.g, p.a_red, p.b_red) == (2, 1, 2)
        p = reduce_pair(2, 3)
        assert (p.g, p.a_red, p.b_red) == (1, 2, 3)
        p = reduce_pair(6, 15)
        assert (p.g, p.a_red, p.b_red) == (3, 2, 5)

    @pytest.mark.parametrize("a,b", [(3, 3), (4, 2), (0, 5), (-1, 2)])
    def test_rejects_bad_pairs(self, a, b):
        with pytest.raises(ValueError):
            reduce_pair(a, b)

    @given(st.integers(1, 500), st.integers(1, 500))
    def test_reduction_is_coprime(self, a, b):
        if a >= b:
            a, b = b, a + b
        p = reduce_pair(a, b)
        from math import gcd

        assert gcd(p.a_red, p.b_red) == 1
        assert p.b_red >= 2
        assert (p.a_red * p.g, p.b_red * p.g) == (a, b)


class TestSubpowerIndex:
    """The test helper that the subpower claims below rest on."""

    def test_examples(self):
        assert subpower_index(18, 3) == (2, 2)
        assert subpower_index(7, 3) == (0, 7)
        # 9, 18, 36 share index 2 for base 3
        assert all(subpower_index(x, 3)[0] == 2 for x in (9, 18, 36))

    @given(st.integers(1, 10**6), st.integers(2, 9))
    def test_roundtrip(self, x, base):
        index, cofactor = subpower_index(x, base)
        assert base**index * cofactor == x
        assert cofactor % base != 0


class TestConstructExtremalSet:
    def test_two_three(self):
        p = reduce_pair(2, 3)
        s = construct_extremal_set(p, 10)
        assert extremal_members(s) == (1, 2, 4, 5, 7, 8, 9, 10)
        assert s.cardinality == 8
        assert s.cardinality == path_alpha(build_path_decomposition(p, 10))

    def test_double_free_matches_brute_force(self):
        p = reduce_pair(1, 2)
        s = construct_extremal_set(p, 10)
        assert extremal_members(s) == (1, 3, 4, 5, 7, 9)
        assert s.cardinality == brute_force_max_pair_set(1, 2, 10)

    @pytest.mark.parametrize("n", [1, 2, 17, 64, 100])
    def test_gcd_reduction_invariance(self, n):
        assert (
            construct_extremal_set(reduce_pair(2, 4), n)
            == construct_extremal_set(reduce_pair(1, 2), n)
        )

    @pytest.mark.parametrize("a,b,n", [(1, 2, 12), (2, 3, 12), (1, 3, 12), (3, 5, 12)])
    def test_optimal_at_small_n(self, a, b, n):
        s = construct_extremal_set(reduce_pair(a, b), n)
        assert s.cardinality == brute_force_max_pair_set(a, b, n)

    def test_members_are_even_subpowers(self):
        p = reduce_pair(2, 3)
        s = construct_extremal_set(p, 500)
        expected = tuple(
            x for x in range(1, 501) if subpower_index(x, 3)[0] % 2 == 0
        )
        assert extremal_members(s) == expected
        assert s.cardinality == count_even_subpowers(3, 500)

    @settings(max_examples=60)
    @given(st.integers(1, 12), st.integers(1, 30), st.integers(1, 3000))
    @example(4, 2, 3000)  # (4, 6): reduces to (2, 3)
    @example(6, 9, 2999)  # (6, 15): reduces to (2, 5)
    @example(2, 2, 1)
    def test_equals_level_sieve(self, a, delta, n):
        p = reduce_pair(a, a + delta)
        assert extremal_members(construct_extremal_set(p, n)) == level_sieve_members(p.b_red, n)


class TestExtremalPairSet:
    def test_mask_of_the_constructed_set(self):
        s = construct_extremal_set(reduce_pair(2, 3), 10)
        assert s.mask == bytes([0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1])
        assert extremal_members(s) == tuple(x for x in range(11) if s.mask[x])

    @given(st.binary(max_size=300).map(lambda tail: b"\x00" + bytes(c & 1 for c in tail)))
    def test_members_and_cardinality_read_the_mask(self, mask):
        s = ExtremalPairSet(n=len(mask) - 1, mask=mask)
        assert extremal_members(s) == tuple(x for x in range(len(mask)) if mask[x] == 1)
        assert s.cardinality == len(extremal_members(s))

    @pytest.mark.parametrize(
        "n,mask",
        [
            (3, b"\x00\x01\x01"),  # one byte short
            (1, b"\x00\x01\x01"),  # one byte long
            (0, b""),
            (2, b"\x01\x01\x01"),  # 0 marked
            (3, b"\x00\x01\x02\x01"),
            (2, b"\x00\x01\xff"),
        ],
    )
    def test_rejects_invalid_masks(self, n, mask):
        with pytest.raises(ValueError):
            ExtremalPairSet(n=n, mask=mask)

    def test_rejects_a_mutable_mask(self):
        with pytest.raises(TypeError):
            ExtremalPairSet(n=2, mask=bytearray(b"\x00\x01\x01"))


class TestIsPairMultiplicative:
    def test_direct_violation(self):
        assert not is_pair_multiplicative(mask_set({1, 2, 4}), reduce_pair(1, 2))

    def test_constructed_set_passes(self):
        s = construct_extremal_set(reduce_pair(2, 3), 100)
        assert is_pair_multiplicative(s, reduce_pair(2, 3))
        assert general_multiplicative_witness(extremal_members(s), [2], [3]) is None

    def test_empty_set(self):
        assert is_pair_multiplicative(mask_set(set(), 10), reduce_pair(3, 7))
        assert is_pair_multiplicative(mask_set(set()), reduce_pair(3, 7))

    def test_exhaustive_pair_check_agreement(self):
        # mask check against the O(|S|^2) definition
        members = extremal_members(construct_extremal_set(reduce_pair(2, 5), 60))
        for candidate in (set(members), set(members) | {15}, {2, 5}):
            naive = all(2 * x != 5 * y for x in candidate for y in candidate)
            assert is_pair_multiplicative(mask_set(candidate), reduce_pair(2, 5)) == naive

    @pytest.mark.parametrize(
        "members",
        [{1, 3}, frozenset({2, 5}), (1, 2, 4), [], b"\x00\x01", range(1, 5)],
        ids=["set", "frozenset", "tuple", "empty-list", "mask-bytes", "range"],
    )
    def test_rejects_a_plain_set(self, members):
        with pytest.raises(TypeError, match="checks an ExtremalPairSet"):
            is_pair_multiplicative(members, reduce_pair(2, 3))

    @settings(max_examples=200)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 5),
        st.sets(st.integers(1, 80), max_size=30),
    )
    @example(2, 1, 2, {4, 6})  # (4, 6): 4*6 == 6*4
    @example(2, 1, 2, {4, 9})  # (4, 6): no violation
    @example(2, 3, 3, {10, 25})  # (6, 15): 6*25 == 15*10
    def test_equals_definition(self, a_red, delta, g, members):
        a, b = a_red * g, (a_red + delta) * g
        expected = definition_is_pair_multiplicative(members, a, b)
        assert is_pair_multiplicative(mask_set(members), reduce_pair(a, b)) == expected
        assert (general_multiplicative_witness(members, [a], [b]) is None) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(1, 2000),
        st.sampled_from(["n", "max", "other"]),
        st.integers(1, 2000),
    )
    @example(1, 2, 2, 12, "n", 1)  # (2, 6): 12 = 3 * 4 and 1 * 4 is in the set
    @example(2, 1, 1, 12, "n", 1)  # (2, 3): 12 = 3 * 4 and 2 * 4 is in the set
    @example(2, 1, 1, 9, "other", 6)  # (2, 3): 9 = 3 * 3 and 6 = 2 * 3 is added
    @example(1, 1, 3, 2000, "max", 1)
    def test_mask_boundaries(self, a_red, delta, g, n, where, other):
        """The constructed set plus one x <= n, on a mask over [0, max], against the definition.

        x = n may raise the mask's top, x = max(set) leaves it as is, and a
        violation at t = max // b_red sits at the end of both slices.
        """
        a, b = a_red * g, (a_red + delta) * g
        members = set(extremal_members(construct_extremal_set(reduce_pair(a, b), n)))
        members.add({"n": n, "max": max(members), "other": 1 + other % n}[where])
        assert is_pair_multiplicative(mask_set(members), reduce_pair(a, b)) == (
            definition_is_pair_multiplicative(members, a, b)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 4),
        st.binary(max_size=300),
        st.lists(st.integers(1, 300), max_size=3),
    )
    @example(2, 1, 1, b"\x01" * 9, [])  # (2, 3) on [9]: 2*3 == 3*2
    @example(2, 1, 1, b"\x01\x01\x00\x01\x01\x00\x01\x01\x01", [])  # the extremal set
    @example(1, 2, 2, b"\x00" * 11, [4])  # (2, 6): 1*4 and 3*4 injected, t = n // 3
    def test_mask_equals_definition(self, a_red, delta, g, tail, violations):
        """An ExtremalPairSet's own mask, against the definition and the witness search.

        Each t in violations with b_red*t <= n marks a_red*t and b_red*t.
        """
        a, b = a_red * g, (a_red + delta) * g
        mask = bytearray(b"\x00" + bytes(c & 1 for c in tail))
        n = len(mask) - 1
        for t in violations:
            if (a_red + delta) * t <= n:
                mask[a_red * t] = mask[(a_red + delta) * t] = 1
        s = ExtremalPairSet(n=n, mask=bytes(mask))
        members = extremal_members(s)
        expected = definition_is_pair_multiplicative(members, a, b)
        assert is_pair_multiplicative(s, reduce_pair(a, b)) == expected
        assert (general_multiplicative_witness(members, [a], [b]) is None) == expected


class TestPathDecomposition:
    def test_two_three_ten(self):
        d = build_path_decomposition(reduce_pair(2, 3), 10)
        assert set(d.paths) == {(1,), (2, 3), (4, 6, 9), (5,), (7,), (8,), (10,)}

    def test_doubling_chains(self):
        d = build_path_decomposition(reduce_pair(1, 2), 4)
        assert set(d.paths) == {(1, 2, 4), (3,)}

    def test_single_vertex(self):
        d = build_path_decomposition(reduce_pair(4, 6), 1)
        assert tuple(d.paths) == ((1,),)

    @pytest.mark.parametrize("a,b,n", [(2, 3, 200), (1, 2, 200), (6, 15, 150)])
    def test_partition_invariants(self, a, b, n):
        p = reduce_pair(a, b)
        d = build_path_decomposition(p, n)
        seen = [v for path in d.paths for v in path]
        assert sorted(seen) == list(range(1, n + 1))
        for path in d.paths:
            assert path[0] % p.b_red != 0
            for u, v in zip(path, path[1:]):
                assert u * p.b_red == v * p.a_red

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 29).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 30))),
        st.integers(1, 3000),
    )
    @example((1, 2), 3000)  # a_red = 1: the longest paths
    @example((1, 30), 2999)
    @example((6, 15), 3000)  # reduces to (2, 5)
    @example((4, 6), 1)
    def test_equals_walked_paths(self, pair, n):
        """The length fixed point against the per-source walk."""
        a, b = pair
        p = reduce_pair(a, b)
        d = build_path_decomposition(p, n)
        reference = walked_paths(p, n)
        assert sorted(d.paths) == sorted(reference)
        assert path_alpha(d) == sum((len(path) + 1) // 2 for path in reference)
        assert len(d.paths) == n - n // p.b_red
        # the view walks the sources, the integers not divisible by b_red, upward
        assert [path[0] for path in d.paths] == [x for x in range(1, n + 1) if x % p.b_red]
        assert len(list(d.paths)) == len(d.paths)

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (2, 4)])
    def test_distance_equals_subpower_index(self, a, b):
        # vertices at distance d from their source are the d-th subpowers
        p = reduce_pair(a, b)
        d = build_path_decomposition(p, 2000)
        for path in d.paths:
            for distance, v in enumerate(path):
                assert subpower_index(v, p.b_red)[0] == distance


class TestPathLengths:
    """The one-sweep lengths and the odd-length count against slow oracles."""

    def test_two_three_ten(self):
        d = build_path_decomposition(reduce_pair(2, 3), 10)
        # paths (1,), (2, 3), (4, 6, 9), (5,), (7,), (8,), (10,)
        assert d.lengths == bytes([0, 1, 2, 1, 3, 1, 2, 1, 1, 1, 1])

    @pytest.mark.parametrize(
        "a,b", [(2, 3), (1, 2), (4, 6), (6, 15), (5, 6), (99, 100), (1, 1000)]
    )
    def test_every_n_up_to_300(self, a, b):
        p = reduce_pair(a, b)
        for n in range(1, 301):
            check_lengths_and_alpha(p, n)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 199).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 200))),
        st.integers(1, 5000),
    )
    @example((1, 2), 5000)  # the longest paths
    @example((199, 200), 5000)  # the whole sweep is one chunk
    @example((9, 10), 5000)  # 23 chunks, each about a tenth of hi
    @example((2, 3), 4374)  # 2 * 3**7: a path ends exactly at n
    @example((1, 200), 199)  # n // b_red == 0: no edge at all
    def test_property(self, pair, n):
        check_lengths_and_alpha(reduce_pair(*pair), n)


class TestPathAlpha:
    def test_examples(self):
        assert path_alpha(build_path_decomposition(reduce_pair(2, 3), 10)) == 8
        assert path_alpha(build_path_decomposition(reduce_pair(1, 2), 4)) == 3
        assert path_alpha(build_path_decomposition(reduce_pair(1, 2), 1)) == 1

    def test_odd_lengths_are_another_maximum_set(self):
        # on (1, 2) at n = 8 the paths 1, 2, 4, 8 and 3, 6 have remaining lengths
        # 4, 3, 2, 1 and 2, 1: the odd ones pick {2, 8} and {6}, the even
        # subpowers {1, 4} and {3}
        p = reduce_pair(1, 2)
        d = build_path_decomposition(p, 8)
        odd = {x for x in range(1, 9) if d.lengths[x] % 2}
        assert odd == {2, 5, 6, 7, 8}
        assert set(extremal_members(construct_extremal_set(p, 8))) == {1, 3, 4, 5, 7}
        assert is_pair_multiplicative(mask_set(odd, 8), reduce_pair(1, 2))
        assert path_alpha(d) == len(odd)


class TestPairDensity:
    def test_examples(self):
        assert pair_density(reduce_pair(1, 2)) == Fraction(2, 3)
        assert pair_density(reduce_pair(2, 3)) == Fraction(3, 4)
        assert pair_density(reduce_pair(2, 4)) == Fraction(2, 3)

    def test_coprime_singleton_examples(self):
        # A = {a} coprime to b with a < b: the density is b/(b+1)
        assert pair_density(reduce_pair(2, 5)) == Fraction(5, 6)
        assert pair_density(reduce_pair(3, 5)) == Fraction(5, 6)
        assert pair_density(reduce_pair(1, 2)) == Fraction(2, 3)

    @given(st.integers(1, 300), st.integers(1, 300))
    def test_at_least_two_thirds(self, a, b):
        if a >= b:
            a, b = b, a + b
        assert pair_density(reduce_pair(a, b)) >= Fraction(2, 3)


class TestCardinalityBounds:
    def test_b3_n81(self):
        lower, upper = cardinality_bounds(reduce_pair(2, 3), 81)
        assert (lower, upper) == (Fraction(233, 4), Fraction(255, 4))
        assert lower <= construct_extremal_set(reduce_pair(2, 3), 81).cardinality <= upper

    def test_n_one(self):
        lower, upper = cardinality_bounds(reduce_pair(1, 2), 1)
        assert lower <= 1 <= upper

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 5)])
    def test_brackets_everywhere(self, a, b):
        p = reduce_pair(a, b)
        for n in list(range(1, 120)) + [1000, 4321]:
            lower, upper = cardinality_bounds(p, n)
            assert lower <= count_even_subpowers(p.b_red, n) <= upper

    def test_large_n(self):
        p = reduce_pair(2, 3)
        lower, upper = cardinality_bounds(p, 10**6)
        assert lower <= construct_extremal_set(p, 10**6).cardinality <= upper


class TestFloorLog:
    @given(st.integers(2, 10), st.integers(1, 10**9))
    def test_definition(self, base, n):
        k = floor_log(base, n)
        assert base**k <= n < base ** (k + 1)


@settings(max_examples=30)
@given(
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(1, 400),
)
def test_construction_is_optimal_and_valid(a, delta, n):
    b = a + delta
    p = reduce_pair(a, b)
    s = construct_extremal_set(p, n)
    assert s.cardinality == path_alpha(build_path_decomposition(p, n))
    assert is_pair_multiplicative(s, p)
