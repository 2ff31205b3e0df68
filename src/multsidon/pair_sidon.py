"""Maximum {a,b}-multiplicative sets.

For integers 1 <= a < b, a set S of positive integers is {a,b}-multiplicative
if ax != by for all x, y in S.  Writing g = gcd(a, b), the condition only
depends on the reduced coprime pair (a/g, b/g), and the even subpowers of b/g
(integers of the form (b/g)^i * y with i even and y not divisible by b/g)
form an {a,b}-multiplicative subset of [n] of maximum cardinality for every n.
The limiting density of that set is b/(b+g), which is the maximum possible.

Optimality comes from a graph model: put an edge x -> x*(b/g)/(a/g) whenever
the product is an integer at most n.  Every vertex has in- and out-degree at
most one, so [n] splits into disjoint directed paths, and a maximum
independent set takes the vertices at even distance from each path source.
Those vertices are exactly the even subpowers of b/g.

construct_extremal_set sieves the set in one byte per x <= n and keeps it
as that byte mask, so no int object is made per member unless the members
are asked for; is_pair_multiplicative checks the condition on the mask.
build_path_decomposition solves the edge relation for the length of each
path, one byte per source, without building the paths: it is the
independent optimum that pair-construct --verify compares the cardinality
with, and path_alpha reads that optimum off the path lengths.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd


class PairParams(namedtuple("PairParams", "a b g a_red b_red")):
    """A validated pair 1 <= a < b together with its coprime reduction."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, g: int, a_red: int, b_red: int) -> PairParams:
        if not 1 <= a < b:
            raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
        if g != gcd(a, b):
            raise ValueError("g must equal gcd(a, b)")
        if (a_red, b_red) != (a // g, b // g):
            raise ValueError("reduced pair must be (a/g, b/g)")
        return super().__new__(cls, a, b, g, a_red, b_red)


def reduce_pair(a: int, b: int) -> PairParams:
    """Validate 1 <= a < b and divide out the gcd."""
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeError("a and b must be integers")
    g = gcd(a, b) or 1  # gcd(0, 0) == 0; PairParams rejects that pair
    return PairParams(a=a, b=b, g=g, a_red=a // g, b_red=b // g)


class PathDecomposition(namedtuple("PathDecomposition", "params n source_lengths")):
    """Partition of [n] into the maximal chains x -> x*b_red/a_red.

    source_lengths[x] is the number of vertices on the path that starts at
    x, and 0 when x is no source (x = 0 or b_red divides x).  The paths
    themselves are walked on demand by the paths view.
    """

    __slots__ = ()

    @property
    def paths(self) -> Sequence[tuple[int, ...]]:
        """The paths in the order of their sources, as a read-only view."""
        return _PathView(self)


class _PathView(Sequence):
    """The paths of a decomposition, one tuple walked per item read.

    The i-th source is the i-th integer not divisible by b_red, which is
    i + i // (b_red - 1) + 1, so the length is n - n // b_red.
    """

    def __init__(self, decomposition: PathDecomposition) -> None:
        self._d = decomposition

    def __len__(self) -> int:
        return self._d.n - self._d.n // self._d.params.b_red

    def __getitem__(self, index: int) -> tuple[int, ...]:
        size = len(self)
        if not -size <= index < size:
            raise IndexError("path index out of range")
        index %= size
        a, b = self._d.params.a_red, self._d.params.b_red
        v = index + index // (b - 1) + 1
        path = [v]
        for _ in range(self._d.source_lengths[v] - 1):
            v = v // a * b
            path.append(v)
        return tuple(path)


class ExtremalPairSet(namedtuple("ExtremalPairSet", "n mask")):
    """The even subpowers of b_red inside [n], as a byte mask over [0, n].

    mask[x] is 1 when x is a member and 0 otherwise; mask[0] is 0.  The
    members are read off the mask, in ascending order, only when asked for.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: bytes) -> ExtremalPairSet:
        if not isinstance(mask, bytes):
            raise TypeError("mask must be bytes")
        if len(mask) != n + 1:
            raise ValueError(f"mask must hold n + 1 = {n + 1} bytes, got {len(mask)}")
        if mask[:1] != b"\x00":
            raise ValueError("0 cannot be a member")
        if mask.count(0) + mask.count(1) != len(mask):
            raise ValueError("mask bytes must be 0 or 1")
        return super().__new__(cls, n, mask)

    @property
    def cardinality(self) -> int:
        return self.mask.count(1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(compress(range(self.n + 1), self.mask))


def construct_extremal_set(params: PairParams, n: int) -> ExtremalPairSet:
    """Maximum-cardinality {a,b}-multiplicative subset of [n].

    Marks the parity of v_b(x), b = b_red, in one byte per x <= n: the
    multiples of b**i are overwritten with (i even) for i = 1, 2, ...,
    one slice per power, so the last write to x is at i = v_b(x).  Total
    work is O(n).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    b = params.b_red
    mask = bytearray(b"\x00" + b"\x01" * n)
    power, even = b, 0
    while power <= n:
        mask[power::power] = bytes((even,)) * (n // power)
        power *= b
        even ^= 1
    return ExtremalPairSet(n=n, mask=bytes(mask))


def is_pair_multiplicative(
    members: ExtremalPairSet | Iterable[int], a: int, b: int
) -> bool:
    """True iff no x, y in the set satisfy a*x == b*y.

    With a, b reduced by their gcd, a*x == b*y holds exactly when x == b*t
    and y == a*t for some t >= 1, and t <= top // b for any top at least
    the largest member.  So on a byte mask of the set over [0, top] the
    condition is one AND of the strided slices mask[b*t] and mask[a*t],
    t = 1 .. top // b, read as integers.  An ExtremalPairSet is checked on
    its own mask, with top = n; any other set is first marked in a mask
    over [0, max(members)], about one byte per integer up to its largest
    member.  Either way the rest is the two slices.
    """
    if not 1 <= a < b:
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
    if isinstance(members, ExtremalPairSet):
        mask = members.mask
    else:
        if not isinstance(members, Collection):
            members = tuple(members)
        if not members:
            return True
        if min(members) < 1:
            raise ValueError("set members must be positive")
        mask = bytearray(max(members) + 1)
        for x in members:
            mask[x] = 1
    g = gcd(a, b)
    a, b = a // g, b // g
    k = (len(mask) - 1) // b
    high = int.from_bytes(mask[b : b * k + 1 : b], "big")
    low = int.from_bytes(mask[a : a * k + 1 : a], "big")
    return not high & low


# byte i -> i + 1; no path length comes near 255
_INCREMENT = bytes(range(1, 256)) + b"\xff"


def build_path_decomposition(params: PairParams, n: int) -> PathDecomposition:
    """Split [n] into maximal directed paths under x -> x*b_red/a_red.

    The edges are a_red*t -> b_red*t for t <= n // b_red, so the number of
    vertices on the path from x onward satisfies
    length[a_red*t] = 1 + length[b_red*t] and is 1 at every other x.
    Starting from all ones, one round applies that relation to every t at
    once: a strided slice read, a +1 byte table, a strided slice write.
    After r rounds each entry is min(length, r + 1), so the rounds stop
    changing the array after as many rounds as the longest path has edges,
    and the array they stop at is the unique solution, since every edge
    goes up.  The vertex at distance d from its source is a multiple of
    b_red**d, so a path has at most log2(n) + 1 vertices, far below 256 for
    any n that fits in memory: one byte per vertex holds its length, and
    there are at most that many rounds of O(n / b_red) work each.  Sources
    are exactly the integers not divisible by b_red; the other entries are
    zeroed.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    a, b = params.a_red, params.b_red
    k = n // b
    length = bytearray(b"\x00" + b"\x01" * n)
    while True:
        longer = length[b::b].translate(_INCREMENT)
        if longer == length[a : a * k + 1 : a]:
            break
        length[a : a * k + 1 : a] = longer
    length[b::b] = bytes(k)
    return PathDecomposition(params=params, n=n, source_lengths=bytes(length))


def path_alpha(decomposition: PathDecomposition) -> int:
    """Independence number of the path graph: sum of ceil(len/2) per path.

    The sources are counted by path length at C speed, for lengths 1, 2,
    ... until the counts cover every source, so the sum has one term per
    length up to the longest path.
    """
    lengths = decomposition.source_lengths
    uncounted = len(decomposition.paths)
    alpha = length = 0
    while uncounted > 0:
        length += 1
        sources = lengths.count(length)
        alpha += (length + 1) // 2 * sources
        uncounted -= sources
    return alpha


def pair_density(params: PairParams) -> Fraction:
    """Maximum density of an {a,b}-multiplicative set: b/(b+g)."""
    return Fraction(params.b, params.b + params.g)
