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
as that byte mask, with no int object per member; is_pair_multiplicative
checks the condition on that mask, for the reduced pair of a PairParams.
build_path_decomposition solves the edge relation in one sweep for the
path length from each vertex onward, one byte per vertex, without building
the paths: the independent optimum that pair-construct --verify compares
the cardinality with, which path_alpha counts off the odd lengths.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
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


class PathDecomposition(namedtuple("PathDecomposition", "params n lengths")):
    """Partition of [n] into the maximal chains x -> x*b_red/a_red.

    lengths[x] is the number of vertices on x's path from x onward, x
    included, for every 1 <= x <= n, and lengths[0] is 0.  At a source (an
    x not divisible by b_red) it is the whole path's length.  The paths
    themselves are walked on demand by the paths view.
    """

    __slots__ = ()

    @property
    def paths(self) -> _PathView:
        """The paths in the order of their sources, as a read-only view."""
        return _PathView(self)


class _PathView:
    """The paths of a decomposition, one tuple walked per path read.

    The sources are the integers not divisible by b_red, so there are
    n - n // b_red of them.
    """

    def __init__(self, decomposition: PathDecomposition) -> None:
        self._d = decomposition

    def __len__(self) -> int:
        return self._d.n - self._d.n // self._d.params.b_red

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        a, b = self._d.params.a_red, self._d.params.b_red
        for source in range(1, self._d.n + 1):
            if source % b:
                path = [source]
                for _ in range(self._d.lengths[source] - 1):
                    path.append(path[-1] // a * b)
                yield tuple(path)


class ExtremalPairSet(namedtuple("ExtremalPairSet", "n mask")):
    """The even subpowers of b_red inside [n], as a byte mask over [0, n].

    mask[x] is 1 when x is a member and 0 otherwise; mask[0] is 0.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: bytes) -> ExtremalPairSet:
        if not isinstance(mask, bytes):
            raise TypeError("mask must be bytes")
        if len(mask) != n + 1:
            raise ValueError(f"mask must hold n + 1 = {n + 1} bytes, got {len(mask)}")
        if mask[:1] != b"\x00":
            raise ValueError("0 cannot be a member")
        if mask.translate(None, b"\x00\x01"):
            raise ValueError("mask bytes must be 0 or 1")
        return super().__new__(cls, n, mask)

    @property
    def cardinality(self) -> int:
        return self.mask.count(1)


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
    mask = bytearray(b"\x01") * (n + 1)
    mask[0] = 0
    power, even = b, 0
    while power <= n:
        mask[power::power] = bytes((even,)) * (n // power)
        power *= b
        even ^= 1
    return ExtremalPairSet(n=n, mask=bytes(mask))


def is_pair_multiplicative(extremal: ExtremalPairSet, params: PairParams) -> bool:
    """True iff no x, y in the set satisfy params.a*x == params.b*y.

    With a, b = params.a_red, params.b_red, a*x == b*y holds exactly when
    x == b*t and y == a*t for some t >= 1, and t <= n // b for members up to
    n.  So the condition is one AND of the strided slices mask[b*t] and
    mask[a*t], t = 1 .. n // b, of the set's own mask, read as integers.
    Only an ExtremalPairSet is accepted; oracle.general_multiplicative_witness
    answers the same question for any finite set, with A = {a}, B = {b}.
    """
    if not isinstance(extremal, ExtremalPairSet):
        raise TypeError("is_pair_multiplicative checks an ExtremalPairSet")
    a, b = params.a_red, params.b_red
    k = extremal.n // b
    high = int.from_bytes(extremal.mask[b : b * k + 1 : b], "big")
    low = int.from_bytes(extremal.mask[a : a * k + 1 : a], "big")
    return not high & low


# byte i -> i + 1; no path length comes near 255
_INCREMENT = bytes(range(1, 256)) + b"\xff"
_ODD = bytes(range(2)) * 128  # byte i -> i % 2


def build_path_decomposition(params: PairParams, n: int) -> PathDecomposition:
    """Split [n] into maximal directed paths under x -> x*b_red/a_red.

    The edges are a_red*t -> b_red*t for t <= n // b_red, so the number of
    vertices on the path from x onward satisfies
    length[a_red*t] = 1 + length[b_red*t] and is 1 at every other x.  One
    sweep down in t solves it, in chunks (lo, hi] from hi = n // b_red down
    to 0, with lo = a_red*(hi // b_red).  As the pair is coprime, a read
    b_red*t is also a write a_red*t' only if a_red divides t and t' =
    b_red*t/a_red; that write is in this chunk or a later one only if
    t' <= hi, that is t <= lo.  So the reads are final, and one strided
    read, a +1 byte table and one strided write settle the chunk.  Each t
    is touched once, O(n / b_red) work after the O(n) fill with ones, in at
    most n // b_red**2 + 1 chunks (hi // b_red falls per chunk).  A vertex
    at distance d from its source is a multiple of b_red**d, so a path has
    at most log2(n) + 1 < 256 vertices: one byte holds each length.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    a, b = params.a_red, params.b_red
    length = bytearray(b"\x01") * (n + 1)
    length[0] = 0
    hi = n // b
    while hi:
        lo = a * (hi // b)
        longer = length[b * lo + b : b * hi + 1 : b].translate(_INCREMENT)
        length[a * lo + a : a * hi + 1 : a] = longer
        hi = lo
    return PathDecomposition(params=params, n=n, lengths=bytes(length))


def path_alpha(decomposition: PathDecomposition) -> int:
    """Independence number of the path graph: sum of ceil(len/2) per path.

    Along a path of L vertices the lengths from each vertex onward are
    L, L - 1, ..., 1, and ceil(L/2) of them are odd, so the sum counts the
    odd lengths: 1 at the n - k vertices with no out-edge, k = n // b_red,
    and the k others, a_red*t, by one strided read, a byte table, a count.
    Those vertices, at even distance from each path's end, are another
    maximum independent set than the even subpowers whenever L is even,
    found from the edge relation alone, never from v_b, so the count stays
    independent of the sieve.
    """
    a, k = decomposition.params.a_red, decomposition.n // decomposition.params.b_red
    return decomposition.n - k + decomposition.lengths[a : a * k + 1 : a].translate(_ODD).count(1)


def pair_density(params: PairParams) -> Fraction:
    """Maximum density of an {a,b}-multiplicative set: b/(b+g)."""
    from fractions import Fraction

    return Fraction(params.b, params.b + params.g)
