"""Extremal multiplicative-Sidon-type set densities, computed exactly.

Two solved regimes:

* pairs 1 <= a < b: an explicit maximum-cardinality set inside [n] for
  every n, its optimality certificate from the path decomposition of [n],
  and the exact maximum density b/(b + gcd(a, b));
* pairwise coprime triples 1 < a < b < c with the condition that
  a*x = b*y and a*x = c*y have no solutions in the set: a certified
  rational interval of any requested width around the maximum density.

All arithmetic is exact (arbitrary-precision integers and fractions);
multsidon.oracle re-solves the triple components by matching.

Importing the package loads none of its modules.  Each name below is
imported from its home module (components, density, oracle or pair_sidon)
when it is first read, so `from multsidon import f_table` loads components
alone.  The two exceptions live here, so that the CLI can catch them
without loading the layers that raise them.
"""

__version__ = "0.1.0"


class VerificationError(Exception):
    """An internal cross-check failed; indicates a construction bug."""


class ConvergenceError(RuntimeError):
    """The truncated decimal did not stabilise within the cutoff limit."""


_HOMES = {
    name: home
    for home, names in (
        ("components", "TripleParams admissible_count admissible_density alpha_complete "
                       "f_table f_value q_copy_alpha"),
        ("density", "ConvergenceEstimate DensityInterval approximate_density choose_cutoff "
                    "convergence_estimate delta_complete delta_small tail_bound"),
        ("oracle", "empirical_density"),
        ("pair_sidon", "ExtremalPairSet PairParams PathDecomposition build_path_decomposition "
                       "construct_extremal_set is_pair_multiplicative pair_density path_alpha "
                       "reduce_pair"),
    )
    for name in names.split()
}

__all__ = sorted([*_HOMES, "ConvergenceError", "VerificationError"])


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
