"""Extremal multiplicative-Sidon-type set densities, computed exactly.

Two solved regimes:

* pairs 1 <= a < b: an explicit maximum-cardinality set inside [n] for
  every n, its optimality certificate from the path decomposition of [n],
  and the exact maximum density b/(b + gcd(a, b));
* pairwise coprime triples 1 < a < b < c with the condition that
  a*x = b*y and a*x = c*y have no solutions in the set: a certified
  rational interval of any requested width around the maximum density.

All arithmetic is exact (arbitrary-precision integers and fractions);
independent brute-force and matching oracles live in multsidon.oracle.
"""

from .components import (
    ComponentId,
    TripleParams,
    admissible_count,
    admissible_density,
    alpha_complete,
    classify_component,
    f_table,
    f_value,
    q_copy_alpha,
)
from .density import (
    ConvergenceEstimate,
    DensityInterval,
    approximate_density,
    choose_cutoff,
    convergence_estimate,
    delta_complete,
    delta_small,
    tail_bound,
)
from .oracle import (
    ComponentInstance,
    ComponentSummary,
    FiniteGraphReport,
    VerificationError,
    empirical_density,
    exact_alpha_exhaustive,
    exact_alpha_matching,
    finite_graph_report,
)
from .pair_sidon import (
    ExtremalPairSet,
    PairParams,
    PathDecomposition,
    build_path_decomposition,
    construct_extremal_set,
    is_pair_multiplicative,
    pair_density,
    path_alpha,
    reduce_pair,
)

__version__ = "0.1.0"
