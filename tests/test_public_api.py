"""The package's public names and the records it returns.

Every public function and class in src/multsidon is used by the package:
a top-level def or class whose name has no leading underscore must appear
as a name or an attribute somewhere in the package's modules.  __init__ is
left out, since it re-exports every public name.  Helpers that only the
tests need live in tests/claims.py instead.

The package namespace is lazy: each exported name resolves to the object
of its home module on first use.  The records are immutable named tuples
that validate their fields when built, and the functions refuse arguments
outside their domain with a message that names the argument.
"""

import ast
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import multsidon
from multsidon import density, oracle
from multsidon.components import TripleParams
from multsidon.pair_sidon import ExtremalPairSet, PairParams, reduce_pair
from multsidon.rational import truncated_decimal

import claims

SRC = Path(__file__).resolve().parent.parent / "src" / "multsidon"
T235 = TripleParams(2, 3, 5)


def test_every_public_definition_is_used_in_src():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"public names used only outside src: {', '.join(unused)}"


# The names the package exported when __init__ imported every module, less the
# names moved to tests/claims.py below.
EXPORTS = {
    "components": ("TripleParams", "admissible_count", "admissible_density", "alpha_complete",
                   "f_table", "q_copy_alpha"),
    "density": ("ConvergenceEstimate", "DensityInterval", "approximate_density",
                "choose_cutoff", "convergence_estimate", "delta_complete", "delta_small",
                "tail_bound"),
    "oracle": ("VerificationError", "empirical_density"),
    "pair_sidon": ("ExtremalPairSet", "PairParams", "PathDecomposition",
                   "build_path_decomposition", "construct_extremal_set",
                   "is_pair_multiplicative", "pair_density", "path_alpha", "reduce_pair"),
}


@pytest.mark.parametrize(
    "home, name", [(home, name) for home, names in EXPORTS.items() for name in names]
)
def test_every_export_is_its_home_modules_object(home, name):
    namespace = {}
    exec(f"from multsidon import {name}", namespace)
    assert namespace[name] is getattr(import_module(f"multsidon.{home}"), name)
    assert name in dir(multsidon) and name in multsidon.__all__


# The labelled component report, the truncated component with its values,
# the two reference solvers of the verifier's matcher and the single step
# value f_value, which only the tests read, live in tests/claims.py.
MOVED_TO_CLAIMS = ("ComponentId", "ComponentInstance", "ComponentSummary", "FiniteGraphReport",
                   "cell_count", "classify_component", "component_instance",
                   "exact_alpha_exhaustive", "exact_alpha_matching", "f_value",
                   "finite_graph_report")


@pytest.mark.parametrize("name", MOVED_TO_CLAIMS)
def test_moved_name_lives_in_claims_only(name):
    assert name not in multsidon.__all__ and name not in dir(multsidon)
    with pytest.raises(ImportError):
        exec(f"from multsidon import {name}", {})
    assert getattr(claims, name).__module__ == "claims"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'f_tables'"):
        multsidon.f_tables
    with pytest.raises(ImportError):
        exec("from multsidon import f_tables", {})


def test_exceptions_are_the_packages():
    assert oracle.VerificationError is multsidon.VerificationError
    assert density.ConvergenceError is multsidon.ConvergenceError
    assert {"VerificationError", "ConvergenceError"} <= set(multsidon.__all__)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: TripleParams(3, 2, 5), ValueError, r"need 1 < a < b < c, got \(3, 2, 5\)"),
        (lambda: TripleParams(a=2, b=4, c=5), ValueError, "2 and 4 are not coprime"),
        (lambda: PairParams(3, 2, 1, 3, 2), ValueError, "need 1 <= a < b, got a=3, b=2"),
        (lambda: PairParams(2, 4, 1, 2, 4), ValueError, r"g must equal gcd\(a, b\)"),
        (lambda: PairParams(a=2, b=4, g=2, a_red=2, b_red=4), ValueError,
         r"reduced pair must be \(a/g, b/g\)"),
        (lambda: reduce_pair(2.0, 3), TypeError, "a and b must be integers"),
        (lambda: ExtremalPairSet(n=2, mask=bytearray(3)), TypeError, "mask must be bytes"),
        (lambda: ExtremalPairSet(3, b"\x00\x01"), ValueError,
         r"mask must hold n \+ 1 = 4 bytes, got 2"),
        (lambda: ExtremalPairSet(1, b"\x01\x01"), ValueError, "0 cannot be a member"),
        (lambda: ExtremalPairSet(1, b"\x00\x02"), ValueError, "mask bytes must be 0 or 1"),
        (lambda: TripleParams(2, 3), TypeError, "missing 1 required positional argument"),
    ],
)
def test_records_validate_when_built(build, error, message):
    with pytest.raises(error, match=message):
        build()



@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: multsidon.alpha_complete(-1), ValueError, "height must be >= 0, got -1"),
        (lambda: multsidon.f_table(T235, -1), ValueError, "height must be >= 0, got -1"),
        (lambda: multsidon.admissible_count(T235, -1), ValueError,
         "limit must be >= 0, got -1"),
        (lambda: multsidon.delta_small(T235, -1), ValueError, "cutoff must be >= 0, got -1"),
        (lambda: multsidon.tail_bound(T235, -1), ValueError, "cutoff must be >= 0, got -1"),
        (lambda: next(oracle.component_ids(T235, 0)), ValueError, "n must be positive, got 0"),
        (lambda: multsidon.construct_extremal_set(reduce_pair(2, 3), 0), ValueError,
         "n must be positive, got 0"),
        (lambda: multsidon.build_path_decomposition(reduce_pair(2, 3), 0), ValueError,
         "n must be positive, got 0"),
        (lambda: oracle.general_multiplicative_witness([0, 1], [2], [3]), ValueError,
         "all inputs must be positive"),
        (lambda: truncated_decimal(Fraction(-1, 2), 3), ValueError,
         "only nonnegative values are rendered"),
        (lambda: truncated_decimal(Fraction(1, 2), -1), ValueError, "digits must be >= 0"),
    ],
)
def test_library_refuses_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "record, field",
    [
        (TripleParams(2, 3, 5), "a"),
        (reduce_pair(4, 6), "g"),
        (ExtremalPairSet(1, b"\x00\x01"), "mask"),
        (density.approximate_density(TripleParams(2, 3, 5), cutoff=4), "lower"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_params_are_equal_and_hash_alike():
    first, second = TripleParams(2, 3, 5), TripleParams(a=2, b=3, c=5)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == "TripleParams(a=2, b=3, c=5)"


def test_density_interval_width():
    interval = density.approximate_density(TripleParams(2, 3, 5), cutoff=20)
    assert interval.upper - interval.lower == interval.tail_bound
    assert isinstance(interval.upper - interval.lower, Fraction)
