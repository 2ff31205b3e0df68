"""Exact rational formatting helpers.

All quantities in this package are Fractions; floats never enter any
computation.  Decimal strings are produced by explicit quotient expansion
and are always truncated toward zero, so a printed decimal is a certified
lower rendering of the exact nonnegative value it labels.
"""

from __future__ import annotations


def format_rational(x: Fraction) -> str:
    """Serialise as 'numerator/denominator', e.g. Fraction(1) -> '1/1'."""
    return f"{x.numerator}/{x.denominator}"


def truncated_decimal(x: Fraction, digits: int) -> str:
    """Decimal expansion of x >= 0 cut after `digits` fractional digits."""
    if x < 0:
        raise ValueError("only nonnegative values are rendered")
    if digits < 0:
        raise ValueError("digits must be >= 0")
    whole, rem = divmod(x.numerator, x.denominator)
    if digits == 0:
        return str(whole)
    frac = rem * 10**digits // x.denominator
    return f"{whole}.{frac:0{digits}d}"
