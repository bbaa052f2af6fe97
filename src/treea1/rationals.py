"""Exact rational coercion and formatting.

Every quantity this package takes or reports is an exact ``fractions.Fraction``
(the kernel in ``maximal`` works on ints at one common scale); floats are
rejected at the boundary so no rounding can sneak into a comparison.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' / decimal string to an exact Fraction.

    Floats are refused: their binary expansion is almost never the rational
    the caller meant, and exactness is the whole point here.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise ParameterError(
            f"expected an exact rational (int, Fraction or 'p/q' string), got {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParameterError(f"not a rational value: {value!r}") from exc


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Lossy decimal rendering for human-readable report columns."""
    return f"{float(value):.{digits}g}"
