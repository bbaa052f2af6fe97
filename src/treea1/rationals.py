"""Exact rational coercion and formatting.

Every quantity this package takes or reports is an exact ``fractions.Fraction``
(the kernel in ``maximal`` works on ints at one common scale); floats are
rejected at the boundary so no rounding can sneak into a comparison.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParameterError

# Largest decimal exponent, in absolute value, a string may carry: Fraction
# would form 10**exponent, so '1e999999999' is refused before it is called.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)  # Fraction's exponent syntax


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' / decimal string to an exact Fraction.

    Floats are refused: their binary expansion is almost never the rational
    the caller meant, and exactness is the whole point here.  So is a decimal
    exponent above ``MAX_DECIMAL_EXPONENT`` in absolute value.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise ParameterError(
            f"expected an exact rational (int, Fraction or 'p/q' string), got {value!r}"
        )
    match = _EXPONENT.search(value) if isinstance(value, str) else None
    digits = match.group(1).replace("_", "").lstrip("0") if match else ""
    # the length test comes first, so int() never parses a huge digit string
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise ParameterError(f"decimal exponent in {value!r} is above {MAX_DECIMAL_EXPONENT} in absolute value")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParameterError(f"not a rational value: {value!r}") from exc


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Lossy decimal rendering for human-readable report columns."""
    return f"{float(value):.{digits}g}"
