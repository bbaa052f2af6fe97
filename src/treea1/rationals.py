"""Exact rational coercion and formatting.

Every quantity this package takes or reports is an exact ``fractions.Fraction``
(the kernel in ``maximal`` works on ints at one common scale); floats are
rejected at the boundary so no rounding can sneak into a comparison.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ParameterError

# Largest decimal exponent, in absolute value, a string may carry: Fraction
# would form 10**exponent, so '1e999999999' is refused before it is called.
MAX_DECIMAL_EXPONENT = 1000
_DIGITS = 12  # significant digits of the lossy decimal columns
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


def _check_t(t) -> Fraction:
    t = as_fraction(t)
    if not (0 < t <= 1):
        raise ParameterError(f"t must lie in (0, 1], got {t}")
    return t


def decimal_string(value: Fraction) -> str:
    """Lossy decimal rendering for human-readable report columns, in ``.12g`` style.

    A value with a normal float is rendered through ``float``.  One that
    overflows the floats, or a nonzero one below the normal floats (where a
    float would keep fewer digits, or none), is rounded exactly instead.
    """
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf
    if sys.float_info.min <= abs(approx) < math.inf or value == 0:
        return f"{approx:.{_DIGITS}g}"
    return _exact_decimal_string(Fraction(value), _DIGITS)


def _exact_decimal_string(value: Fraction, digits: int) -> str:
    """``format(value, f".{digits}g")`` of a nonzero rational, rounded half to even without a float.

    Only values outside the normal floats come here, and ``g`` writes those
    in scientific notation, with its trailing zeros trimmed.
    """
    sign, value = ("-" if value < 0 else ""), abs(value)
    # the decimal exponent: 10**exponent <= value < 10**(exponent + 1); the bit lengths give it to within 1
    exponent = int((value.numerator.bit_length() - value.denominator.bit_length()) * math.log10(2))
    while Fraction(10) ** exponent > value:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= value:
        exponent += 1
    mantissa = round(value / Fraction(10) ** (exponent - digits + 1))
    if mantissa == 10**digits:  # rounding carried into one more digit
        mantissa, exponent = 10 ** (digits - 1), exponent + 1
    text = str(mantissa)
    return f"{sign}{text[0]}.{text[1:]}".rstrip("0").rstrip(".") + f"e{exponent:+03d}"
