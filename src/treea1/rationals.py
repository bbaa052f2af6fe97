"""Exact rational coercion and formatting: the package's boundary rules.

Every quantity this package takes or reports is an exact ``fractions.Fraction``
(the kernel in ``maximal`` works on ints at one common scale); floats are
rejected at the boundary so no rounding can sneak into a comparison.  This
module holds each rule of that boundary once:

* :func:`as_fraction` coerces an exact rational and refuses floats and huge
  decimal exponents; :func:`_positive` and :func:`_check_t` add a range.
* :func:`_check_int` is the rule for every count argument (depths, trials,
  threads, seeds, ...): an int, not a bool, at least some least value.
* :func:`_exact_string` writes an exact value as ``p/q``, or refuses one whose
  digits exceed Python's int-to-str limit with ``ParameterError``.
* :func:`decimal_string` writes the lossy ``_dec`` rendering, rounding a
  value outside the normal floats once, half to even, with ``decimal``.
"""
from __future__ import annotations

import math
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context
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


def _check_int(value, name: str, least: int) -> int:
    """``value`` if it is an int, not a bool, of at least ``least``; else ParameterError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        what = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        raise ParameterError(f"{name} must be {what}, got {value!r}")
    return value


def _positive(value, name: str) -> Fraction:
    """``value`` as an exact rational if it is above 0; else ParameterError naming ``name``."""
    value = as_fraction(value)
    if value <= 0:
        raise ParameterError(f"{name} must be positive, got {value}")
    return value


def _check_t(t) -> Fraction:
    t = as_fraction(t)
    if not (0 < t <= 1):
        raise ParameterError(f"t must lie in (0, 1], got {t}")
    return t


def _exact_string(value: Fraction) -> str:
    """``str(value)``, the exact ``p/q`` rendering, of a value whose digits Python can write.

    Python refuses to write an int of more digits than its int-to-str limit
    (4,300 by default).  A value whose numerator or denominator is that long
    is refused here with ParameterError, named by its decimal rendering,
    which needs no int string.
    """
    try:
        return str(value)
    except ValueError:  # only Pythons with the limit, so with sys.get_int_max_str_digits, raise here
        raise ParameterError(
            f"exact value {decimal_string(value)} has a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for writing an int"
        ) from None


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
    in scientific notation, with its trailing zeros trimmed.  One ``decimal``
    division rounds the exact quotient once, in a context that holds any exponent.
    """
    context = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX)
    mantissa, exponent = f"{context.divide(value.numerator, value.denominator).normalize(context):e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"  # g writes at least two exponent digits
