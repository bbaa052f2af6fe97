"""The boundary rules of ``treea1.rationals``, checked through every argument that uses them."""
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from treea1 import (
    ExtremalParams, ParameterError, SearchConfig, check_weak_type, decimal_string, extremal_exact,
    family_constant_formula, fuzz_campaign, make_shape, random_weight, refine, scale, sharpness_sweep,
)
from treea1.rationals import _exact_string

# (argument name as the message gives it, least value, call with the value under test)
COUNT_ARGUMENTS = [
    ("homogeneity k", 2, lambda v: make_shape(v, 2)),
    ("depth m", 1, lambda v: make_shape(2, v)),
    ("refinement levels", 1, lambda v: refine(extremal_exact(2, 2), v)),
    ("seed", 0, lambda v: random_weight(make_shape(2, 1), v, [1])),
    ("depth", 2, lambda v: ExtremalParams.from_constant(2, 2, Fraction(1, 4), v)),
    ("homogeneity k", 2, lambda v: family_constant_formula(v, 3, 1, Fraction(1, 8))),
    ("trials", 0, lambda v: fuzz_campaign(2, 1, v, 0, [1])),
    ("threads", 1, lambda v: fuzz_campaign(2, 1, 1, 0, [1], threads=v)),
    ("family depth", 2, lambda v: sharpness_sweep(2, 2, [v])),
    ("iterations", 1, lambda v: SearchConfig(make_shape(2, 2), v, 1, 0)),
    ("restarts", 1, lambda v: SearchConfig(make_shape(2, 2), 1, v, 0)),
]
_WORDS = {0: "a non-negative integer", 1: "a positive integer"}


@pytest.mark.parametrize("name, least, call", COUNT_ARGUMENTS, ids=[f"{i}-{a[0]}" for i, a in enumerate(COUNT_ARGUMENTS)])
def test_every_count_argument_refuses_bools_floats_and_values_below_its_least(name, least, call):
    what = _WORDS.get(least, f"an integer >= {least}")
    for value in (True, 2.0, least - 1):
        with pytest.raises(ParameterError, match=f"^{re.escape(f'{name} must be {what}, got {value!r}')}$"):
            call(value)


@pytest.mark.parametrize("call, message", [
    (lambda v: scale(extremal_exact(2, 2), v), "scale factor must be positive, got {}"),
    (lambda v: random_weight(make_shape(2, 1), 0, [v, 1]), "grid values must be positive, got {}"),
    (lambda v: ExtremalParams.from_alpha(2, 3, v, Fraction(1, 4), 2), "eps must be positive, got {}"),
    (lambda v: check_weak_type(extremal_exact(2, 2), v), "weak-type level must be positive, got {}"),
])
def test_every_single_value_positive_argument_refuses_zero_and_negatives(call, message):
    for value in (0, "-1/3"):
        with pytest.raises(ParameterError, match=f"^{re.escape(message.format(Fraction(value)))}$"):
            call(value)


@given(st.integers(10**11, 10**12 - 1), st.integers(320, 3000), st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
@example(10**12 - 1, 320, -1, 1)  # rounds up into a thirteenth digit
@example(10**11, 320, 1, -1)  # an even m keeps its last digit
def test_a_decimal_tie_outside_the_floats_rounds_half_to_even(m, size, direction, sign):
    # m + 1/2 has 12 digits before its 5, so .12g rounds at the tie: to m if m is even, else to m + 1
    e = direction * size
    rounded = str(m + m % 2)  # 10**12 when m = 10**12 - 1 carries into a thirteenth digit
    mantissa = f"{rounded[0]}.{rounded[1:]}".rstrip("0").rstrip(".")
    expected = f"{'-' if sign < 0 else ''}{mantissa}e{e + len(rounded) - 1:+03d}"
    assert decimal_string(sign * Fraction(2 * m + 1, 2) * Fraction(10) ** e) == expected


def test_the_exact_renderer_refuses_a_value_python_cannot_write(int_str_limit):
    assert _exact_string(Fraction(-3, 7)) == "-3/7"
    huge = Fraction(1, 10**2999 + 1) * Fraction(1, 10**2999 + 3)  # a denominator of 5,999 digits
    message = f"exact value 1e-5998 has a numerator or denominator of more than {int_str_limit} digits"
    with pytest.raises(ParameterError, match=f"^{message}, Python's limit for writing an int$"):
        _exact_string(huge)
