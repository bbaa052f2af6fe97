"""Shared hypothesis strategies and fixtures for the test suite."""
import sys
from fractions import Fraction

import pytest
from hypothesis import Phase, settings, strategies as st

from treea1 import make_shape, make_step_weight

settings.register_profile("treea1", deadline=None, max_examples=50)
# for tools/mutants.py, which needs a failure, not its shrunk form: chosen on its pytest command line only
settings.register_profile("treea1-no-shrink", settings.get_profile("treea1"),
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("treea1")

positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(12), max_denominator=12
)


@st.composite
def step_weights(draw, ks=(2, 3), max_depth=3, values=positive_rationals):
    """Random step weight on a small tree with small positive rational values."""
    k = draw(st.sampled_from(ks))
    m = draw(st.integers(min_value=1, max_value=max_depth))
    shape = make_shape(k, m)
    leaf_values = draw(
        st.lists(values, min_size=shape.leaf_count, max_size=shape.leaf_count)
    )
    return make_step_weight(shape, leaf_values)


@st.composite
def nodes_of(draw, shape):
    level = draw(st.integers(min_value=0, max_value=shape.m))
    index = draw(st.integers(min_value=0, max_value=shape.k**level - 1))
    return level, index


@pytest.fixture
def int_str_limit():
    """Python's default int-to-str limit, 4,300 digits, for one test; the limit before it is restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python writes ints of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)
