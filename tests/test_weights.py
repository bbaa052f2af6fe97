import operator
import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from conftest import positive_rationals, step_weights
from treea1 import (
    MAX_DECIMAL_EXPONENT,
    ROOT,
    ExtremalParams,
    ParameterError,
    StepWeight,
    a1_constant,
    analyze,
    as_fraction,
    average,
    decimal_string,
    extremal_exact,
    extremal_family,
    family_constant_formula,
    make_shape,
    make_step_weight,
    random_weight,
    rearrange,
    refine,
    scale,
    sup_ratio,
    weight_from_text,
    weight_hash,
    weight_to_text,
)
from treea1.rationals import _exact_decimal_string
import treea1.verify
import treea1.weights


def test_make_step_weight_accepts_rationals():
    w = make_step_weight(make_shape(2, 1), [1, "3/2"])
    assert w.leaf_values == (Fraction(1), Fraction(3, 2))
    assert average(w, ROOT) == Fraction(5, 4)


def test_make_step_weight_rejects_bad_input():
    shape = make_shape(2, 1)
    with pytest.raises(ParameterError):
        make_step_weight(shape, [1, 2, 3])
    with pytest.raises(ParameterError):
        make_step_weight(shape, [0, 1])
    with pytest.raises(ParameterError):
        make_step_weight(shape, [-1, 1])
    with pytest.raises(ParameterError):
        make_step_weight(shape, [0.5, 1])  # floats are refused


def test_a_non_positive_value_reports_its_first_position():
    shape = make_shape(2, 3)
    bad, zero = Fraction(-2, 3), Fraction(0)
    # the same object at several positions is checked once, and its first position is the one reported
    with pytest.raises(ParameterError, match="position 3 "):
        make_step_weight(shape, [1, 2, 1, bad, 2, bad, bad, 1])
    # of two bad objects, the one that appears first is reported
    with pytest.raises(ParameterError, match="position 2 .*got 0"):
        make_step_weight(shape, [3, 3, zero, bad, zero, bad, 1, 1])
    with pytest.raises(ParameterError, match="position 4 .*got -1"):
        make_step_weight(shape, ["1/2", 3, "1/2", 3, -1, 3, -1, 3])


def test_mixed_inputs_are_coerced_value_by_value():
    half, text = Fraction(1, 2), "3/2"
    w = make_step_weight(make_shape(2, 2), [1, text, half, text])
    assert w.leaf_values == (1, Fraction(3, 2), Fraction(1, 2), Fraction(3, 2))
    assert all(type(v) is Fraction for v in w.leaf_values)
    assert w.leaf_values[2] is half  # a Fraction is kept as it is
    assert w.leaf_values[1] is w.leaf_values[3]  # one string object, coerced once
    assert w.codes == (0, 1, 2, 1) and len(w.palette) == 3
    assert all(v is w.palette[code] for v, code in zip(w.leaf_values, w.codes))
    with pytest.raises(ParameterError):
        make_step_weight(make_shape(2, 1), [half, 0.5])  # a float is still refused


@given(
    st.sampled_from(((2, 1), (2, 3), (3, 2), (2, 4))),
    st.lists(st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30), min_size=1, max_size=6,
             unique=True),
    st.data(),
)
def test_a_weight_is_the_same_from_shared_fresh_or_uncoerced_values(km, distinct, data):
    shape = make_shape(*km)
    n = shape.leaf_count
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    forms = data.draw(st.lists(st.sampled_from(("int", "str", "unreduced")), min_size=n, max_size=n))

    def uncoerced(v, form):
        if form == "int" and v.denominator == 1:
            return v.numerator
        if form == "unreduced":
            return f"{3 * v.numerator}/{3 * v.denominator}"
        return str(v)

    shared = make_step_weight(shape, [distinct[i] for i in picks])
    fresh = make_step_weight(shape, [Fraction(distinct[i].numerator, distinct[i].denominator) for i in picks])
    raw = make_step_weight(shape, [uncoerced(distinct[i], form) for i, form in zip(picks, forms)])
    assert len(shared.palette) == len(set(picks))
    tables = {(a.unit, a.scaled_averages, a.scaled_maximal, a.c) for a in map(analyze, (shared, fresh, raw))}
    assert len(tables) == 1
    assert shared == fresh == raw
    assert weight_to_text(shared).encode() == weight_to_text(fresh).encode() == weight_to_text(raw).encode()
    assert weight_hash(shared) == weight_hash(fresh) == weight_hash(raw)
    for w in (shared, fresh, raw):
        assert len(w.codes) == n
        assert all(v is w.palette[code] for v, code in zip(w.leaf_values, w.codes))


@given(
    st.sampled_from(((2, 1), (2, 3), (3, 2), (2, 4))),
    st.lists(st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30), min_size=1, max_size=6,
             unique=True),
    st.integers(0, 2**64),
    st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30).filter(bool),
    st.data(),
)
def test_a_weight_built_from_its_codes_equals_the_identity_pass(km, distinct, seed, factor, data):
    """Drawn, enumerated, parsed, scaled and refined weights, built from their codes, equal the identity pass's."""
    shape = make_shape(*km)
    grid = treea1.weights._canonical_grid(distinct)
    drawn = random_weight(shape, seed, grid)
    index = data.draw(st.integers(0, len(grid) ** shape.leaf_count - 1))
    built = (
        drawn,
        random_weight(shape, seed, range(1, 300)),  # a grid past 255 values draws whole words
        treea1.verify._campaign_weight(shape, grid, None, index),
        weight_from_text(weight_to_text(drawn)),
        weight_from_text(" ".join([str(km[0]), str(km[1]), *(f"{2 * v.numerator}/{2 * v.denominator}"
                                                           for v in drawn.leaf_values)])),
        scale(drawn, factor),
        refine(drawn, data.draw(st.integers(1, 2))),
    )
    for w in built:
        rebuilt = StepWeight(w.shape, w.leaf_values)
        assert len(w.palette) == len(rebuilt.palette)
        assert all(map(operator.is_, w.palette, rebuilt.palette))
        assert w.codes == rebuilt.codes and type(w.codes) is tuple
        assert w.leaf_values == rebuilt.leaf_values and type(w.leaf_values) is tuple
        a, b = analyze(w), analyze(rebuilt)
        assert (a.unit, a.scaled_averages, a.scaled_maximal, a.c) == (b.unit, b.scaled_averages, b.scaled_maximal, b.c)
        assert weight_to_text(w) == weight_to_text(rebuilt)
        assert weight_hash(w) == weight_hash(rebuilt)


def test_decimal_string_rounds_values_outside_the_normal_floats_exactly():
    assert decimal_string(Fraction(10) ** 400) == "1e+400"
    assert decimal_string(Fraction(1, 10**400)) == "1e-400"
    assert decimal_string(-Fraction(7, 3) * 10**500) == "-2.33333333333e+500"
    assert decimal_string(Fraction(10**13 - 1, 10**13) * 10**400) == "1e+400"  # rounds up into a new digit
    assert decimal_string(Fraction(1, 10**320)) == "1e-320"  # a subnormal float keeps fewer digits
    assert decimal_string(Fraction(2, 3)) == "0.666666666667" and decimal_string(0) == "0"


@given(st.floats(min_value=sys.float_info.min, allow_infinity=False), st.integers(1, 17))
def test_exact_decimal_rendering_matches_float_formatting(x, digits):
    # a float's exact value, wherever g writes it in scientific notation
    assume("e" in f"{x:.{digits}g}")
    assert _exact_decimal_string(Fraction(x), digits) == f"{x:.{digits}g}"
    assert _exact_decimal_string(-Fraction(x), digits) == f"{-x:.{digits}g}"


def test_decimal_exponents_are_bounded_before_fraction_is_formed():
    limit = MAX_DECIMAL_EXPONENT
    assert as_fraction("15e-1") == Fraction(3, 2)
    assert as_fraction(f"1e{limit}") == 10**limit
    assert as_fraction(f" 2E-{limit} ") == Fraction(2, 10**limit)
    assert as_fraction(f"1e000{limit}") == 10**limit  # leading zeros do not count
    for text in (f"1e{limit + 1}", f"1E-{limit + 1}", "1e999_999_999", "3.5e+" + "9" * 5000):
        with pytest.raises(ParameterError, match="decimal exponent"):
            as_fraction(text)
    with pytest.raises(ParameterError, match="not a rational value"):
        as_fraction("1/2e3")


def test_random_weight_is_deterministic():
    shape = make_shape(2, 3)
    a = random_weight(shape, 42, [1, 2, 3])
    b = random_weight(shape, 42, [3, 2, 1, 1])  # same set, different order/dups
    assert a == b
    assert random_weight(shape, 43, [1, 2, 3]) != a


def test_random_weight_draws_from_grid():
    shape = make_shape(3, 2)
    w = random_weight(shape, 7, [Fraction(1, 2), 5])
    assert set(w.leaf_values) <= {Fraction(1, 2), Fraction(5)}


def test_random_weight_single_value_grid_is_constant():
    w = random_weight(make_shape(2, 2), 0, [1])
    assert w.leaf_values == (Fraction(1),) * 4


def test_random_weight_draws_the_values_of_randrange(monkeypatch):
    """The bulk draw must give every seeded weight, report and digest of a randrange draw."""
    calls = []

    class Counted(random.Random):  # counts a draw's getrandbits calls: every call after the first is a refill
        def getrandbits(self, k):
            calls[-1] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(treea1.weights, "random", types.SimpleNamespace(Random=Counted))
    refilled = set()
    # grids on both sides of 256 values, where the draw moves from a word's top byte to the whole word
    for km, sizes, seeds in (
        ((2, 10), (*range(1, 9), 100, 129, 255, 256, 257, 1000), (0, 1, 7, 2**63 - 1)),
        ((3, 6), (6, 129, 257), (0, 5)),
        ((2, 16), (6, 300), (0,)),
    ):
        shape = make_shape(*km)
        for size in sizes:
            grid = list(range(1, size + 1))
            for seed in seeds:
                rng = random.Random(seed)
                expected = tuple(Fraction(grid[rng.randrange(size)]) for _ in range(shape.leaf_count))
                calls.append(0)
                assert random_weight(shape, seed, grid).leaf_values == expected
                if calls[-1] > 1:
                    refilled.add(size)
    # a grid of 129 (or 257) values rejects about half the draws, so some first calls fall short
    assert {129, 257} <= refilled


def test_random_weight_rejects_bad_grid():
    shape = make_shape(2, 1)
    with pytest.raises(ParameterError):
        random_weight(shape, 0, [])
    with pytest.raises(ParameterError):
        random_weight(shape, 0, [1, 0])


def test_random_weight_refuses_a_seed_that_is_not_a_non_negative_int():
    shape = make_shape(2, 2)
    for seed in (-1, True, None, 1.0, "1"):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            random_weight(shape, seed, [1, 2, 3])


def test_extremal_exact_depth2_values():
    assert extremal_exact(2, 2).leaf_values == (3, 1, 3, 1)
    assert extremal_exact(2, 1).leaf_values == (1, 1, 1, 1)
    w = extremal_exact(3, Fraction(3, 2))
    alpha = Fraction(5, 2)
    assert w.leaf_values == (alpha, 1, 1, alpha, 1, 1, alpha, 1, 1)


def test_extremal_exact_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        extremal_exact(2, Fraction(1, 2))
    with pytest.raises(ParameterError):
        extremal_exact(1, 2)


def test_extremal_family_full_cell_matches_exact():
    params = ExtremalParams.from_alpha(2, 3, 1, Fraction(1, 4), 2)
    assert extremal_family(params) == extremal_exact(2, 2)


def test_extremal_family_partial_cell_pattern():
    params = ExtremalParams.from_alpha(2, 3, 1, Fraction(3, 16), 4)
    w = extremal_family(params)
    high = {leaf for leaf, v in enumerate(w.leaf_values) if v == 3}
    assert high == {0, 1, 2, 8, 9, 10, 11}
    assert set(w.leaf_values) == {Fraction(1), Fraction(3)}


def test_extremal_family_matches_refined_exact_at_full_cell():
    params = ExtremalParams.from_alpha(2, 3, 1, Fraction(1, 4), 4)
    assert extremal_family(params) == refine(extremal_exact(2, 2), 2)


def test_extremal_params_validation():
    with pytest.raises(ParameterError):  # delta exceeds the first grandchild
        ExtremalParams.from_alpha(2, 3, 1, Fraction(1, 2), 4)
    with pytest.raises(ParameterError):  # not leaf-aligned at depth 4
        ExtremalParams.from_alpha(2, 3, 1, Fraction(1, 48), 4)
    with pytest.raises(ParameterError):  # alpha/eps coupling broken
        ExtremalParams(k=2, c=2, eps=1, alpha=4, delta=Fraction(1, 4), depth=2)
    with pytest.raises(ParameterError):  # family needs depth >= 2
        ExtremalParams.from_alpha(2, 3, 1, Fraction(1, 4), 1)
    with pytest.raises(ParameterError):
        ExtremalParams.from_constant(2, Fraction(1, 2), Fraction(1, 4), 2)
    for alpha, eps in ((0, 0), (-3, -1), (0, 1), (3, 0)):
        with pytest.raises(ParameterError, match="alpha and eps must be positive"):
            ExtremalParams(k=2, c=2, eps=eps, alpha=alpha, delta=Fraction(1, 4), depth=2)
    with pytest.raises(ParameterError, match="eps must be positive"):  # refused before alpha / eps is formed
        ExtremalParams.from_alpha(2, 3, 0, Fraction(1, 4), 2)


def test_family_constant_formula_values():
    assert family_constant_formula(2, 3, 1, Fraction(3, 16)) == Fraction(7, 4)
    # continuity at the full cell: the formula lands exactly on c
    assert family_constant_formula(2, 3, 1, Fraction(1, 4)) == 2
    assert family_constant_formula(3, 2, 2, Fraction(1, 27)) == 1  # alpha == eps
    with pytest.raises(ParameterError):
        family_constant_formula(2, 3, 1, 0)
    with pytest.raises(ParameterError, match="homogeneity k"):
        family_constant_formula(1, 3, 1, Fraction(1, 4))


@given(c=st.fractions(min_value=1, max_value=9, max_denominator=8), k=st.sampled_from((2, 3, 4)))
def test_family_formula_tends_to_c_from_below(c, k):
    alpha = k * c - k + 1
    cell = Fraction(1, k**2)
    previous = None
    for r in (1, 2, 3):
        delta = cell * (1 - Fraction(1, k**r))
        if delta == 0:
            continue
        value = family_constant_formula(k, alpha, 1, delta)
        assert value <= c
        if previous is not None:
            assert value >= previous
        previous = value
    assert family_constant_formula(k, alpha, 1, cell) == c


@given(
    k=st.sampled_from((2, 3, 4)),
    c=st.fractions(min_value=1, max_value=12, max_denominator=10),
)
def test_extremal_exact_calibration(k, c):
    """Measured constant is exactly c; sup-ratio is exactly k*c - k + 1."""
    w = extremal_exact(k, c)
    assert a1_constant(w) == c
    ratio, _ = sup_ratio(rearrange(w))
    assert ratio == k * c - k + 1


@pytest.mark.parametrize("k,depth", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_extremal_family_full_cell_refines_exact(k, depth):
    params = ExtremalParams.from_constant(k, 2, Fraction(1, k**2), depth)
    expected = extremal_exact(k, 2)
    if depth > 2:
        expected = refine(expected, depth - 2)
    assert extremal_family(params) == expected


@pytest.mark.parametrize(
    "delta,depth", [(Fraction(1, 16), 4), (Fraction(3, 16), 4), (Fraction(7, 32), 5)]
)
def test_extremal_family_measured_constant_exceeds_grandchild_ratio(delta, depth):
    """For delta strictly inside (0, 1/k^2) the first grandchild's ratio is a floor."""
    k, alpha, eps = 2, Fraction(3), Fraction(1)
    w = extremal_family(ExtremalParams.from_alpha(k, alpha, eps, delta, depth))
    grandchild_ratio = k**2 * (alpha * delta + (Fraction(1, k**2) - delta) * eps) / eps
    assert a1_constant(w) >= grandchild_ratio
    assert grandchild_ratio > family_constant_formula(k, alpha, eps, delta)


def test_refine_repeats_values():
    w = make_step_weight(make_shape(2, 1), [2, 5])
    assert refine(w).leaf_values == (2, 2, 5, 5)
    assert refine(w, 2).leaf_values == (2,) * 4 + (5,) * 4
    # a bool is not a level count, and a shape too deep is refused before its leaves are formed
    for bad in (True, 0, 10**6):
        with pytest.raises(ParameterError):
            refine(w, bad)


def test_scale_multiplies_values():
    w = make_step_weight(make_shape(2, 1), [2, 5])
    assert scale(w, Fraction(1, 2)).leaf_values == (1, Fraction(5, 2))
    with pytest.raises(ParameterError):
        scale(w, 0)


def test_serialization_format():
    assert weight_to_text(extremal_exact(2, 2)) == "2 2 3 1 3 1\n"
    w = make_step_weight(make_shape(2, 1), [Fraction(1, 3), 2])
    assert weight_to_text(w) == "2 1 1/3 2\n"


def test_serialization_errors():
    with pytest.raises(ParameterError):
        weight_from_text("2 2 1 1\n")  # wrong count
    with pytest.raises(ParameterError):
        weight_from_text("x 2 1 1\n")
    with pytest.raises(ParameterError):
        weight_from_text("2 1 1 0\n")  # non-positive value
    with pytest.raises(ParameterError):
        weight_from_text("")


def test_weight_from_text_reports_the_first_bad_token():
    # each distinct token is parsed once; "zz" comes first in the file but last in sorted order
    with pytest.raises(ParameterError, match="'zz'"):
        weight_from_text("2 2 1 zz aa zz\n")
    with pytest.raises(ParameterError, match="'aa'"):
        weight_from_text("2 2 1 aa zz aa\n")


def test_weight_from_text_parses_equal_values_written_differently_as_equal():
    w = weight_from_text("2 2 2 4/2 2.0 6/3\n")
    assert w.leaf_values == (2, 2, 2, 2)
    assert w == make_step_weight(make_shape(2, 2), [2] * 4)
    assert weight_from_text("2 1 1/3 2/6\n").leaf_values == (Fraction(1, 3), Fraction(1, 3))


@given(step_weights(values=st.fractions(min_value=Fraction(1, 97), max_value=97, max_denominator=97)))
def test_serialization_round_trip_is_exact(w):
    assert weight_from_text(weight_to_text(w)) == w


@given(step_weights())
def test_weight_hash_tracks_identity(w):
    assert weight_hash(w) == weight_hash(weight_from_text(weight_to_text(w)))
    assert len(weight_hash(w)) == 64


@given(positive_rationals)
def test_constant_weight_round_trip(v):
    w = make_step_weight(make_shape(2, 2), [v] * 4)
    assert weight_from_text(weight_to_text(w)) == w
