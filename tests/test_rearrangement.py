import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import step_weights
from treea1 import (
    ROOT,
    ExtremalParams,
    ParameterError,
    RearrangedProfile,
    a1_constant,
    average,
    check_rearrangement_bound,
    extremal_exact,
    extremal_family,
    kadic_constant,
    make_shape,
    make_step_weight,
    prefix_average,
    profile_from_text,
    profile_to_text,
    rearrange,
    rearrange_oracle,
    scale,
    sup_ratio,
)


def test_rearrange_examples():
    assert rearrange(make_step_weight(make_shape(2, 2), [5] * 4)).pieces == ((1, 5),)
    assert rearrange(extremal_exact(2, 2)).pieces == (
        (Fraction(1, 2), 3),
        (Fraction(1, 2), 1),
    )
    family = extremal_family(ExtremalParams.from_alpha(2, 3, 1, Fraction(3, 16), 4))
    assert rearrange(family).pieces == ((Fraction(7, 16), 3), (Fraction(9, 16), 1))


def test_profile_validation():
    # each refusal through the int constructor and through text, with the same message
    cases = [
        ((1, 1, (), ()), "", "needs at least one piece|contains no pieces"),
        ((4, 1, (2, 1), (2, 1)), "1/2 2\n1/4 1", "sum exactly to 1"),
        ((2, 1, (1, 1), (1, 2)), "1/2 1\n1/2 2", "strictly decreasing"),
        ((2, 1, (1, 1), (2, 2)), "1/2 2\n1/2 2", "strictly decreasing"),  # not coalesced
        ((1, 1, (1,), (0,)), "1 0", "values must be positive, got 0"),
        ((2, 1, (3, -1), (2, 1)), "3/2 2\n-1/2 1", "measures must be positive, got -1/2"),  # sums to 1
        ((2, 1, (1, 1), (2, 0)), "1/2 2\n1/2 0", "values must be positive, got 0"),  # decreasing down to 0
    ]
    for args, text, message in cases:
        with pytest.raises(ParameterError, match=message):
            RearrangedProfile(*args)
        with pytest.raises(ParameterError, match=message):
            profile_from_text(text)
    # the int tables themselves: ints only, a positive scale, one value per cell count
    for args in ((2, 1, (1.0, 1.0), (3, 1)), (2, 1, (1, 1), (Fraction(3), 1)), (True, 1, (1,), (1,)),
                 (0, 1, (0,), (1,)), (1, 0, (1,), (1,)), (1, -1, (1,), (1,)), (2, 1, (1, 1), (3,))):
        with pytest.raises(ParameterError, match="profile needs ints"):
            RearrangedProfile(*args)


def test_profile_reduces_its_scale():
    profile = RearrangedProfile(8, 6, (4, 4), (18, 6))  # 1/2 at 3 and 1/2 at 1, over a finer scale
    assert profile == rearrange(extremal_exact(2, 2))
    assert (profile.n, profile.unit, profile.cells, profile.scaled_values) == (2, 1, (1, 1), (3, 1))
    assert (profile.cumulative_cells, profile.scaled_integrals) == ((1, 2), (3, 4))
    assert [field.name for field in dataclasses.fields(profile)] == ["n", "unit", "cells", "scaled_values"]
    assert hash(profile) == hash(RearrangedProfile(2, 1, [1, 1], [3, 1]))


def test_profile_pieces_are_a_view_the_checks_do_not_build():
    profile = check_rearrangement_bound(extremal_exact(2, 2), properties=True, with_audits=True).profile
    assert "pieces" not in profile.__dict__
    assert profile.pieces == ((Fraction(1, 2), 3), (Fraction(1, 2), 1))
    assert all(type(x) is Fraction for piece in profile.pieces for x in piece)
    const = rearrange(make_step_weight(make_shape(2, 2), [4] * 4))
    assert (const.n, const.unit, const.cells, const.scaled_values) == (1, 1, (1,), (4,))


def test_profile_coerces_ints_and_strings_through_as_fraction():
    # text is the one way in for rationals; floats are refused by the int constructor above
    profile = profile_from_text("1/2 3\n0.5 1.0\n")
    assert profile == rearrange(extremal_exact(2, 2))
    assert (profile.n, profile.unit, profile.scaled_values) == (2, 1, (3, 1))
    assert profile_from_text("1 7/3\n").scaled_values == (7,)
    assert profile_from_text("1 7/3\n").unit == 3
    for bad in ("1/2 3\n1/2 one\n", "1/0 1\n", "1 1e2000\n"):
        with pytest.raises(ParameterError):
            profile_from_text(bad)


@given(step_weights())
def test_rearrangement_is_equimeasurable(w):
    profile = rearrange(w)
    unit = Fraction(1, w.shape.leaf_count)
    from_weight = Counter()
    for v in w.leaf_values:
        from_weight[v] += unit
    from_profile = Counter()
    for measure, value in profile.pieces:
        from_profile[value] += measure
    assert from_weight == from_profile
    assert prefix_average(profile, 1) == average(w, ROOT)


def test_rearrange_oracle_examples():
    w = extremal_exact(2, 2)
    assert rearrange_oracle(w, Fraction(1, 2)) == 3
    assert rearrange_oracle(w, Fraction(1, 2) + Fraction(1, 1000)) == 1
    assert rearrange_oracle(w, 1) == 1
    with pytest.raises(ParameterError):
        rearrange_oracle(w, 0)
    with pytest.raises(ParameterError):
        rearrange_oracle(w, Fraction(11, 10))


@given(step_weights())
def test_oracle_agrees_with_profile_evaluation(w):
    profile = rearrange(w)
    points = {Fraction(c, profile.n) for c in profile.cumulative_cells}
    n = w.shape.leaf_count
    points.update(Fraction(2 * j - 1, 2 * n) for j in range(1, n + 1))  # leaf midpoints
    for t in points:
        assert rearrange_oracle(w, t) == profile.value_at(t)


@given(step_weights())
def test_oracle_full_measure_gives_minimum(w):
    assert rearrange_oracle(w, 1) == min(w.leaf_values)


def test_prefix_average_examples():
    profile = rearrange(extremal_exact(2, 2))
    assert prefix_average(profile, Fraction(1, 4)) == 3  # inside the first piece
    assert prefix_average(profile, 1) == 2
    assert prefix_average(profile, Fraction(3, 4)) == Fraction(7, 3)
    with pytest.raises(ParameterError):
        prefix_average(profile, 0)
    with pytest.raises(ParameterError):
        prefix_average(profile, 2)


@given(step_weights())
def test_prefix_average_is_non_increasing(w):
    profile = rearrange(w)
    boundaries = {Fraction(c, profile.n) for c in profile.cumulative_cells}
    points = sorted(boundaries | {b / 2 for b in boundaries})
    values = [prefix_average(profile, t) for t in points if 0 < t <= 1]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sup_ratio_examples():
    assert sup_ratio(rearrange(make_step_weight(make_shape(2, 1), [4, 4]))) == (1, 1)
    assert sup_ratio(rearrange(extremal_exact(2, 2))) == (3, Fraction(1, 2))
    assert sup_ratio(rearrange(extremal_exact(3, Fraction(3, 2)))) == (
        Fraction(5, 2),
        Fraction(1, 3),
    )
    # both inner boundaries give ratio 2; a tie keeps the first
    tie = RearrangedProfile(3, 2, (1, 1, 1), (8, 4, 3))  # 4, 2 and 3/2 on thirds
    assert sup_ratio(tie) == (2, Fraction(1, 3))


@given(step_weights())
def test_sup_ratio_at_least_one_iff_constant(w):
    ratio, witness = sup_ratio(rearrange(w))
    assert ratio >= 1
    assert (ratio == 1) == (len(set(w.leaf_values)) == 1)
    assert 0 < witness <= 1


@given(step_weights(), st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7))
def test_sup_ratio_scaling_invariance(w, s):
    assert sup_ratio(rearrange(scale(w, s)))[0] == sup_ratio(rearrange(w))[0]


def test_sup_ratio_is_a_right_limit_at_the_witness():
    profile = rearrange(extremal_exact(2, 2))
    ratio, witness = sup_ratio(profile)
    # at the witness itself the left-continuous value is the larger piece, so
    # the pointwise ratio is 1; just right of it the ratio approaches the sup
    assert prefix_average(profile, witness) / profile.value_at(witness) == 1
    near = witness + Fraction(1, 1024)
    observed = prefix_average(profile, near) / profile.value_at(near)
    assert 1 < observed < ratio


@given(step_weights())
def test_sup_ratio_dominates_sampled_ratios(w):
    profile = rearrange(w)
    ratio, _ = sup_ratio(profile)
    n = w.shape.leaf_count
    for j in range(1, 2 * n + 1):
        t = Fraction(j, 2 * n)
        assert prefix_average(profile, t) / profile.value_at(t) <= ratio


def test_profile_serialization_format():
    profile = rearrange(extremal_exact(2, 2))
    assert profile_to_text(profile) == "1/2 3\n1/2 1\n"


@given(step_weights())
def test_profile_serialization_round_trip(w):
    profile = rearrange(w)
    assert profile_from_text(profile_to_text(profile)) == profile


def test_profile_parse_errors():
    with pytest.raises(ParameterError):
        profile_from_text("")
    with pytest.raises(ParameterError):
        profile_from_text("1/2 3 7\n")
    with pytest.raises(ParameterError):
        profile_from_text("1/2 3\n1/2 5\n")  # increasing values


def test_kadic_constant_examples():
    assert kadic_constant(rearrange(extremal_exact(2, 2)), 2, 1) == 2
    const = rearrange(make_step_weight(make_shape(2, 2), [9] * 4))
    assert kadic_constant(const, 2, 1) == 1
    with pytest.raises(ParameterError, match="not aligned"):
        kadic_constant(rearrange(make_step_weight(make_shape(3, 1), [3, 2, 1])), 2, 2)
    with pytest.raises(ParameterError, match="leaves"):
        kadic_constant(const, 2, 21)


@given(step_weights())
def test_kadic_constant_bounded_by_tree_bound(w):
    k = w.shape.k
    bound = k * a1_constant(w) - k + 1
    assert kadic_constant(rearrange(w), k, w.shape.m) <= bound
