"""The integer kernel behind analyze against Fraction recomputations and the oracles."""
import ast
import dataclasses
import inspect
import random
import textwrap
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from hypothesis import given, settings, strategies as st

import treea1.maximal
import treea1.rearrangement
from treea1 import (
    MAX_LEAVES,
    NodeId,
    StepWeight,
    WeightAnalysis,
    a1_constant,
    analyze,
    audit_grid,
    average,
    check_rearrangement_bound,
    kadic_constant,
    make_shape,
    make_step_weight,
    maximal_function,
    maximal_function_bruteforce,
    prefix_average,
    profile_from_text,
    rearrange,
    rearrange_oracle,
    scale,
    stopping_family,
    sup_ratio,
)

# unrelated denominators (two Mersenne primes, 3, 11) and magnitudes far apart
WIDE_VALUES = (
    Fraction(1, 2**61 - 1),
    Fraction(7, 3),
    Fraction(10**18),
    Fraction(5, 11),
    Fraction(2**31 - 1, 2**61 - 1),
    Fraction(13, 2**31 - 1),
    Fraction(1),
)
# every shape with at most 256 leaves
SHAPES = [(k, m) for k in (2, 3, 4) for m in range(1, 9) if k**m <= 256]
wide_values = st.one_of(
    st.sampled_from(WIDE_VALUES),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
)


@st.composite
def wide_weights(draw):
    k, m = draw(st.sampled_from(SHAPES))
    shape = make_shape(k, m)
    return make_step_weight(shape, draw(st.lists(wide_values, min_size=shape.leaf_count, max_size=shape.leaf_count)))


@st.composite
def aligned_profiles(draw):
    """A profile read from text, aligned to k**-depth, with value denominators unrelated to k."""
    k, depth = draw(st.sampled_from(SHAPES))
    n = k**depth
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=min(n - 1, 6))))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    values = sorted(draw(st.sets(wide_values, min_size=len(counts), max_size=len(counts))), reverse=True)
    return profile_from_text("".join(f"{Fraction(c, n)} {v}\n" for c, v in zip(counts, values))), k, depth


def kadic_oracle(profile, k, depth):
    """The k-adic constant by its definition: expand the profile into a k**depth-leaf weight and analyse it."""
    n = k**depth
    values = [value for measure, value in profile.pieces for _ in range(int(measure * n))]
    return a1_constant(make_step_weight(make_shape(k, depth), values))


@settings(max_examples=25)
@given(wide_weights())
def test_kernel_matches_the_fraction_oracles(w):
    a = analyze(w)
    k = w.shape.k
    brute = maximal_function_bruteforce(w)
    assert maximal_function(w) == brute
    assert a.c == max(mf / v for mf, v in zip(brute, w.leaf_values))
    for level, row in enumerate(a.scaled_averages):
        expected = tuple(average(w, NodeId(level, i)) for i in range(k**level))
        assert tuple(Fraction(x, a.unit) for x in row) == expected
    profile = rearrange(w)
    assert all(profile.value_at(t) == rearrange_oracle(w, t) for t in audit_grid(w))


@settings(max_examples=25)
@given(wide_weights())
def test_kadic_constant_is_the_constant_of_the_sorted_weight(w):
    shape = w.shape
    kadic = kadic_constant(rearrange(w), shape.k, shape.m)
    assert kadic == a1_constant(make_step_weight(shape, sorted(w.leaf_values, reverse=True)))
    assert kadic == kadic_constant(rearrange(w), shape.k, shape.m + 1)  # finer leaves are constant


@settings(max_examples=25)
@given(aligned_profiles())
def test_kadic_constant_matches_the_expanded_weight_on_parsed_profiles(case):
    profile, k, depth = case
    assert kadic_constant(profile, k, depth) == kadic_oracle(profile, k, depth)


@settings(max_examples=25)
@given(aligned_profiles(), st.integers(min_value=1, max_value=2))
def test_kadic_constant_matches_the_expanded_weight_below_the_profiles_resolution(case, extra):
    profile, k, depth = case
    assert kadic_constant(profile, k, depth + extra) == kadic_oracle(profile, k, depth + extra)


def test_kadic_constant_matches_the_expanded_weight_when_every_leaf_is_its_own_piece():
    rng = random.Random(17)
    for k, m in ((2, 10), (3, 6)):
        n = k**m
        w = make_step_weight(make_shape(k, m), [Fraction(x, 7) for x in rng.sample(range(1, 10**9), n)])
        profile = rearrange(w)
        assert len(profile.cells) == n
        assert kadic_constant(profile, k, m) == kadic_oracle(profile, k, m)


def test_kadic_constant_when_only_the_root_straddles_a_boundary():
    # both boundaries, 1/4 and 3/4, are edges of level-1 nodes, so every other node lies in one piece
    profile = profile_from_text("1/4 7\n1/2 2\n1/4 1\n")
    for depth in (1, 2, 3):
        # the root average (7 + 2*2 + 1)/4 over the last value 1
        assert kadic_constant(profile, 4, depth) == 3 == kadic_oracle(profile, 4, depth)


def test_kadic_constant_builds_no_leaf_row(monkeypatch):
    profile = profile_from_text("1/2 3\n1/2 1\n")

    def refuse(*args):
        raise AssertionError("kadic_constant must not sweep a leaf row")

    for module, name in ((treea1.maximal, "_sweep"), (treea1.maximal, "analyze"), (treea1.rearrangement, "analyze")):
        monkeypatch.setattr(module, name, refuse)
    assert not hasattr(treea1.rearrangement, "_sweep")
    assert 2**20 == MAX_LEAVES
    assert kadic_constant(profile, 2, 20) == 2
    assert kadic_constant(profile_from_text("1/4 7\n1/2 2\n1/4 1\n"), 4, 10) == 3


def _fraction_c_and_sup_ratio(w):
    """c and the rearrangement sup-ratio recomputed with Fractions from the definitions."""
    k, m = w.shape.k, w.shape.m
    row = list(w.leaf_values)
    rows = [row]
    for _ in range(m):
        row = [sum(row[i : i + k], Fraction(0)) / k for i in range(0, len(row), k)]
        rows.append(row)
    rows.reverse()
    running = rows[0]
    for row in rows[1:]:
        running = [max(avg, running[i // k]) for i, avg in enumerate(row)]
    c = max(mf / v for mf, v in zip(running, w.leaf_values))
    # the sup over t of (prefix average at t) / w*(t) is approached just after a leaf boundary
    ordered = sorted(w.leaf_values, reverse=True)
    best, prefix = Fraction(1), Fraction(0)
    for j in range(1, len(ordered)):
        prefix += ordered[j - 1]
        best = max(best, prefix / j / ordered[j])
    return c, best


def test_kernel_on_4096_leaves_matches_a_fraction_recomputation():
    shape = make_shape(4, 6)
    values = [
        WIDE_VALUES[i % len(WIDE_VALUES)] if i % 97 == 0 else Fraction((i * 7919) % 1000 + 1, i % 7 + 1)
        for i in range(shape.leaf_count)
    ]
    w = make_step_weight(shape, values)
    c, ratio = _fraction_c_and_sup_ratio(w)
    report = check_rearrangement_bound(w)
    assert (report.c, report.sup_ratio) == (c, ratio)
    assert report.holds and c > 1 and ratio > 1

    scaled = check_rearrangement_bound(scale(w, Fraction(2**61 - 1, 3)))
    assert (scaled.c, scaled.sup_ratio) == (c, ratio)
    assert stopping_family(scaled.analysis).members == stopping_family(report.analysis).members


def test_oracles_share_no_code_with_the_kernel():
    """Only the oracles may duplicate mathematics, so they must not lean on the fast path."""
    kernel = {"analyze", "WeightAnalysis", "rearrange"}
    # the public readers of an analysis
    kernel |= {"maximal_function", "a1_constant", "stopping_family", "superlevel_set"}
    kernel |= {
        name
        for name, obj in vars(treea1.maximal).items()
        if name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == treea1.maximal.__name__
    }
    # the int tables and their Fraction views
    kernel |= {field.name for field in dataclasses.fields(WeightAnalysis)} - {"weight", "c"}
    kernel |= {name for name, obj in vars(WeightAnalysis).items() if isinstance(obj, cached_property)}
    # a weight's derived palette and leaf codes, which the fast path reads instead of the leaf values
    derived = set(vars(make_step_weight(make_shape(2, 1), [1, 2]))) - {f.name for f in dataclasses.fields(StepWeight)}
    assert derived == {"palette", "codes"}
    kernel |= derived
    for oracle in (maximal_function_bruteforce, rearrange_oracle, average):
        tree = ast.parse(textwrap.dedent(inspect.getsource(oracle)))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "leaf_values" in names  # the walk sees the body
        assert not names & kernel, f"{oracle.__name__} uses {sorted(names & kernel)}"
    # the k-adic check reads the profile's ints and shares nothing with the kernel either
    for check in (kadic_constant, treea1.rearrangement._scaled_integral):
        tree = ast.parse(textwrap.dedent(inspect.getsource(check)))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "scaled_values" in names  # the walk sees the body
        assert not names & kernel, f"{check.__name__} uses {sorted(names & kernel)}"


def prefix_average_oracle(profile, t):
    """(1/t) * integral of the profile over (0, t], from running Fraction sums over the pieces."""
    before_measure = before_integral = Fraction(0)
    for measure, value in profile.pieces:
        if before_measure + measure >= t:  # t lies on this left-open piece
            return (before_integral + (t - before_measure) * value) / t
        before_measure += measure
        before_integral += measure * value
    raise AssertionError("t must lie in (0, 1]")


def sup_ratio_oracle(profile):
    """The sup-ratio and its witness: (integral up to a boundary) / (boundary * next value), in Fractions."""
    best, witness = Fraction(1), profile.pieces[0].measure
    boundary = integral = Fraction(0)
    for (measure, value), (_, next_value) in zip(profile.pieces, profile.pieces[1:]):
        boundary += measure
        integral += measure * value
        ratio = integral / (boundary * next_value)
        if ratio > best:
            best, witness = ratio, boundary
    return best, witness


def _assert_profile_matches_the_fraction_oracles(profile, cells):
    """The int scale against the oracles at every boundary and at the midpoint of each of ``cells`` cells."""
    boundaries = tuple(Fraction(c, profile.n) for c in profile.cumulative_cells)
    assert boundaries == tuple(accumulate(measure for measure, _ in profile.pieces))
    assert prefix_average(profile, 1) == sum(measure * value for measure, value in profile.pieces)
    assert sup_ratio(profile) == sup_ratio_oracle(profile)
    for t in set(boundaries) | {Fraction(2 * j - 1, 2 * cells) for j in range(1, cells + 1)}:
        assert prefix_average(profile, t) == prefix_average_oracle(profile, t)


@settings(max_examples=25)
@given(wide_weights())
def test_profile_ints_match_the_fraction_oracles_on_rearranged_weights(w):
    _assert_profile_matches_the_fraction_oracles(rearrange(w), w.shape.leaf_count)


@settings(max_examples=25)
@given(aligned_profiles())
def test_profile_ints_match_the_fraction_oracles_on_parsed_profiles(case):
    profile, k, depth = case
    _assert_profile_matches_the_fraction_oracles(profile, k**depth)


def test_profile_oracles_read_only_the_pieces():
    """The profile oracles must not lean on the int scale they check."""
    int_scale = {"n", "unit", "cells", "cumulative_cells", "scaled_values", "scaled_integrals"}
    int_scale |= {"boundaries", "total_integral", "_piece_index", "_prefix_average"}
    for oracle in (prefix_average_oracle, sup_ratio_oracle):
        tree = ast.parse(textwrap.dedent(inspect.getsource(oracle)))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "pieces" in attrs  # the walk sees the body
        assert not attrs & int_scale, f"{oracle.__name__} uses {sorted(attrs & int_scale)}"
