import ast
import inspect
import itertools
import math
import random
import textwrap
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import positive_rationals, step_weights
from test_kernel import WIDE_VALUES, wide_values
from treea1 import (
    NodeId,
    a1_constant,
    analyze,
    as_fraction,
    average,
    extremal_exact,
    make_shape,
    make_step_weight,
    maximal_function,
    maximal_function_bruteforce,
    random_weight,
    refine,
    scale,
    stopping_family,
    superlevel_set,
)
import treea1.maximal
from treea1.oracles import scaled_maximal_bruteforce
from treea1.tree import ROOT, leaves_under


def all_nodes(shape):
    """Every node in level order (root first)."""
    return [NodeId(level, index) for level in range(shape.m + 1) for index in range(shape.k**level)]


def parent(shape, node):
    return NodeId(node.level - 1, node.index // shape.k)


def a1_oracle(w):
    """Independent A1 evaluation: max over all nodes of average / min leaf value."""
    best = Fraction(0)
    for node in all_nodes(w.shape):
        block = leaves_under(w.shape, node)
        avg = Fraction(sum(w.leaf_values[i] for i in block), len(block))
        low = min(w.leaf_values[i] for i in block)
        best = max(best, avg / low)
    return best


def test_average_examples():
    w = extremal_exact(2, 2)
    assert average(w, ROOT) == 2
    assert average(w, NodeId(1, 0)) == 2
    assert average(w, NodeId(2, 0)) == 3
    const = make_step_weight(make_shape(3, 2), [Fraction(5, 7)] * 9)
    assert all(average(const, node) == Fraction(5, 7) for node in all_nodes(const.shape))


def test_maximal_function_examples():
    assert maximal_function(extremal_exact(2, 2)) == (3, 2, 3, 2)
    const = make_step_weight(make_shape(2, 2), [4] * 4)
    assert maximal_function(const) == (4, 4, 4, 4)
    w = make_step_weight(make_shape(2, 2), [4, 1, 1, 1])
    assert maximal_function(w) == (4, Fraction(5, 2), Fraction(7, 4), Fraction(7, 4))


def test_fast_equals_bruteforce_exhaustively_on_small_grid():
    shape = make_shape(2, 2)
    for values in itertools.product((1, 2, 3), repeat=4):
        w = make_step_weight(shape, values)
        assert maximal_function(w) == maximal_function_bruteforce(w)


@given(step_weights())
def test_fast_equals_bruteforce(w):
    assert maximal_function(w) == maximal_function_bruteforce(w)


def _enumeration_oracle(w):
    """Definitional oracle: enumerate every (leaf, ancestor) pair explicitly.

    Node averages are recomputed by direct summation over each node's own
    leaf range, O(n**2) for n leaves; it checks the prefix-sum oracle.
    """
    k, m = w.shape.k, w.shape.m
    out = []
    for leaf in range(w.shape.leaf_count):
        best = w.leaf_values[leaf]
        level, index = m, leaf
        while level > 0:
            level -= 1
            index //= k
            width = k ** (m - level)
            block = range(index * width, (index + 1) * width)
            avg = Fraction(sum(w.leaf_values[i] for i in block), width)
            if avg > best:
                best = avg
        out.append(best)
    return tuple(out)


def _assert_prefix_sum_oracle_is(w, expected):
    """The Fraction oracle and its int core, at its own scale (lcm of the leaf denominators times k**m), give ``expected``."""
    assert maximal_function_bruteforce(w) == expected
    scale, scaled = scaled_maximal_bruteforce(w)
    assert scale == math.lcm(*(v.denominator for v in w.leaf_values)) * w.shape.k ** w.shape.m == analyze(w).unit
    assert type(scaled) is tuple and all(type(x) is int for x in scaled)
    assert tuple(Fraction(x, scale) for x in scaled) == expected


# every shape with at most 64 leaves
SMALL_SHAPES = [(k, m) for k in (2, 3, 4) for m in range(1, 7) if k**m <= 64]


@st.composite
def wide_weights_up_to_64_leaves(draw):
    shape = make_shape(*draw(st.sampled_from(SMALL_SHAPES)))
    return make_step_weight(shape, draw(st.lists(wide_values, min_size=shape.leaf_count, max_size=shape.leaf_count)))


@settings(max_examples=100)
@given(wide_weights_up_to_64_leaves())
def test_prefix_sum_oracle_equals_the_enumeration(w):
    _assert_prefix_sum_oracle_is(w, _enumeration_oracle(w))


def test_prefix_sum_oracle_equals_the_enumeration_on_extremal_weights():
    for k in (2, 3, 4):
        for c in (1, Fraction(3, 2), 2, 7):
            w = extremal_exact(k, c)
            _assert_prefix_sum_oracle_is(w, _enumeration_oracle(w))
            _assert_prefix_sum_oracle_is(refine(w), _enumeration_oracle(refine(w)))


def test_int_core_clears_equal_values_in_distinct_objects_and_one_object_at_many_leaves():
    shape = make_shape(3, 3)
    shared = Fraction(7, 3)
    rng = random.Random(27)
    # equal values in distinct objects: the identity pass keeps each object, and each clears to the same int
    copies = [Fraction(7, 3) for _ in range(9)] + [Fraction(5, 11) for _ in range(9)] + [Fraction(2**61 - 1)] * 9
    w = make_step_weight(shape, copies)
    assert len({id(v) for v in w.leaf_values}) == 19
    _assert_prefix_sum_oracle_is(w, _enumeration_oracle(w))
    # one object at most leaves, with a few distinct objects of other values among them
    values = [shared] * 27
    for leaf in rng.sample(range(27), 5):
        values[leaf] = Fraction(rng.randint(1, 50), rng.choice((2**31 - 1, 13, 4)))
    w = make_step_weight(shape, values)
    assert sum(v is shared for v in w.leaf_values) == 22
    _assert_prefix_sum_oracle_is(w, _enumeration_oracle(w))
    # both at once, in one weight
    w = make_step_weight(shape, [shared if leaf % 2 else Fraction(7, 3) for leaf in range(27)])
    _assert_prefix_sum_oracle_is(w, _enumeration_oracle(w))


def test_running_maximum_carries_across_levels():
    # leaf 0's maximum is the root's average 4, three levels up; on its chain
    # the level-1 block averages 2 and the level-2 block 3, so each level must
    # compare with its parent's best, not with its parent's own average
    w = make_step_weight(make_shape(2, 3), [1, 5, 1, 1, 6, 6, 6, 6])
    assert average(w, ROOT) == 4
    assert average(w, NodeId(1, 0)) == 2 and average(w, NodeId(2, 0)) == 3
    expected = (4, 5, 4, 4, 6, 6, 6, 6)
    assert maximal_function(w) == expected
    assert maximal_function_bruteforce(w) == expected
    assert _enumeration_oracle(w) == expected


def test_prefix_sum_oracle_equals_the_enumeration_at_256_leaves():
    # beyond the 64-leaf hypothesis range, with the unrelated denominators of test_kernel
    rng = random.Random(8)
    values = [
        rng.choice(WIDE_VALUES) if rng.random() < 0.5 else Fraction(rng.randint(1, 10**6), rng.randint(1, 1000))
        for _ in range(2**8)
    ]
    w = make_step_weight(make_shape(2, 8), values)
    assert len({v.denominator for v in values}) > 100
    assert maximal_function_bruteforce(w) == _enumeration_oracle(w)
    assert maximal_function(w) == _enumeration_oracle(w)


def test_prefix_sum_oracle_equals_the_enumeration_at_729_leaves():
    # k=3 beyond the 64-leaf hypothesis range; WIDE_VALUES mixes Mersenne denominators with 10**18
    rng = random.Random(729)
    w = make_step_weight(make_shape(3, 6), [rng.choice(WIDE_VALUES) for _ in range(3**6)])
    assert len(set(w.leaf_values)) == len(WIDE_VALUES)
    assert maximal_function_bruteforce(w) == _enumeration_oracle(w)


def test_a_tie_with_the_parents_best_keeps_the_parent():
    # the level-1 block [4, 1, 5/2, 5/2] averages 5/2 over 4 leaves; its level-2
    # blocks [4, 1] and [5/2, 5/2] and the leaves 5/2 average exactly 5/2 too,
    # so the strict cross-multiplied comparison keeps the parent's best
    w = make_step_weight(make_shape(2, 3), [4, 1, Fraction(5, 2), Fraction(5, 2), 1, 1, 1, 1])
    assert average(w, NodeId(1, 0)) == average(w, NodeId(2, 0)) == average(w, NodeId(2, 1)) == Fraction(5, 2)
    expected = (4, Fraction(5, 2), Fraction(5, 2), Fraction(5, 2), *[Fraction(7, 4)] * 4)
    assert maximal_function_bruteforce(w) == expected
    assert maximal_function(w) == expected
    assert _enumeration_oracle(w) == expected


def test_prefix_sum_oracle_at_a_scale_above_2_to_the_90():
    mersenne = [2**p - 1 for p in (7, 13, 17, 19, 31, 61)]
    rng = random.Random(90)
    for k, m in ((2, 6), (3, 4), (4, 3)):
        values = [Fraction(rng.randint(1, 10**6), rng.choice(mersenne)) for _ in range(k**m)]
        w = make_step_weight(make_shape(k, m), values)
        assert math.lcm(*{v.denominator for v in w.leaf_values}) > 2**90
        assert maximal_function_bruteforce(w) == maximal_function(w)


@given(step_weights())
def test_maximal_function_dominates_weight(w):
    assert all(m >= v for m, v in zip(maximal_function(w), w.leaf_values))


def test_a1_constant_examples():
    assert a1_constant(extremal_exact(2, 2)) == 2
    assert a1_constant(make_step_weight(make_shape(2, 2), [4, 1, 1, 1])) == Fraction(5, 2)
    assert a1_constant(make_step_weight(make_shape(2, 1), [7, 7])) == 1
    assert a1_constant(extremal_exact(3, Fraction(3, 2))) == Fraction(3, 2)


@given(step_weights())
def test_a1_constant_matches_node_oracle(w):
    assert a1_constant(w) == a1_oracle(w)


@given(step_weights())
def test_a1_constant_at_least_one_with_equality_iff_constant(w):
    c = a1_constant(w)
    assert c >= 1
    assert (c == 1) == (len(set(w.leaf_values)) == 1)


def test_stopping_family_constant_weight():
    fam = stopping_family(make_step_weight(make_shape(2, 2), [3] * 4))
    assert fam.members == (ROOT,)
    assert fam.assignment == (ROOT,) * 4
    assert fam.star == {}


def test_stopping_family_extremal_weight():
    w = extremal_exact(2, 2)
    fam = stopping_family(w)
    assert fam.members == (ROOT, NodeId(2, 0), NodeId(2, 2))
    assert fam.star == {NodeId(2, 0): ROOT, NodeId(2, 2): ROOT}
    assert fam.assignment == (NodeId(2, 0), ROOT, NodeId(2, 2), ROOT)
    assert average(w, ROOT) == 2
    assert average(w, NodeId(2, 0)) == 3


def test_stopping_family_nested_members():
    w = make_step_weight(make_shape(2, 2), [4, 1, 1, 1])
    fam = stopping_family(w)
    assert fam.members == (ROOT, NodeId(1, 0), NodeId(2, 0))
    assert fam.star == {NodeId(1, 0): ROOT, NodeId(2, 0): NodeId(1, 0)}
    assert fam.assignment == (NodeId(2, 0), NodeId(1, 0), ROOT, ROOT)
    assert {node: average(w, node) for node in fam.members} == {
        ROOT: Fraction(7, 4),
        NodeId(1, 0): Fraction(5, 2),
        NodeId(2, 0): 4,
    }


def test_reading_the_family_builds_no_fraction(monkeypatch):
    a = analyze(make_step_weight(make_shape(2, 2), [4, 1, 1, 1]))

    def refused(*args):
        raise AssertionError("the stopping family built a Fraction")

    monkeypatch.setattr(treea1.maximal, "Fraction", refused)
    fam = a.family
    assert fam.members == (ROOT, NodeId(1, 0), NodeId(2, 0))
    assert stopping_family(a) is fam


@given(step_weights())
def test_members_match_assignment_image(w):
    fam = stopping_family(w)
    assert set(fam.assignment) == set(fam.members)


@given(step_weights())
def test_members_satisfy_strict_ancestor_criterion(w):
    fam = stopping_family(w)
    member_set = set(fam.members)
    for node in all_nodes(w.shape):
        chain = [a for a in _strict_ancestors(w.shape, node)]
        criterion = all(average(w, q) < average(w, node) for q in chain)
        assert (node in member_set) == criterion


def _strict_ancestors(shape, node):
    while node.level > 0:
        node = parent(shape, node)
        yield node


@given(step_weights())
def test_star_links_are_nearest_member_ancestors_in_level_order(w):
    """Each star link is the nearest strict ancestor that is a member, by the oracle's averages.

    ``members`` is the root followed by the linked nodes in (level, index) order.
    """
    fam = stopping_family(w)
    av = {node: average(w, node) for node in all_nodes(w.shape)}  # in (level, index) order, root first
    members = [node for node in av if all(av[q] < av[node] for q in _strict_ancestors(w.shape, node))]
    assert fam.members == tuple(members)
    assert list(fam.star) == members[1:]
    for node, star in fam.star.items():
        assert star == next(q for q in _strict_ancestors(w.shape, node) if q in members)


@given(step_weights())
def test_decomposition_rebuilds_maximal_function(w):
    fam = stopping_family(w)
    mf = maximal_function(w)
    for leaf, node in enumerate(fam.assignment):
        assert average(w, node) == mf[leaf]


@given(step_weights())
def test_assignment_is_largest_achiever(w):
    mf = maximal_function(w)
    for leaf, node in enumerate(stopping_family(w).assignment):
        assert average(w, node) == mf[leaf]
        # nothing strictly larger achieves the maximum
        for q in _strict_ancestors(w.shape, node):
            assert average(w, q) < mf[leaf]


def test_superlevel_set_examples():
    w = extremal_exact(2, 2)
    assert superlevel_set(w, 2) == (NodeId(2, 0), NodeId(2, 2))
    assert superlevel_set(w, 3) == ()
    const = make_step_weight(make_shape(2, 1), [5, 5])
    assert superlevel_set(const, 5) == ()
    assert superlevel_set(const, 4) == (ROOT,)


@given(step_weights())
def test_superlevel_set_is_exactly_the_maximal_superlevel(w):
    mf = maximal_function(w)
    thresholds = sorted(set(mf))
    for threshold in thresholds:
        nodes = superlevel_set(w, threshold)
        covered = sorted(i for node in nodes for i in leaves_under(w.shape, node))
        assert covered == [i for i, m in enumerate(mf) if m > threshold]
        assert len(covered) == len(set(covered))  # pairwise disjoint nodes
        for node in nodes:
            if node.level:
                assert average(w, parent(w.shape, node)) <= threshold


def _dfs_superlevel_set(w, threshold):
    """Reference for :func:`superlevel_set`: a depth-first search from the root.

    A node above the threshold is taken and its subtree skipped; any other
    node pushes its children.  One ``NodeId`` per visited node, sorted at the end.
    """
    threshold = as_fraction(threshold)
    a = analyze(w)
    k, m = a.weight.shape.k, a.weight.shape.m
    # average > p/q  <=>  scaled average * q > p * unit
    bar, q = threshold.numerator * a.unit, threshold.denominator
    out: list[NodeId] = []
    stack = [ROOT]
    while stack:
        node = stack.pop()
        if a.scaled_averages[node.level][node.index] * q > bar:
            out.append(node)
        elif node.level < m:
            base = node.index * k
            stack.extend(NodeId(node.level + 1, base + j) for j in range(k))
    return tuple(sorted(out))


def _assert_superlevel_sets_match_the_dfs(w):
    """Every node average, each one +- 1/7, 0, -1 and the largest leaf, as thresholds."""
    a = analyze(w)
    averages = {Fraction(x, a.unit) for row in a.scaled_averages for x in row}
    thresholds = averages | {v + d for v in averages for d in (Fraction(1, 7), Fraction(-1, 7))}
    thresholds |= {Fraction(0), Fraction(-1), max(w.leaf_values)}
    # the member interval: a member Q other than the root is in the set when Av(star Q) <= threshold < Av(Q)
    star = stopping_family(w).star
    member_averages = {node: average(w, node) for node in (ROOT, *star)}
    for threshold in sorted(thresholds):
        found = superlevel_set(a, threshold)
        assert found == _dfs_superlevel_set(a, threshold), threshold
        if member_averages[ROOT] > threshold:
            assert found == (ROOT,), threshold
        else:
            assert found == tuple(
                node for node, up in star.items() if member_averages[up] <= threshold < member_averages[node]
            ), threshold


@given(step_weights(ks=(2, 3, 4)))
def test_superlevel_set_matches_the_dfs_reference(w):
    _assert_superlevel_sets_match_the_dfs(w)


def test_superlevel_set_matches_the_dfs_reference_at_256_and_729_leaves():
    grid = (1, 2, 3, 5, 10, 100)
    for k, m, seed in ((2, 8, 256), (3, 6, 729)):
        _assert_superlevel_sets_match_the_dfs(random_weight(make_shape(k, m), seed, grid))


def test_superlevel_set_reads_neither_the_maximal_function_nor_the_family():
    # the audits' nodes_are_members compares superlevel_set's nodes with the
    # stopping family, so it must find the set from the node averages alone
    tree = ast.parse(textwrap.dedent(inspect.getsource(superlevel_set)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "scaled_averages" in names  # the walk sees the body
    assert not names & {"scaled_maximal", "family", "stopping_family", "maximal_function"}


@given(step_weights(), st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7))
def test_scaling_invariance(w, s):
    scaled = scale(w, s)
    assert a1_constant(scaled) == a1_constant(w)
    assert stopping_family(scaled).members == stopping_family(w).members


@given(positive_rationals)
def test_constant_weight_maximal_is_identity(v):
    w = make_step_weight(make_shape(3, 2), [v] * 9)
    assert maximal_function(w) == (v,) * 9
    assert a1_constant(w) == 1
