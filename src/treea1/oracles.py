"""Independent oracles for the fast path: the only place mathematics may be duplicated.

Each oracle recomputes from the definition what the int kernel in
``maximal`` and ``rearrangement`` computes fast, so a check that compares the
two compares two computations.  To stay independent, an oracle reads only a
weight's ``shape`` and ``leaf_values`` (never its palette or leaf codes), and
imports only the standard library, ``.tree``, ``.rationals`` and ``.errors``;
``StepWeight`` is imported for annotations only.  The public oracles return
``Fraction``s.  The maximal function's oracle is a view of an int core,
:func:`scaled_maximal_bruteforce`, which returns the leaf maxima at its own
scale, the lcm of the leaf denominators times ``k**m``, so the oracle check
compares ints.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .rationals import _check_t
from .tree import NodeId, check_node, leaves_under

if TYPE_CHECKING:
    from .weights import StepWeight


def average(w: StepWeight, node: NodeId) -> Fraction:
    """Mean of the weight over a node, straight from the definition."""
    node = check_node(w.shape, node)
    block = leaves_under(w.shape, node)
    return Fraction(sum(w.leaf_values[i] for i in block), len(block))


def scaled_maximal_bruteforce(w: StepWeight) -> tuple[int, tuple[int, ...]]:
    """Prefix-sum oracle, in ints: ``(scale, each leaf's maximal value times scale)``.

    ``scale`` is the lcm of the leaf denominators times ``k**m``.  Each
    distinct value object is cleared to that scale once, and the leaves are
    summed left to right once.  A node at ``level`` is a block of ``width =
    k**(m - level)`` consecutive leaves starting at ``start``, so its average
    times ``scale`` is ``(prefix[start + width] - prefix[start]) // width``,
    exact because every cleared leaf is a multiple of ``k**m``.  Going down
    from the root, a node's best is the larger of its own average and its
    parent's best, and a leaf, a block of width 1, gets its maximal value.
    The block averages and the parents' bests are C-level iterators; the
    comparison is one comprehension per level, which measured faster than
    ``map(max, ...)``.  Nothing is shared with the fast path, which sums
    levels bottom-up and reads each leaf's value through the weight's palette.
    """
    k, m = w.shape.k, w.shape.m
    values = w.leaf_values
    n = len(values)
    ids = list(map(id, values))
    objects = dict(zip(ids, values))  # each distinct value object once, by identity
    scale = lcm(*{v.denominator for v in objects.values()}) * n
    cleared = dict(zip(objects, [v.numerator * (scale // v.denominator) for v in objects.values()]))
    leaves = list(map(cleared.__getitem__, ids))
    prefix = [0, *itertools.accumulate(leaves)]
    repeat, chain = itertools.repeat, itertools.chain.from_iterable
    best = [prefix[n] // n]  # the root's average
    for level in range(1, m):
        width = k ** (m - level)
        averages = map(operator.floordiv, map(operator.sub, prefix[width::width], prefix[:n:width]), repeat(width))
        best = [x if x > y else y for x, y in zip(averages, chain(zip(*[best] * k)))]  # each parent's best k times
    return scale, tuple([x if x > y else y for x, y in zip(leaves, chain(zip(*[best] * k)))])


def maximal_function_bruteforce(w: StepWeight) -> tuple[Fraction, ...]:
    """The prefix-sum oracle's maximal function as ``Fraction``s: the view of :func:`scaled_maximal_bruteforce`.

    A maximal value equal to a leaf value is that value's own object; a
    ``Fraction`` is built only for each other distinct maximal value.
    """
    scale, scaled = scaled_maximal_bruteforce(w)
    values = w.leaf_values
    view = {v.numerator * (scale // v.denominator): v for v in dict(zip(map(id, values), values)).values()}
    view.update({x: Fraction(x, scale) for x in set(scaled) - view.keys()})
    return tuple(map(view.__getitem__, scaled))


def rearrange_oracle(w: StepWeight, t) -> Fraction:
    """Independent evaluation of the rearrangement at t.

    Scans the distinct leaf values in decreasing order and returns the largest
    value v whose superlevel set {w >= v} has measure at least t.  Shares no
    code with the profile construction; used to cross-check it.
    """
    t = _check_t(t)
    n = w.shape.leaf_count
    counts: dict[Fraction, int] = {}
    for v in w.leaf_values:
        counts[v] = counts.get(v, 0) + 1
    cumulative = 0
    for v in sorted(counts, reverse=True):
        cumulative += counts[v]
        if Fraction(cumulative, n) >= t:
            return v
    raise AssertionError("unreachable: total measure is 1 >= t")
