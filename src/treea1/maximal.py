"""Tree averages, the maximal operator, A1 constants and stopping families.

Everything here is exact.  The fast path, :func:`analyze`, clears the
denominators of the weight's ``palette``, its distinct values, once per value,
reads the leaf row off them by the weight's int leaf ``codes``, sums leaves
bottom-up and sweeps the tree top-down once per weight, all in Python ints;
every other fast function reads its result, and only reported values become
``Fraction``s.  Two oracles for the fast path take and return ``Fraction``s,
read ``leaf_values`` and never the palette, and share no code with it:
:func:`average` sums a node's leaves straight from the definition, and
:func:`maximal_function_bruteforce` clears the leaf denominators at its own
scale, leaf by leaf, reads every node's int sum off one pass of cumulative
leaf sums and carries the running maximum down the tree, one cross-multiplied
int comparison per node and per leaf.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .rationals import as_fraction
from .tree import ROOT, NodeId, check_node, leaves_under
from .weights import StepWeight, _per_leaf


@dataclass(frozen=True, eq=False)
class StoppingFamily:
    """Stopping-time decomposition of a weight.

    ``members`` are the nodes whose average strictly exceeds the average of
    every strict ancestor (the root is always a member).  ``assignment`` maps
    each leaf to the largest node on its chain achieving the maximal average;
    ``star`` links each non-root member to the smallest member strictly
    containing it.  The family holds nodes only: a member's average is
    ``Fraction(scaled_averages[level][index], unit)`` of the analysis it was
    read from, or :func:`average` of the weight.
    """

    members: tuple[NodeId, ...]
    star: Mapping[NodeId, NodeId]
    assignment: tuple[NodeId, ...]

    def parts(self) -> dict[NodeId, tuple[int, ...]]:
        """Leaf partition: member -> leaves whose assignment is that member."""
        groups: dict[NodeId, list[int]] = {}
        for leaf, node in enumerate(self.assignment):
            groups.setdefault(node, []).append(leaf)
        return {node: tuple(leaves) for node, leaves in groups.items()}


@dataclass(frozen=True, eq=False)
class WeightAnalysis:
    """Node tables, maximal function and A1 constant of one weight, built by :func:`analyze`.

    The tables are Python ints at one common scale: with L the lcm of the leaf
    denominators and ``unit = L * k**m``, ``scaled_averages[level][index]`` is
    the node's average times ``unit`` (its leaf sum, cleared by L, times
    ``k**level``) and ``scaled_maximal[leaf]`` the maximal function times
    ``unit``.  Every comparison between node averages is therefore a
    comparison of ints.  The functions that report a value, such as
    :func:`maximal_function`, build its ``Fraction``s from these tables;
    ``family``, the stopping family, is built on first read, so a caller that
    needs only c never pays for it; it holds nodes only, and a member's
    average is read from ``scaled_averages`` like any other node's.  Every
    function here and in ``verify`` that reads these tables accepts a weight
    or its analysis; the oracles take weights only.
    """

    weight: StepWeight
    unit: int
    scaled_averages: tuple[tuple[int, ...], ...]
    scaled_maximal: tuple[int, ...]
    c: Fraction

    @cached_property
    def family(self) -> StoppingFamily:
        """Members, star links and the leaf assignment, from one top-down sweep.

        Each node carries the running maximal average and its deepest achiever,
        the star link of a new member below it.  The sweep never reads
        ``scaled_maximal``, so the decomposition check compares two computations.
        """
        k, table = self.weight.shape.k, self.scaled_averages
        members: list[NodeId] = [ROOT]
        star: dict[NodeId, NodeId] = {}
        best = [(table[0][0], ROOT)]  # per node of a level: (running max, its deepest achiever)
        for level in range(1, len(table)):
            below = []
            for index, avg in enumerate(table[level]):
                top = best[index // k]
                if avg > top[0]:
                    node = NodeId(level, index)
                    members.append(node)
                    star[node] = top[1]
                    top = (avg, node)
                below.append(top)
            best = below
        return StoppingFamily(
            members=tuple(members),  # found level by level, so already sorted
            star=star,
            assignment=tuple(node for _, node in best),
        )


def analyze(w: StepWeight | WeightAnalysis) -> WeightAnalysis:
    """Clear the denominators once per palette value, then sum bottom-up and sweep top-down in :func:`_sweep`.

    The leaf row is the palette's scaled ints looked up by the leaf codes, so
    no per-leaf step touches a ``Fraction``.  Every node is visited a constant
    number of times, so the cost is linear in the number of nodes.  An
    analysis is returned unchanged.
    """
    if isinstance(w, WeightAnalysis):
        return w
    k, m = w.shape.k, w.shape.m
    denominators = {v.denominator for v in w.palette}
    unit = lcm(*denominators) * k**m
    multiplier = {d: unit // d for d in denominators}
    scaled = [v.numerator * multiplier[v.denominator] for v in w.palette]
    return WeightAnalysis(w, unit, *_sweep(_per_leaf(w.codes, scaled), k, m))


def _sweep(row: Sequence[int], k: int, m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], Fraction]:
    """Scaled node averages (root level first), scaled maximal function and c of an int leaf row.

    The row is the k**m leaf values times one unit that clears their
    denominators and is a multiple of k**m, so every node average is an
    exact int; c is the one ``Fraction``, and the unit cancels in it.
    """
    table = [row]
    for _ in range(m):
        # a parent's average is the mean of its k children's; at this scale it is an exact int
        sums = row[::k]
        for j in range(1, k):  # child j of every node, at stride k
            sums = list(map(operator.add, sums, row[j::k]))
        row = list(map(operator.floordiv, sums, itertools.repeat(k, len(sums))))
        table.append(row)
    table.reverse()
    running = table[0]
    for row in table[1:]:
        parents = [0] * len(row)
        for j in range(k):  # child j of every node, at stride k
            parents[j::k] = running
        running = [a if a > r else r for a, r in zip(row, parents)]
    # c is the largest maximal / leaf ratio, compared by cross-multiplication;
    # maximal >= leaf everywhere, so starting from 1/1 is safe
    best_mf, best_leaf = 1, 1
    for mf, x in zip(running, table[-1]):
        if mf * best_leaf > best_mf * x:
            best_mf, best_leaf = mf, x
    return tuple(map(tuple, table)), tuple(running), Fraction(best_mf, best_leaf)


def average(w: StepWeight, node: NodeId) -> Fraction:
    """Mean of the weight over a node, straight from the definition."""
    node = check_node(w.shape, node)
    block = leaves_under(w.shape, node)
    return Fraction(sum(w.leaf_values[i] for i in block), len(block))


def maximal_function(w: StepWeight | WeightAnalysis) -> tuple[Fraction, ...]:
    """Per-leaf maximum of node averages over the leaf's ancestor chain."""
    a = analyze(w)
    # one Fraction per distinct value: a maximal function repeats its node averages
    view = {x: Fraction(x, a.unit) for x in set(a.scaled_maximal)}
    return tuple(map(view.__getitem__, a.scaled_maximal))


def maximal_function_bruteforce(w: StepWeight) -> tuple[Fraction, ...]:
    """Prefix-sum oracle: every block sum from cumulative leaf sums, compared in ints.

    ``Fraction`` leaf values in, ``Fraction`` maximal values out; inside, the
    leaf values are cleared by the lcm of their denominators, the oracle's own
    scale, and summed left to right once.  A node at ``level`` is a block of
    ``width = k**(m - level)`` consecutive leaves starting at ``start``, so
    its sum is ``prefix[start + width] - prefix[start]``.  Going down from the
    root, a node's best is a ``(sum, width)`` pair, its own or its parent's
    best ``(bs, bw)``, whichever average is larger: the node's sum ``s`` wins
    only if ``s * bw > bs * width``.  A leaf is a block of width 1 against its
    parent's best.  ``Fraction``s are built only for the result: one per distinct best
    node, and a leaf that is its own maximum returns its own value.  Nothing
    is shared with the fast path, which sums levels bottom-up in ints at a
    scale that also clears ``k**m``.
    """
    k, m = w.shape.k, w.shape.m
    values = w.leaf_values
    n = len(values)
    denominators = {v.denominator for v in values}
    common = lcm(*denominators)
    factor = {d: common // d for d in denominators}
    cleared = [v.numerator * factor[v.denominator] for v in values]
    prefix = [0, *itertools.accumulate(cleared)]
    best = [(prefix[n], n)]  # the root block
    for level in range(1, m):
        width = k ** (m - level)
        blocks = map(operator.sub, prefix[width::width], prefix[:n:width])
        parents = (top for top in best for _ in range(k))
        best = [(s, width) if s * bw > bs * width else (bs, bw) for s, (bs, bw) in zip(blocks, parents)]
    parents = [top for top in best for _ in range(k)]
    view = {top: Fraction(top[0], top[1] * common) for top in set(parents)}
    return tuple(v if x * bw > bs else view[bs, bw] for v, x, (bs, bw) in zip(values, cleared, parents))


def a1_constant(w: StepWeight | WeightAnalysis) -> Fraction:
    """Least C with maximal_function(w) <= C * w at every leaf.

    Equals the maximum over nodes of (node average) / (minimum leaf value
    under the node); for step weights the essential infimum on a node is that
    minimum.
    """
    return analyze(w).c


def superlevel_set(w: StepWeight | WeightAnalysis, threshold) -> tuple[NodeId, ...]:
    """Maximal nodes whose average strictly exceeds the threshold.

    The returned nodes are pairwise disjoint and their union is exactly
    {maximal_function(w) > threshold}.  If the root already qualifies the
    answer is (root,); if no node qualifies, the empty tuple.

    A top-down walk over the analysis's level rows, with a mask of free
    nodes, those with no ancestor in the set: a level's hits are its free
    nodes above the threshold, and a node's children are free when it is
    free and not a hit.  The walk runs to the leaves without a stop: a node
    that is not a hit has a child that is not a hit, since its average is
    the mean of its children's, so once the root is no hit some node stays
    free at every level.  Nodes come out level by level in index order, so
    already sorted.  The root is tested before anything else, so a root that
    qualifies costs one comparison.  No node average exceeds the largest
    leaf, so when no leaf exceeds the threshold the set is empty without a
    walk.  Neither ``scaled_maximal`` nor the stopping family is read, so the
    weak-type check built on this function stays independent of the sweep
    it checks.
    """
    threshold = as_fraction(threshold)
    a = analyze(w)
    k, table = a.weight.shape.k, a.scaled_averages
    # average > p/q  <=>  scaled average * q > p * unit
    bar, q = threshold.numerator * a.unit, threshold.denominator
    if table[0][0] * q > bar:
        return (ROOT,)
    if max(table[-1]) * q <= bar:
        return ()
    out: list[NodeId] = []
    free = [True]  # per node of the level: no ancestor is in the set; the root is free and no hit
    for level, row in enumerate(table[1:], 1):
        below = [False] * len(row)
        for j in range(k):
            below[j::k] = free
        free = below
        hits = [index for index in itertools.compress(range(len(row)), free) if row[index] * q > bar]
        for index in hits:
            out.append(NodeId(level, index))
            free[index] = False
    return tuple(out)


def stopping_family(w: StepWeight | WeightAnalysis) -> StoppingFamily:
    """Members, star links and the leaf assignment; see :attr:`WeightAnalysis.family`."""
    return analyze(w).family
