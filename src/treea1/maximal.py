"""Tree averages, the maximal operator, A1 constants and stopping families.

Everything here is exact.  The fast path, :func:`analyze`, clears the
denominators of the weight's ``palette``, its distinct values, once per value,
reads the leaf row off them by the weight's int leaf ``codes``, sums leaves
bottom-up and sweeps the tree top-down once per weight, down to the leaves'
parents, all in Python ints; c is read off the parents and their least leaf,
and the per-leaf maximal function is built only when something reads it.
Every other fast function reads this result, and only reported values become
``Fraction``s.
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
from .tree import ROOT, NodeId
from .weights import StepWeight, _per_leaf
# not used here: perfbench's tracer finds the oracle on this module to time it
from .oracles import maximal_function_bruteforce  # noqa: F401


@dataclass(frozen=True, eq=False)
class StoppingFamily:
    """Stopping-time decomposition of a weight, held as its star links and leaf assignment.

    ``star`` links each non-root member, a node whose average strictly
    exceeds that of every strict ancestor, to the smallest member strictly
    containing it.  ``assignment`` maps each leaf to the largest node on its
    chain achieving the maximal average.  The family holds nodes only: a
    member's average is ``Fraction(scaled_averages[level][index], unit)`` of
    the analysis it was read from, or :func:`~treea1.oracles.average` of the weight.
    """

    star: Mapping[NodeId, NodeId]
    assignment: tuple[NodeId, ...]

    @property
    def members(self) -> tuple[NodeId, ...]:
        """The root, then every linked node in (level, index) order, the sweep's order of ``star``."""
        return (ROOT, *self.star)


@dataclass(frozen=True, eq=False)
class WeightAnalysis:
    """Node tables, maximal function and A1 constant of one weight, built by :func:`analyze`.

    The tables are Python ints at one common scale: with L the lcm of the leaf
    denominators and ``unit = L * k**m``, ``scaled_averages[level][index]`` is
    the node's average times ``unit`` (its leaf sum, cleared by L, times
    ``k**level``), ``scaled_parent_maximal[parent]`` the largest average on
    the chain from the root to a node of level m-1 times ``unit``, and
    ``scaled_maximal[leaf]`` the maximal function times ``unit``.  Every
    comparison between node averages is therefore a comparison of ints.  The
    functions that report a value, such as :func:`maximal_function`, build its
    ``Fraction``s from these tables.  Two things are built on first read, so
    a caller that needs only c never pays for them: ``scaled_maximal``, each
    leaf's own value or its parent's maximum, whichever is larger, and
    ``family``, the stopping family, which holds nodes only; a member's
    average is read from ``scaled_averages`` like any other node's.  Every
    function here and in ``verify`` that reads these tables accepts a weight
    or its analysis; the oracles in ``oracles`` take weights only.
    """

    weight: StepWeight
    unit: int
    scaled_averages: tuple[tuple[int, ...], ...]
    scaled_parent_maximal: tuple[int, ...]
    c: Fraction

    @cached_property
    def scaled_maximal(self) -> tuple[int, ...]:
        """Each leaf's maximal function times ``unit``: its own value or its parent's maximum, whichever is larger."""
        k, leaves = self.weight.shape.k, self.scaled_averages[-1]
        parents = [0] * len(leaves)
        for j in range(k):  # child j of every parent, at stride k
            parents[j::k] = self.scaled_parent_maximal
        return tuple([x if x > r else r for x, r in zip(leaves, parents)])

    @cached_property
    def family(self) -> StoppingFamily:
        """Star links and the leaf assignment, from one top-down sweep.

        Each node carries the running maximal average and its deepest achiever,
        the star link of a new member below it; links go in level by level, in
        index order.  The sweep never reads ``scaled_maximal``, so the
        decomposition check compares two computations.
        """
        k, table = self.weight.shape.k, self.scaled_averages
        star: dict[NodeId, NodeId] = {}
        best = [(table[0][0], ROOT)]  # per node of a level: (running max, its deepest achiever)
        for level in range(1, len(table)):
            below = []
            for index, avg in enumerate(table[level]):
                top = best[index // k]
                if avg > top[0]:
                    node = NodeId(level, index)
                    star[node] = top[1]
                    top = (avg, node)
                below.append(top)
            best = below
        return StoppingFamily(star=star, assignment=tuple(node for _, node in best))


def analyze(w: StepWeight | WeightAnalysis) -> WeightAnalysis:
    """Clear the denominators once per palette value, then sum bottom-up and sweep top-down in :func:`_sweep`.

    The leaf row is the palette's scaled ints looked up by the leaf codes, so
    no per-leaf step touches a ``Fraction``.  Every node is visited a constant
    number of times, so the cost is linear in the number of nodes; the
    running maximum stops at the leaves' parents, and the per-leaf maximal
    function waits for its first read.  An analysis is returned unchanged.
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
    """Scaled node averages (root level first), the parents' scaled running maxima and c of an int leaf row.

    The row is the k**m leaf values times one unit that clears their
    denominators and is a multiple of k**m, so every node average is an
    exact int; c is the one ``Fraction``, and the unit cancels in it.  The
    running maximum R(P) is carried down to the leaves' parents P only (at
    m = 1 the root is every leaf's parent).  A leaf x under P has maximal
    value max(R(P), x), so its ratio exceeds 1 only as R(P) / x, which is
    largest at P's least leaf: c is the largest R(P) / (least leaf of P).
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
    for row in table[1:-1]:
        parents = [0] * len(row)
        for j in range(k):  # child j of every node, at stride k
            parents[j::k] = running
        running = [a if a > r else r for a, r in zip(row, parents)]
    leaves = table[-1]
    least = leaves[::k]
    for j in range(1, k):  # child j of every parent, at stride k
        least = [a if a < b else b for a, b in zip(least, leaves[j::k])]
    # c is the largest parent maximum / least leaf ratio, compared by cross-multiplication;
    # R(P) >= the mean of P's leaves >= its least leaf, so starting from 1/1 is safe
    best_mf, best_leaf = 1, 1
    for mf, x in zip(running, least):
        if mf * best_leaf > best_mf * x:
            best_mf, best_leaf = mf, x
    return tuple(map(tuple, table)), tuple(running), Fraction(best_mf, best_leaf)


def maximal_function(w: StepWeight | WeightAnalysis) -> tuple[Fraction, ...]:
    """Per-leaf maximum of node averages over the leaf's ancestor chain."""
    a = analyze(w)
    # one Fraction per distinct value: a maximal function repeats its node averages
    view = {x: Fraction(x, a.unit) for x in set(a.scaled_maximal)}
    return tuple(map(view.__getitem__, a.scaled_maximal))


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
    qualifies costs one comparison; an empty set costs a walk that finds no
    hit, so a caller that knows no leaf exceeds the threshold skips the call.
    Its one caller, :func:`~treea1.verify._audits`, compares these nodes with
    the stopping family in ``LevelAudit.nodes_are_members``, so the walk
    reads neither ``scaled_maximal`` nor the family.
    """
    threshold = as_fraction(threshold)
    a = analyze(w)
    k, table = a.weight.shape.k, a.scaled_averages
    # average > p/q  <=>  scaled average * q > p * unit
    bar, q = threshold.numerator * a.unit, threshold.denominator
    if table[0][0] * q > bar:
        return (ROOT,)
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
