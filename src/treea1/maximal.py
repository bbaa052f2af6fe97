"""Tree averages, the maximal operator, A1 constants and stopping families.

Everything here is exact rational arithmetic on step weights.  The fast path,
:func:`analyze`, sums leaves bottom-up and sweeps the tree top-down once per
weight; every other fast function reads its result.  The brute force variant
re-derives every quantity straight from the definitions and exists purely as
an oracle for the fast paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .rationals import as_fraction
from .tree import ROOT, NodeId, check_node, leaves_under
from .weights import StepWeight


@dataclass(frozen=True, eq=False)
class StoppingFamily:
    """Stopping-time decomposition of a weight.

    ``members`` are the nodes whose average strictly exceeds the average of
    every strict ancestor (the root is always a member).  ``assignment`` maps
    each leaf to the largest node on its chain achieving the maximal average;
    ``star`` links each non-root member to the smallest member strictly
    containing it; ``node_averages`` records each member's average.
    """

    members: tuple[NodeId, ...]
    star: Mapping[NodeId, NodeId]
    assignment: tuple[NodeId, ...]
    node_averages: Mapping[NodeId, Fraction]

    def parts(self) -> dict[NodeId, tuple[int, ...]]:
        """Leaf partition: member -> leaves whose assignment is that member."""
        groups: dict[NodeId, list[int]] = {}
        for leaf, node in enumerate(self.assignment):
            groups.setdefault(node, []).append(leaf)
        return {node: tuple(leaves) for node, leaves in groups.items()}


@dataclass(frozen=True, eq=False)
class WeightAnalysis:
    """Node tables, maximal function and A1 constant of one weight, built by :func:`analyze`.

    ``sums`` and ``averages`` are indexed [level][index].  ``family`` is built
    on first use, so a caller that needs only c never pays for it.  Every
    function here and in ``verify`` that reads these tables accepts a weight
    or its analysis; the oracles take weights only.
    """

    weight: StepWeight
    sums: tuple[tuple[Fraction, ...], ...]
    averages: tuple[tuple[Fraction, ...], ...]
    maximal: tuple[Fraction, ...]
    c: Fraction

    @cached_property
    def family(self) -> StoppingFamily:
        """Members, star links and the leaf assignment, from one top-down sweep.

        Each node carries the running maximal average and its deepest achiever,
        the star link of a new member below it.  The sweep never reads
        ``maximal``, so the decomposition check compares two computations.
        """
        k, avgs = self.weight.shape.k, self.averages
        members: list[NodeId] = [ROOT]
        star: dict[NodeId, NodeId] = {}
        best = [(avgs[0][0], ROOT)]  # per node of a level: (running max, its deepest achiever)
        for level in range(1, len(avgs)):
            below = []
            for index, avg in enumerate(avgs[level]):
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
            node_averages={node: avgs[node.level][node.index] for node in members},
        )


def analyze(w: StepWeight | WeightAnalysis) -> WeightAnalysis:
    """Aggregate leaf sums bottom-up, then sweep the running maximum top-down once.

    Every node is visited a constant number of times, so the cost is linear
    in the number of nodes.  An analysis is returned unchanged.
    """
    if isinstance(w, WeightAnalysis):
        return w
    k, m = w.shape.k, w.shape.m
    sums = [w.leaf_values]
    for _ in range(m):
        below = sums[-1]
        sums.append(tuple(sum(below[i : i + k]) for i in range(0, len(below), k)))
    sums.reverse()
    averages = tuple(
        tuple(s / k ** (m - level) for s in sums[level]) for level in range(m + 1)
    )
    running = averages[0]
    for level in range(1, m + 1):
        running = [
            a if a > running[i // k] else running[i // k]
            for i, a in enumerate(averages[level])
        ]
    return WeightAnalysis(
        weight=w,
        sums=tuple(sums),
        averages=averages,
        maximal=tuple(running),
        c=max(mf / v for mf, v in zip(running, w.leaf_values)),
    )


def average(w: StepWeight, node: NodeId) -> Fraction:
    """Mean of the weight over a node, straight from the definition."""
    node = check_node(w.shape, node)
    block = leaves_under(w.shape, node)
    return Fraction(sum(w.leaf_values[i] for i in block), len(block))


def maximal_function(w: StepWeight | WeightAnalysis) -> tuple[Fraction, ...]:
    """Per-leaf maximum of node averages over the leaf's ancestor chain."""
    return analyze(w).maximal


def maximal_function_bruteforce(w: StepWeight) -> tuple[Fraction, ...]:
    """Definitional oracle: enumerate every (leaf, ancestor) pair explicitly.

    Node averages are recomputed by direct summation over each node's own
    leaf range; nothing is shared with the fast path.
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
    """
    threshold = as_fraction(threshold)
    a = analyze(w)
    k, m = a.weight.shape.k, a.weight.shape.m
    out: list[NodeId] = []
    stack = [ROOT]
    while stack:
        node = stack.pop()
        if a.averages[node.level][node.index] > threshold:
            out.append(node)
        elif node.level < m:
            base = node.index * k
            stack.extend(NodeId(node.level + 1, base + j) for j in range(k))
    return tuple(sorted(out))


def stopping_family(w: StepWeight | WeightAnalysis) -> StoppingFamily:
    """Members, star links and the leaf assignment; see :attr:`WeightAnalysis.family`."""
    return analyze(w).family
