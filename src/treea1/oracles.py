"""Independent oracles for the fast path: the only place mathematics may be duplicated.

Each oracle recomputes from the definition what the int kernel in
``maximal`` and ``rearrangement`` computes fast, so a check that compares the
two compares two computations.  To stay independent, an oracle takes and
returns ``Fraction``s, reads only a weight's ``shape`` and ``leaf_values``
(never its palette or leaf codes), and imports only the standard library,
``.tree``, ``.rationals`` and ``.errors``; ``StepWeight`` is imported for
annotations only.
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
