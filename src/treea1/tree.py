"""Finite trees of homogeneity k over a probability space.

A shape ``(k, m)`` splits the unit-mass space into ``k**m`` leaves of equal
measure; the node at level ``l`` with index ``i`` covers the contiguous leaf
block ``[i*k**(m-l), (i+1)*k**(m-l))``.  Nodes are addressed arithmetically,
so ancestry, measure and leaf ranges are plain integer arithmetic and no tree
object is ever allocated.  Points of the underlying space never materialize:
for step weights every pointwise quantity is constant on leaves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError
from .rationals import _check_int


class NodeId(NamedTuple):
    """Address of a tree node: ``level`` in [0, m], ``index`` in [0, k**level)."""

    level: int
    index: int


ROOT = NodeId(0, 0)
# Largest leaf count a shape may have: every table is linear in it, so larger
# shapes are refused before anything is allocated.
MAX_LEAVES = 1 << 20


@dataclass(frozen=True)
class TreeShape:
    """Homogeneity ``k`` (branching factor) and depth ``m`` (leaf level)."""

    k: int
    m: int

    def __post_init__(self):
        _check_int(self.k, "homogeneity k", 2)
        _check_int(self.m, "depth m", 1)
        # k >= 2, so bounding m first keeps k**m small enough to form
        if self.m >= MAX_LEAVES.bit_length() or self.k**self.m > MAX_LEAVES:
            raise ParameterError(f"shape k={self.k}, m={self.m} has more than {MAX_LEAVES} leaves")

    @property
    def leaf_count(self) -> int:
        return self.k**self.m


def make_shape(k: int, m: int) -> TreeShape:
    """Validated constructor for a tree shape."""
    return TreeShape(k, m)


def check_node(shape: TreeShape, node: NodeId) -> NodeId:
    """Validate a node address against a shape; returns the node unchanged."""
    level, index = node
    if not (0 <= level <= shape.m):
        raise ParameterError(f"node level {level} outside [0, {shape.m}]")
    if not (0 <= index < shape.k**level):
        raise ParameterError(f"node index {index} outside [0, {shape.k**level}) at level {level}")
    return NodeId(level, index)


def leaves_under(shape: TreeShape, node: NodeId) -> range:
    """Contiguous range of leaf indices descending from the node."""
    node = check_node(shape, node)
    width = shape.k ** (shape.m - node.level)
    return range(node.index * width, (node.index + 1) * width)
