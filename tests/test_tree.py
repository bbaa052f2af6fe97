import pytest

from treea1 import MAX_LEAVES, NodeId, ParameterError, leaves_under, make_shape
from treea1.tree import ROOT


def test_leaf_counts():
    assert make_shape(2, 3).leaf_count == 8
    assert make_shape(3, 2).leaf_count == 9


def test_shape_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_shape(1, 2)
    with pytest.raises(ParameterError):
        make_shape(2, 0)
    with pytest.raises(ParameterError):
        make_shape("2", 2)


def test_shape_refuses_more_than_max_leaves():
    assert make_shape(2, 20).leaf_count == MAX_LEAVES
    for k, m in ((2, 21), (10, 9), (MAX_LEAVES + 1, 1), (2, 10**9)):
        with pytest.raises(ParameterError, match="leaves"):
            make_shape(k, m)


def test_leaves_under_rejects_invalid_nodes():
    shape = make_shape(2, 2)
    for bad in (NodeId(3, 0), NodeId(1, 2), NodeId(1, -1), NodeId(-1, 0)):
        with pytest.raises(ParameterError):
            leaves_under(shape, bad)


def test_leaves_under_ranges():
    shape = make_shape(2, 2)
    assert list(leaves_under(shape, ROOT)) == [0, 1, 2, 3]
    assert list(leaves_under(shape, NodeId(1, 1))) == [2, 3]
    assert list(leaves_under(shape, NodeId(2, 3))) == [3]


def test_level_nodes_partition_leaves():
    shape = make_shape(3, 3)
    for level in range(shape.m + 1):
        seen = []
        for index in range(shape.k**level):
            seen.extend(leaves_under(shape, NodeId(level, index)))
        assert seen == list(range(shape.leaf_count))
