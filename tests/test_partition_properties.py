"""Property tests for the cluster-tree partition and the ``Tour`` type.

The hybrid walk relies on the tree: its leaves cover every city exactly once
and fit the leaf solver, and each inner node's ``node`` is the sorted union of
its children's, which is what sibling centroids are averaged over.  Points on
a small integer grid make coincident cities, and with them K-means ties,
common.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacotsp.cluster import build_cluster_tree
from qacotsp.tsplib import Instance, InvalidTour, Tour, gen_random_instance

SETTINGS = settings(max_examples=100, deadline=None, database=None)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        return gen_random_instance(n, draw(st.integers(0, 2 ** 31 - 1)), 1000.0)
    coords = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=n, max_size=n))
    return Instance("grid", n, "EUC_2D", np.array(coords, dtype=float))


def nodes(tree):
    yield tree
    for child in tree.children:
        yield from nodes(child)


@SETTINGS
@given(inst=instances(), leaf_max=st.integers(2, 5), branching=st.integers(2, 5),
       seed=st.integers(0, 2 ** 31 - 1))
def test_cluster_tree_partitions_the_cities(inst, leaf_max, branching, seed):
    tree = build_cluster_tree(inst, leaf_max=leaf_max, branching=branching, seed=seed,
                              restarts=1)
    leaves = [leaf.node for leaf in tree.leaves()]
    assert sorted(itertools.chain.from_iterable(leaves)) == list(range(inst.dimension))
    assert all(len(leaf) <= leaf_max for leaf in leaves)
    for node in nodes(tree):
        assert list(node.node) == sorted(node.node)
        if node.is_leaf:
            continue
        union = sorted(itertools.chain.from_iterable(c.node for c in node.children))
        assert list(node.node) == union
        k = len(node.children)
        if len(node.node) >= 2 * k:
            assert all(len(c.node) >= 2 for c in node.children)


@SETTINGS
@given(order=st.integers(0, 7).flatmap(lambda k: st.one_of(
    st.permutations(range(k)), st.lists(st.integers(-1, k), min_size=k, max_size=k))))
def test_tour_accepts_exactly_the_permutations(order):
    if sorted(order) == list(range(len(order))):
        assert Tour(tuple(order)).order == tuple(order)
    else:
        with pytest.raises(InvalidTour):
            Tour(tuple(order))
