import itertools
import math

import numpy as np
import pytest

from qacotsp import cluster
from qacotsp.cluster import (
    EmptyInput,
    EmptySet,
    KTooLarge,
    build_cluster_tree,
    centroid_of,
    kmeans,
)
from qacotsp.tsplib import Instance, InvariantError, gen_random_instance, load_instance


def quad_grid_instance():
    """16 cities: 4 tight quads at the corners of a huge square."""
    corners = [(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0)]
    offsets = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    coords = [(cx + ox, cy + oy) for cx, cy in corners for ox, oy in offsets]
    return Instance("quads", 16, "EUC_2D", np.array(coords))


def test_kmeans_corners_separate():
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    result = kmeans(pts, 4, seed=0)
    assert result.inertia == pytest.approx(0.0, abs=1e-12)
    assert len(set(result.labels.tolist())) == 4


def test_kmeans_two_pairs():
    # pairs 2 apart, 1000 apart from each other: inertia = 2 * (2^2 / 2)
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1000.0, 0.0], [1002.0, 0.0]])
    result = kmeans(pts, 2, seed=1)
    assert result.inertia == pytest.approx(4.0)
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]
    assert result.labels[0] != result.labels[2]
    centroid_xs = sorted(c[0] for c in result.centroids)
    assert centroid_xs == pytest.approx([1.0, 1001.0])


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 10, size=(20, 2))
    result = kmeans(pts, 1, seed=3)
    assert np.allclose(result.centroids[0], pts.mean(axis=0))
    expected = float(np.sum((pts - pts.mean(axis=0)) ** 2))
    assert result.inertia == pytest.approx(expected)


def test_kmeans_errors():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(KTooLarge):
        kmeans(pts, 3, seed=0)
    with pytest.raises(EmptyInput):
        kmeans(np.empty((0, 2)), 1, seed=0)


def test_kmeans_inertia_history_non_increasing():
    rng = np.random.default_rng(4)
    for trial in range(50):
        pts = rng.uniform(0, 100, size=(rng.integers(5, 40), 2))
        k = int(rng.integers(1, min(6, len(pts)) + 1))
        result = kmeans(pts, k, restarts=2, seed=trial)
        history = list(result.history)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 100, size=(30, 2))
    a = kmeans(pts, 3, seed=42)
    b = kmeans(pts, 3, seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_kmeans_coincident_points():
    pts = np.zeros((8, 2))
    result = kmeans(pts, 2, seed=0)
    assert result.inertia == pytest.approx(0.0)


def test_centroid_of():
    inst = Instance("c", 4, "EUC_2D",
                    np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [5.0, 5.0]]))
    assert centroid_of(inst, [0, 1]) == pytest.approx((1.0, 0.0))
    assert centroid_of(inst, [3]) == pytest.approx((5.0, 5.0))
    with pytest.raises(EmptySet):
        centroid_of(inst, [])


def assert_partition(tree, n):
    leaves = tree.leaves()
    all_indices = sorted(i for leaf in leaves for i in leaf.node)
    assert all_indices == list(range(n))
    return leaves


def test_tree_quads_split_cleanly():
    inst = quad_grid_instance()
    tree = build_cluster_tree(inst, seed=0)
    leaves = assert_partition(tree, 16)
    assert tree.depth() == 1
    assert len(leaves) == 4
    # geometric separation oracle: each leaf is exactly one quad
    quads = [set(range(q * 4, q * 4 + 4)) for q in range(4)]
    assert sorted(map(sorted, (set(l.node) for l in leaves))) == sorted(map(sorted, quads))


def test_tree_small_instance_single_leaf():
    inst = gen_random_instance(4, 9, 10.0)
    tree = build_cluster_tree(inst, seed=1)
    assert tree.is_leaf
    assert sorted(tree.node) == [0, 1, 2, 3]


def test_tree_eil76(data_dir):
    inst = load_instance(data_dir / "eil76.tsp")
    tree = build_cluster_tree(inst, seed=7)
    leaves = assert_partition(tree, 76)
    for leaf in leaves:
        assert 2 <= len(leaf.node) <= 4
    assert tree.depth() <= math.ceil(math.log(76, 4)) + 2


def test_tree_deterministic():
    inst = gen_random_instance(40, 3, 100.0)
    t1 = build_cluster_tree(inst, seed=11)
    t2 = build_cluster_tree(inst, seed=11)

    def flatten(t):
        return (tuple(t.node), tuple(flatten(c) for c in t.children))

    assert flatten(t1) == flatten(t2)


def test_tree_coincident_points_terminates():
    inst = Instance("dup", 9, "EUC_2D", np.zeros((9, 2)))
    tree = build_cluster_tree(inst, seed=0)
    leaves = assert_partition(tree, 9)
    for leaf in leaves:
        assert 2 <= len(leaf.node) <= 4


# ---------------------------------------------------------------------------
# invariant checks (explicit raises, kept under python -O)


def test_kmeans_raises_when_inertia_increases(monkeypatch):
    counter = itertools.count()
    # _inertia returns one inertia per restart still moving
    monkeypatch.setattr(cluster, "_inertia",
                        lambda points, centroids, slots: np.full(len(centroids),
                                                                 float(next(counter))))
    points = gen_random_instance(20, 5, 100.0).coords
    with pytest.raises(InvariantError):
        kmeans(points, 3, restarts=1, seed=0)


def test_kmeans_raises_when_only_a_later_restart_inertia_increases(monkeypatch):
    counter = itertools.count()
    inertia = cluster._inertia

    def last_restart_rises(points, centroids, slots):
        out = inertia(points, centroids, slots)
        out[-1] += 1e6 * next(counter)  # the last restart still moving
        return out

    points = gen_random_instance(20, 5, 100.0).coords
    monkeypatch.setattr(cluster, "_inertia", last_restart_rises)
    with pytest.raises(InvariantError, match="of restart 2: "):
        kmeans(points, 3, restarts=3, seed=0)


@pytest.mark.parametrize("bad_labels", [
    lambda labels: np.zeros_like(labels),  # one part keeps the whole node
    lambda labels: np.where(np.arange(len(labels)) == 0, 1, 0),  # a singleton part
])
def test_tree_raises_on_bad_partition(bad_labels, monkeypatch):
    monkeypatch.setattr(cluster, "_rebalance_small_parts",
                        lambda points, labels, k, min_size: bad_labels(labels))
    with pytest.raises(InvariantError):
        build_cluster_tree(gen_random_instance(12, 0, 100.0), seed=0, restarts=1)
