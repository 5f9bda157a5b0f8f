"""Golden test for K-means: ``cluster.kmeans`` against a frozen reference.

``reference_kmeans`` below is K-means as it stood with one restart at a
time: each restart seeds with K-means++ through ``Generator.choice`` and
then runs Lloyd on its own (n, k) distance table.  The K-means under test
must return the same labels, centroids, inertia (as a hex float) and
inertia history, bit for bit, on random, integer-grid, collinear, clumped
and all-coincident points.  The last three make the empty-cluster reseed
fire; ``RESEEDS`` counts it, so the tests can show the branch was taken.
The K-means++ draw, ``draws.choice_index``, is checked on its own against
``Generator.choice`` in ``test_draws.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacotsp import cluster
from qacotsp.bench import resolve_instance
from qacotsp.cluster import ClusterAssignment, build_cluster_tree
from qacotsp.tsplib import InvariantError

LLOYD_MAX_ITER = 100
RESEEDS = [0]  # empty clusters the reference has reseeded


def reference_kmeanspp_init(points, k, rng) -> np.ndarray:
    n = len(points)
    centroids = [points[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - np.asarray(centroids)[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        total = d2.sum()
        if total <= 0.0:
            probs = np.full(n, 1.0 / n)
        else:
            probs = d2 / total
        centroids.append(points[rng.choice(n, p=probs)])
    return np.asarray(centroids)


def reference_lloyd(points, k, rng):
    centroids = reference_kmeanspp_init(points, k, rng)
    labels = np.zeros(len(points), dtype=int)
    history = []
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for cid in range(k):
            if not np.any(labels == cid):
                RESEEDS[0] += 1
                sizes = np.bincount(labels, minlength=k)
                dist_to_own = d2[np.arange(len(points)), labels]
                dist_to_own = np.where(sizes[labels] > 1, dist_to_own, -1.0)
                labels[int(np.argmax(dist_to_own))] = cid
        new_centroids = np.array(
            [points[labels == cid].mean(axis=0) for cid in range(k)]
        )
        inertia = float(np.sum((points - new_centroids[labels]) ** 2))
        if history and not inertia <= history[-1] + 1e-9 * max(1.0, history[-1]):
            raise InvariantError(f"K-means inertia increased: {history[-1]!r} -> {inertia!r}")
        history.append(inertia)
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement < 1e-9:
            break
    return ClusterAssignment(labels, centroids, history[-1], tuple(history))


def reference_kmeans(points, k: int, restarts: int = 10, seed=None) -> ClusterAssignment:
    points = np.asarray(points, dtype=float)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    best = None
    for child in root.spawn(restarts):
        result = reference_lloyd(points, k, np.random.default_rng(child))
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def make_points(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0.0, 1000.0, size=(n, 2))
    if kind == "grid":  # at most 16 distinct points
        return rng.integers(0, 4, size=(n, 2)).astype(float)
    if kind == "collinear":
        t = rng.integers(0, 40, size=n).astype(float)
        return np.column_stack([3.0 * t - 7.0, 0.5 * t + 2.0])
    if kind == "clumps":  # fewer distinct points than clusters, often
        centers = rng.uniform(-50.0, 50.0, size=(int(rng.integers(1, 4)), 2))
        return centers[rng.integers(0, len(centers), size=n)]
    if kind == "identical":
        return np.tile(rng.uniform(0.0, 10.0, size=2), (n, 1))
    raise ValueError(kind)


KINDS = ("uniform", "grid", "collinear", "clumps", "identical")


def assert_same(points, k, restarts, seed):
    got = cluster.kmeans(points, k, restarts=restarts, seed=seed)
    want = reference_kmeans(points, k, restarts=restarts, seed=seed)
    assert np.array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.centroids, want.centroids)
    assert got.centroids.shape == want.centroids.shape
    assert got.inertia.hex() == want.inertia.hex()
    assert [h.hex() for h in got.history] == [h.hex() for h in want.history]


@settings(max_examples=120, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 300), data=st.data(),
       restarts=st.integers(1, 10), point_seed=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kmeans_matches_the_reference(kind, n, data, restarts, point_seed, seed):
    k = data.draw(st.integers(1, min(n, 4)), label="k")
    assert_same(make_points(kind, n, point_seed), k, restarts, seed)


def test_kmeans_matches_the_reference_through_empty_cluster_reseeds():
    before = RESEEDS[0]
    for trial in range(60):
        kind = KINDS[trial % len(KINDS)]
        n = 2 + (trial * 37) % 90
        assert_same(make_points(kind, n, trial), 2 + trial % 3, 1 + trial % 10, trial)
    assert RESEEDS[0] > before, "no input took the empty-cluster reseed"


@pytest.mark.parametrize("n, k", [(2, 2), (5, 3), (8, 4), (4, 4)])
def test_kmeans_reseeds_coincident_points_like_the_reference(n, k):
    before = RESEEDS[0]
    assert_same(np.zeros((n, 2)), k, 10, 3)
    assert RESEEDS[0] > before


@pytest.mark.parametrize("spec", ["data/eil51.tsp", "data/eil76.tsp", "data/berlin52.tsp",
                                  "data/ulysses22.tsp", "data/bayg29.tsp",
                                  "random:1000:2024", "random:300:7"])
def test_cluster_tree_matches_the_reference(spec, data_dir, monkeypatch):
    inst = resolve_instance(str(data_dir.parent / spec) if spec.startswith("data/") else spec)

    def shape(tree):
        return (tree.node, tuple(shape(child) for child in tree.children))

    got = shape(build_cluster_tree(inst, seed=0))
    monkeypatch.setattr(cluster, "kmeans", reference_kmeans)
    assert got == shape(build_cluster_tree(inst, seed=0))
