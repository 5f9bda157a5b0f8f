"""K-means clustering and the recursive cluster tree used for decomposition.

Cities are split with K-means (K-means++ seeding, multiple restarts) until
every leaf holds at most ``leaf_max`` cities, the size a 2-bits-per-city
quantum register can encode.

``kmeans`` runs its restarts in lockstep.  Each K-means++ step (Arthur and
Vassilvitskii, 2007) picks the next seed of every restart from one (R, n)
block, and each Lloyd iteration (Lloyd, 1982) updates every restart still
moving from one (R, k, n) distance block.  Every restart keeps its own
generator and makes the same draws, in the same order, as it would alone
(the seeding's is ``draws.choice_index``).  ``tests/test_kmeans_golden.py``
pins every result against a frozen one-restart-at-a-time K-means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .draws import choice_index
from .tsplib import Instance, InvariantError, city_ids

LLOYD_MAX_ITER = 100  # Lloyd iterations per K-means restart, unless centroids settle first


class EmptyInput(ValueError):
    pass


class KTooLarge(ValueError):
    pass


class EmptySet(ValueError):
    pass


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    # Inertia after each Lloyd iteration of the winning restart; checked
    # non-increasing as it is built.
    history: tuple = ()


@dataclass
class ClusterTree:
    """Recursive partition of city indices; leaves are small enough to solve."""

    node: tuple
    children: list = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self):
        if self.is_leaf:
            return [self]
        out = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(child.depth() for child in self.children)


def _inertia(points, centroids, slots) -> np.ndarray:
    """Inertia of each restart: (n, 2) points, (A, k, 2) centroids, (A * n,) slots.

    Point i of restart r sits in slot ``r * k + label``.  Each row sums its
    points' squared offsets in point order, as one restart's (n, 2) sum does.
    """
    a = len(centroids)
    assigned = centroids.reshape(-1, 2)[slots].reshape(a, -1, 2)
    return ((points - assigned) ** 2).reshape(a, -1).sum(axis=1)


def _squared_distances(xy, centroids) -> np.ndarray:
    """(A, k, n) squared distances from each restart's centroids to the (2, n) points."""
    d = np.subtract(xy[:, None, None, :], centroids.transpose(2, 0, 1)[..., None])
    np.square(d, out=d)
    return np.add(d[0], d[1], out=d[0])


def _kmeanspp(xy, k, rngs) -> np.ndarray:
    """K-means++ seeds of every restart at once, as (R, k, 2) centroids."""
    n = xy.shape[1]
    centroids = np.empty((len(rngs), k, 2))
    centroids[:, 0] = xy[:, [rng.integers(n) for rng in rngs]].T
    d2 = _squared_distances(xy, centroids[:, :1])[:, 0]
    for j in range(1, k):
        total = d2.sum(axis=1)
        uniform = total <= 0.0
        probs = np.divide(d2, total[:, None], out=np.full_like(d2, 1.0 / n),
                          where=~uniform[:, None])
        centroids[:, j] = xy[:, choice_index(probs, np.array([rng.random() for rng in rngs]))].T
        d2 = np.minimum(d2, _squared_distances(xy, centroids[:, j:j + 1])[:, 0])
    return centroids


def _reseed_empty(labels, d2, k) -> None:
    """Give each empty cluster the point farthest from its own centroid.

    ``d2`` is the (k, n) distance table.  Lowest point index on ties, and
    never a cluster's last member.
    """
    n = len(labels)
    for cid in range(k):
        sizes = np.bincount(labels, minlength=k)
        if sizes[cid] == 0:
            dist_to_own = np.where(sizes[labels] > 1, d2[labels, np.arange(n)], -1.0)
            labels[int(np.argmax(dist_to_own))] = cid


def kmeans(points, k: int, restarts: int = 10, seed=None) -> ClusterAssignment:
    """Best-of-``restarts`` K-means with K-means++ initialization.

    Returns the restart with the lowest inertia; ties keep the earlier
    restart, so a result is fully determined by the seed.  Restart r draws
    from its own generator, built from child r of ``seed``'s spawn.  The
    restarts run in lockstep (see the module docstring), and each one ends
    as it would alone: cluster sums come from a weighted ``np.bincount``,
    which adds a cluster's points in index order as a per-cluster mean does.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise EmptyInput("no points to cluster")
    if not 1 <= k <= len(points):
        raise KTooLarge(f"k={k} invalid for {len(points)} points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n = len(points)
    xy = np.ascontiguousarray(points.T)
    # default_rng(child) at half the cost (see draws.py)
    rngs = [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(restarts)]
    centroids = _kmeanspp(xy, k, rngs)
    weights = np.tile(xy, restarts)  # x and y of every point, once per restart
    offsets = k * np.arange(restarts)[:, None]  # restart r's clusters are slots r*k..r*k+k-1
    final_labels = np.empty((restarts, n), dtype=np.intp)
    final_centroids = np.empty_like(centroids)
    history = np.empty((restarts, LLOYD_MAX_ITER))
    iterations = np.zeros(restarts, dtype=int)
    active = np.arange(restarts)
    prev = None
    for it in range(LLOYD_MAX_ITER):
        a = len(active)
        d2 = _squared_distances(xy, centroids)
        labels = np.argmin(d2, axis=1)  # ties break toward the lowest id
        slots = (labels + offsets[:a]).ravel()
        counts = np.bincount(slots, minlength=a * k)
        if not counts.all():
            for row in np.flatnonzero((counts.reshape(a, k) == 0).any(axis=1)):
                _reseed_empty(labels[row], d2[row], k)
            slots = (labels + offsets[:a]).ravel()
            counts = np.bincount(slots, minlength=a * k)
        sums = np.stack([np.bincount(slots, weights=w[:a * n], minlength=a * k)
                         for w in weights], axis=1)
        new_centroids = (sums / counts[:, None]).reshape(a, k, 2)
        inertia = _inertia(points, new_centroids, slots)
        if prev is not None:
            rose = ~(inertia <= prev + 1e-9 * np.maximum(1.0, prev))
            if rose.any():
                i = int(np.argmax(rose))
                raise InvariantError(f"K-means inertia increased between Lloyd iterations "
                                     f"of restart {active[i]}: {float(prev[i])!r} -> "
                                     f"{float(inertia[i])!r}")
        history[active, it] = inertia
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=2)).max(axis=1)
        done = (movement < 1e-9) | (it == LLOYD_MAX_ITER - 1)
        if done.any():
            finished = active[done]
            final_labels[finished] = labels[done]
            final_centroids[finished] = new_centroids[done]
            iterations[finished] = it + 1
            moving = ~done
            active, new_centroids, inertia = active[moving], new_centroids[moving], inertia[moving]
            if not len(active):
                break
        centroids, prev = new_centroids, inertia
    inertias = history[np.arange(restarts), iterations - 1].tolist()
    best = min(range(restarts), key=inertias.__getitem__)
    return ClusterAssignment(final_labels[best].copy(), final_centroids[best].copy(),
                             inertias[best], tuple(history[best, :iterations[best]].tolist()))


def centroid_of(inst: Instance, indices) -> tuple:
    """Arithmetic mean of the coordinates of the given cities (``tsplib.city_ids``)."""
    idx = city_ids(list(indices), inst.dimension)
    if idx.size == 0:
        raise EmptySet("cannot take the centroid of an empty set")
    x, y = inst.coords[idx].mean(axis=0)
    return (float(x), float(y))


def _rebalance_small_parts(points, labels, k, min_size):
    """Grow undersized clusters by stealing the nearest point from the largest.

    A counting argument guarantees the donor keeps >= min_size members: while
    some cluster is below min_size <= 2, the largest holds at least 3 points
    whenever the node has >= 2k points (always true for leaf_max >= 3).  Ties
    break toward the lowest point index, keeping the split deterministic even
    for coincident points.
    """
    labels = labels.copy()
    for cid in range(k):
        while np.sum(labels == cid) < min_size:
            sizes = np.bincount(labels, minlength=k)
            donor = int(np.argmax(sizes))
            members = np.where(labels == donor)[0]
            own = np.where(labels == cid)[0]
            target = points[own if len(own) else members].mean(axis=0)
            d2 = ((points[members] - target) ** 2).sum(axis=1)
            labels[members[int(np.argmin(d2))]] = cid
    return labels


def build_cluster_tree(
    inst: Instance,
    leaf_max: int = 4,
    branching: int = 4,
    seed=None,
    restarts: int = 10,
) -> ClusterTree:
    """Recursively K-means-partition the cities into leaves of <= leaf_max.

    Each oversized node is split into k = min(branching, ceil(size/leaf_max),
    size) parts.  Children are always strictly smaller than their parent and
    never smaller than 2 cities, so recursion terminates and every leaf is a
    solvable subproblem.
    """
    if leaf_max < 2 or branching < 2:
        raise ValueError("leaf_max and branching must be >= 2")
    root_seq = np.random.SeedSequence(seed)

    def split(indices, seq):
        indices = tuple(int(i) for i in indices)
        size = len(indices)
        if size <= leaf_max:
            return ClusterTree(node=indices)
        k = min(branching, math.ceil(size / leaf_max), size)
        km_seed, *child_seqs = seq.spawn(k + 1)
        points = inst.coords[list(indices)]
        assignment = kmeans(points, k, restarts=restarts, seed=km_seed)
        # Parts of >= 2 cities whenever arithmetic allows (leaf_max = 2 with
        # an odd node is the one case where a singleton is unavoidable).
        min_size = 2 if size >= 2 * k else 1
        labels = _rebalance_small_parts(points, assignment.labels, k, min_size)
        tree = ClusterTree(node=indices)
        for cid in range(k):
            part = tuple(indices[i] for i in np.where(labels == cid)[0])
            if not min_size <= len(part) < size:
                raise InvariantError(f"part {cid} of a {size}-city node has {len(part)} "
                                     f"cities (need {min_size} to {size - 1})")
            tree.children.append(split(part, child_seqs[cid]))
        return tree

    return split(range(inst.dimension), root_seq)
