"""K-means clustering and the recursive cluster tree used for decomposition.

Cities are split with K-means (K-means++ seeding, multiple restarts) until
every leaf holds at most ``leaf_max`` cities, the size a 2-bits-per-city
quantum register can encode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tsplib import Instance, InvariantError

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


def _inertia(points, centroids, labels) -> float:
    return float(np.sum((points - centroids[labels]) ** 2))


def _kmeanspp_init(points, k, rng) -> np.ndarray:
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


def _lloyd(points, k, rng):
    centroids = _kmeanspp_init(points, k, rng)
    labels = np.zeros(len(points), dtype=int)
    history = []
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)  # ties break toward the lowest id

        # Reseed empty clusters with the point currently farthest from its
        # assigned centroid (lowest index on ties), never draining a cluster
        # below one member.
        for cid in range(k):
            if not np.any(labels == cid):
                sizes = np.bincount(labels, minlength=k)
                dist_to_own = d2[np.arange(len(points)), labels]
                dist_to_own = np.where(sizes[labels] > 1, dist_to_own, -1.0)
                labels[int(np.argmax(dist_to_own))] = cid

        new_centroids = np.array(
            [points[labels == cid].mean(axis=0) for cid in range(k)]
        )
        inertia = _inertia(points, new_centroids, labels)
        if history and not inertia <= history[-1] + 1e-9 * max(1.0, history[-1]):
            raise InvariantError(f"K-means inertia increased between Lloyd iterations: "
                                 f"{history[-1]!r} -> {inertia!r}")
        history.append(inertia)
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement < 1e-9:
            break
    return ClusterAssignment(labels, centroids, history[-1], tuple(history))


def kmeans(points, k: int, restarts: int = 10, seed=None) -> ClusterAssignment:
    """Best-of-``restarts`` K-means with K-means++ initialization.

    Returns the restart with the lowest inertia; ties keep the earlier
    restart, so a result is fully determined by the seed.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise EmptyInput("no points to cluster")
    if not 1 <= k <= len(points):
        raise KTooLarge(f"k={k} invalid for {len(points)} points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    best = None
    for child in root.spawn(restarts):
        result = _lloyd(points, k, np.random.default_rng(child))
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def centroid_of(inst: Instance, indices) -> tuple:
    """Arithmetic mean of the coordinates of the given cities."""
    idx = np.asarray(list(indices), dtype=int)
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
