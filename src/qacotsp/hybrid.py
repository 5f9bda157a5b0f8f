"""End-to-end hybrid solver in three stages: solve the leaves, join, refine.

The cluster tree decomposes the instance.  One pass solves every leaf as a
small TSP cycle (quantum-sampled colony, classical colony, or brute force).
A pure recursive join then stitches the leaf cycles up the tree: siblings
are visited in the order of a brute-force tour over their centroids, and
adjacent cycles are merged by the cheapest 2-edge exchange.  The root cycle
over all cities is validated and measured once, then optionally polished by
2-opt or a short classical colony run.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .aco import AcoParams, aco_solve
from .cluster import ClusterTree, build_cluster_tree, centroid_of
from .qaco import MAX_CITIES, QacoParams, qaco_solve
from .qsim import NO_NOISE, NoiseSpec
from .tsplib import (
    Instance,
    InvariantError,
    MetricMode,
    Tour,
    cycle_length,
    distance_matrix,
    sub_distance_matrix,
    validate_tour,
)


class LeafSolver(enum.Enum):
    QACO = "qaco"
    CLASSICAL_ACO = "aco"
    BRUTE_FORCE = "brute"


class Refinement(enum.Enum):
    NONE = "none"
    TWO_OPT = "two-opt"
    ACO_POLISH = "aco-polish"


@dataclass(frozen=True)
class HybridConfig:
    leaf_solver: LeafSolver = LeafSolver.QACO
    qaco_params: QacoParams = QacoParams()
    aco_params: AcoParams = AcoParams()
    noise: NoiseSpec = NO_NOISE
    metric: MetricMode = MetricMode.CANONICAL
    refinement: Refinement = Refinement.TWO_OPT
    two_opt_max_passes: int = 20
    polish_iterations: int = 200
    seed: int = 0
    # 4 cities per leaf matches the 8 path qubits of the sampling register.
    leaf_max: int = 4
    branching: int = 4
    kmeans_restarts: int = 10

    def __post_init__(self):
        for name, low in (("two_opt_max_passes", 0), ("polish_iterations", 0),
                          ("leaf_max", 2), ("branching", 2), ("kmeans_restarts", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.leaf_solver is LeafSolver.QACO and self.leaf_max > MAX_CITIES:
            raise ValueError(f"leaf_max must be <= {MAX_CITIES} with the QACO leaf solver, "
                             f"got {self.leaf_max}")


def _first_shortest(D: np.ndarray, orders):
    """The first of ``orders`` whose ``cycle_length`` over ``D`` is strictly shortest."""
    best, best_len = None, np.inf
    for order in orders:
        length = cycle_length(D, order)
        if length < best_len:
            best, best_len = order, length
    return best


def brute_force_order(D: np.ndarray) -> Tour:
    """Exact minimum cycle by enumeration with city 0 fixed (k <= ~8)."""
    k = D.shape[0]
    return Tour(_first_shortest(D, ((0,) + p for p in itertools.permutations(range(1, k)))))


def order_siblings(centroids) -> list:
    """Optimal cyclic visiting order of <= 4 centroids, brute-forced.

    All k! orders are tried over planar ``np.hypot`` centroid distances; ties
    resolve to the lexicographically smallest ordering, because orders are
    enumerated in lexicographic order and only strict improvements are kept.
    """
    pts = np.asarray(centroids, dtype=float)
    k = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    return list(_first_shortest(np.hypot(diff[..., 0], diff[..., 1]),
                                itertools.permutations(range(k))))


def _merge_two_cycles(a: list, b: list, D: np.ndarray):
    """Cheapest single 2-edge exchange joining two disjoint cycles.

    Every pair of (edge i of a, edge j of b) is tried in both reconnection
    orientations; returns (merged cycle, added length).  A one-city cycle
    [x], swapped into ``b`` if it is ``a``, has the single edge (x, x).  This
    relies on D's zero diagonal: an exchange then costs exactly the insertion
    of x into an edge of the other cycle, and the reversed orientation ties.

    The added costs fill an (la, lb, 2) array, each entry summed in the same
    order as a scalar loop would: ``removed`` first, then ``D[a1, b2] +
    D[b1, a2] - removed``.  A loop over (i, j, orientation) that keeps only
    strict improvements ends on the first occurrence of the minimum in that
    order, which is the first minimum ``np.argmin`` finds in the C-ordered
    array.
    """
    if len(a) == 1:
        a, b = b, a
    A1, B1 = np.asarray(a), np.asarray(b)
    A2, B2 = np.roll(A1, -1), np.roll(B1, -1)
    removed = D[A1, A2][:, None] + D[B1, B2][None, :]
    A1, A2 = A1[:, None], A2[:, None]
    added = np.empty((len(a), len(b), 2), dtype=removed.dtype)
    # forward: ... a1 -> b2 ... b1 -> a2 ...
    np.subtract(D[A1, B2] + D[B1, A2], removed, out=added[..., 0])
    # reversed: ... a1 -> b1 ... b2 -> a2 ...
    np.subtract(D[A1, B1] + D[B2, A2], removed, out=added[..., 1])
    best = int(np.argmin(added))
    i, j, reverse = np.unravel_index(best, added.shape)
    rolled = b[j + 1:] + b[: j + 1]
    if reverse:
        rolled = rolled[::-1]
    return a[: i + 1] + rolled + a[i + 1:], float(added.flat[best])


def stitch(cycles: list, D: np.ndarray) -> list:
    """Merge ordered sibling cycles of city ids into one cycle over their union.

    Folds left over the list, joining the accumulated cycle with each next
    cycle through the cheapest enumerated 2-edge exchange.  The merged cycle
    is checked to cover exactly the cities of its input cycles.
    """
    merged = cycles[0]
    for nxt in cycles[1:]:
        merged, _ = _merge_two_cycles(merged, nxt, D)
    if sorted(merged) != sorted(itertools.chain.from_iterable(cycles)):
        raise InvariantError("stitched cycle must cover the union exactly")
    return merged


def two_opt(tour: Tour, inst: Instance, metric: MetricMode = MetricMode.CANONICAL,
            max_passes: int = 20, D: np.ndarray = None) -> Tour:
    """First-improvement 2-opt sweeps; never returns a longer tour.

    For each i, the deltas of the exchanges (i, j) over the whole remaining
    j range are one vector, each summed left to right in float64 as a scalar
    loop would.  Reversing positions i+1..j leaves every position after j
    in place, so the scalar loop's candidates after its first improvement
    j are those of a rescan from j + 1 with the new b.  Taking the first
    delta below -1e-12, reversing, and rescanning from j + 1 therefore makes
    the scalar loop's moves in its order.
    """
    if max_passes < 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")
    if D is None:
        D = distance_matrix(inst, metric)
    n = len(tour.order)
    if n < 4:
        return tour
    D = np.asarray(D, dtype=np.float64)
    # order[n] repeats order[0], which no reversal below moves.
    order = np.array(tour.order + tour.order[:1], dtype=np.intp)
    for _ in range(max_passes):
        improved = False
        for i in range(n - 1):
            Da = D[order[i]]
            j, end = i + 2, n - 1 if i == 0 else n
            while j < end:
                b = order[i + 1]
                c, d = order[j:end], order[j + 1:end + 1]
                delta = Da[c] + D[b, d] - Da[b] - D[c, d]
                hits = np.flatnonzero(delta < -1e-12)
                if not hits.size:
                    break
                j += int(hits[0])
                order[i + 1: j + 1] = order[i + 1: j + 1][::-1]
                improved = True
                j += 1
        if not improved:
            break
    return Tour(order[:n])


@dataclass(frozen=True)
class HybridStats:
    leaf_sizes: tuple
    leaf_lengths: tuple
    stitched_length: float
    refined_length: float
    stitch_cost: float
    refinement_gain: float
    tree_depth: int
    leaf_iterations: int
    repairs: int
    mutations: int
    wall_ms: float


def _solve_leaf(inst, indices, config: HybridConfig, seed, D):
    """One leaf's (global cycle, length, iterations, repairs, mutations); 0 for no count."""
    sub = sub_distance_matrix(D, indices)
    counts = (0, 0, 0)
    if len(indices) <= 3 or config.leaf_solver is LeafSolver.BRUTE_FORCE:
        tour = brute_force_order(sub)
        length = cycle_length(sub, tour.order)
    elif config.leaf_solver is LeafSolver.QACO:
        result = qaco_solve(inst, indices, config.qaco_params, config.noise,
                            config.metric, seed=seed, D=sub)
        tour, length = result.tour, result.length
        counts = (result.iterations, result.repairs, result.mutations)
    else:
        tour, length, history = aco_solve(inst, indices, config.aco_params, seed=seed,
                                          metric=config.metric, D=sub)
        counts = (len(history), 0, 0)
    return [indices[p] for p in tour.order], float(length), *counts


def _join(inst, tree: ClusterTree, cycles: dict, D) -> list:
    """The cycle over ``tree``'s cities, from the leaf cycles keyed by leaf node."""
    if tree.is_leaf:
        return cycles[tree.node]
    joined = [_join(inst, c, cycles, D) for c in tree.children]
    # Means over c.node, which is sorted: rows in cycle order may round differently.
    centroids = [centroid_of(inst, c.node) for c in tree.children]
    return stitch([joined[i] for i in order_siblings(centroids)], D)


def solve_hybrid(inst: Instance, config: HybridConfig = HybridConfig()):
    """Steps 1-6 of the hybrid workflow on a full instance.

    Returns (tour over all cities, length, HybridStats).  Every leaf is solved
    first, leaf i of ``tree.leaves()`` with seed (config.seed, i); then the leaf
    cycles are joined into one cycle, which is refined.  The stats come last.
    """
    start = time.perf_counter()
    D = distance_matrix(inst, config.metric)
    tree = build_cluster_tree(
        inst,
        leaf_max=config.leaf_max,
        branching=config.branching,
        seed=config.seed,
        restarts=config.kmeans_restarts,
    )

    leaves = tree.leaves()
    solved = [_solve_leaf(inst, list(leaf.node), config, [config.seed, i], D)
              for i, leaf in enumerate(leaves)]
    cycles, leaf_lengths, iterations, repairs, mutations = zip(*solved)

    cycle = _join(inst, tree, {leaf.node: c for leaf, c in zip(leaves, cycles)}, D)
    if not validate_tour(cycle, inst.dimension):
        raise InvariantError(f"stitched tour is not a permutation of {inst.dimension} cities")
    stitched = Tour(tuple(cycle))
    stitched_length = cycle_length(D, cycle)

    if config.refinement is Refinement.TWO_OPT:
        refined = two_opt(stitched, inst, config.metric,
                          max_passes=config.two_opt_max_passes, D=D)
    elif config.refinement is Refinement.ACO_POLISH:
        polish_params = dataclasses.replace(
            config.aco_params, iterations=config.polish_iterations
        )
        # The stitched tour seeds the incumbent, which only a shorter tour replaces.
        refined, _, _ = aco_solve(
            inst, range(inst.dimension), polish_params, seed=config.seed,
            metric=config.metric, initial_tour=stitched, D=D,
        )
    else:
        refined = stitched

    length = cycle_length(D, refined.order)
    if not length <= stitched_length + 1e-9:
        raise InvariantError(f"refinement lengthened the tour: {length!r} > {stitched_length!r}")
    return refined, length, HybridStats(
        leaf_sizes=tuple(len(leaf.node) for leaf in leaves), leaf_lengths=leaf_lengths,
        stitched_length=stitched_length, refined_length=length,
        stitch_cost=stitched_length - sum(leaf_lengths), refinement_gain=stitched_length - length,
        tree_depth=tree.depth(), leaf_iterations=sum(iterations), repairs=sum(repairs),
        mutations=sum(mutations), wall_ms=(time.perf_counter() - start) * 1000.0)
