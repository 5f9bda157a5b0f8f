"""End-to-end hybrid solver in three stages: solve the leaves, join, refine.

The cluster tree decomposes the instance.  One pass solves every leaf as a
small TSP cycle (quantum-sampled colony, classical colony, or brute force).
A pure recursive join then stitches the leaf cycles up the tree: siblings
are visited in the order of a brute-force tour over their centroids, and
adjacent cycles are merged by the cheapest 2-edge exchange.  The root cycle
over all cities is validated and measured once, then optionally polished by
2-opt or a short classical colony run.

No stage builds the n x n distance matrix.  One ``tsplib.Distances`` per
solve holds the cities' coordinates as the metric reads them, and every
stage computes the distances it reads from it, so memory stays linear in n:

* its construction checks for an overflow once, from the coordinates'
  bounding box, and from every distance only when that cannot rule one out;
* each leaf solver gets the k x k matrix of its k cities;
* a merge computes the block between its two cycles' cities, a bounded
  number of rows at a time, and the two cycles' edges;
* 2-opt keeps the tour's edges, and computes the distances of a few
  consecutive positions to the later ones at a time;
* the stitched and refined lengths sum the tour's edges;
* only the aco-polish refinement builds the full matrix, as its n x n
  pheromone matrix needs that memory anyway.
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
    Distances,
    Instance,
    InvariantError,
    MetricMode,
    Tour,
    cycle_length,
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


# Entries of the a x b distance block one merge computes at a time: the
# block and the (rows, b, 2) array of added costs stay bounded in memory.
MERGE_BLOCK = 1 << 14


def _merge_two_cycles(a: list, b: list, dist: Distances):
    """Cheapest single 2-edge exchange joining two disjoint cycles.

    Every pair of (edge i of a, edge j of b) is tried in both reconnection
    orientations; returns (merged cycle, added length).  A one-city cycle
    [x], swapped into ``b`` if it is ``a``, has the single edge (x, x) of
    length 0: an exchange then costs exactly the insertion of x into an
    edge of the other cycle, and the reversed orientation ties.

    With each cycle followed by its first city again, one distance block
    M over (a1 rows) x (b1 cols) holds every distance an exchange reads:
    D[a1, b2], D[b1, a2], D[a1, b1] and D[b2, a2] are its four shifted
    views.  The added costs fill a (rows, lb, 2) array, each entry summed in
    the same order as a scalar loop would: ``removed`` first, then
    ``D[a1, b2] + D[b1, a2] - removed``.  A loop over (i, j, orientation)
    that keeps only strict improvements ends on the first occurrence of the
    minimum in that order, which is the first minimum ``np.argmin`` finds in
    the C-ordered array; blocks of rows are taken in order, and a later
    block replaces the best only with a strictly lower cost.
    """
    if len(a) == 1:
        a, b = b, a
    la, lb = len(a), len(b)
    ids = np.array(a + a[:1] + b + b[:1])
    A, B = ids[:la + 1], ids[la + 1:]
    # edge p joins ids[p] and ids[p + 1]; edge la (a's first city to b's) is unused
    edges = dist.pairs(ids[:-1], ids[1:])
    b_edges = edges[la + 1:]
    rows = max(1, MERGE_BLOCK // (lb + 1))
    best, best_add = None, None
    for start in range(0, la, rows):
        stop = min(start + rows, la)
        M = dist.pairs(A[start:stop + 1, None], B)
        removed = edges[start:stop, None] + b_edges
        added = np.empty((stop - start, lb, 2))
        # forward: ... a1 -> b2 ... b1 -> a2 ...
        np.subtract(M[:-1, 1:] + M[1:, :-1], removed, out=added[..., 0])
        # reversed: ... a1 -> b1 ... b2 -> a2 ...
        np.subtract(M[:-1, :-1] + M[1:, 1:], removed, out=added[..., 1])
        k = int(np.argmin(added))
        if best is None or added.flat[k] < best_add:
            best, best_add = start * lb * 2 + k, float(added.flat[k])
    i, j, reverse = np.unravel_index(best, (la, lb, 2))
    rolled = b[j + 1:] + b[: j + 1]
    if reverse:
        rolled = rolled[::-1]
    return a[: i + 1] + rolled + a[i + 1:], best_add


def stitch(cycles: list, dist: Distances) -> list:
    """Merge ordered sibling cycles of city ids into one cycle over their union.

    Folds left over the list, joining the accumulated cycle with each next
    cycle through the cheapest enumerated 2-edge exchange.  The merged cycle
    is checked to cover exactly the cities of its input cycles.
    """
    merged = cycles[0]
    for nxt in cycles[1:]:
        merged, _ = _merge_two_cycles(merged, nxt, dist)
    if sorted(merged) != sorted(itertools.chain.from_iterable(cycles)):
        raise InvariantError("stitched cycle must cover the union exactly")
    return merged


# Positions whose distances to the later positions 2-opt computes at once.
TWO_OPT_ROWS = 8


def two_opt(tour: Tour, dist: Distances, max_passes: int = 20) -> Tour:
    """First-improvement 2-opt sweeps; never returns a longer tour.

    For each i, the deltas of the exchanges (i, j) over the whole remaining
    j range are one vector, each summed left to right in float64 as a scalar
    loop would.  Reversing positions i+1..j leaves every position after j
    in place, so the scalar loop's candidates after its first improvement
    j are those of a rescan from j + 1 with the new b.  Taking the first
    delta below -1e-12, reversing, and rescanning from j + 1 therefore makes
    the scalar loop's moves in its order.

    The cities' coordinates and the edge lengths are kept in tour order and
    reversed with them.  The distances of a and b to the later positions
    are rows of a block computed for ``TWO_OPT_ROWS`` positions at once,
    which serves the next i's until a move reorders their positions.
    """
    if max_passes < 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")
    n = len(tour.order)
    if n < 4:
        return tour
    # order[n] repeats order[0], which no reversal below moves.
    order = np.array(tour.order + tour.order[:1], dtype=np.intp)
    u, v = dist.u[order], dist.v[order]
    # edge[p] joins positions p and p + 1
    edge = dist.between(u[:-1], v[:-1], u[1:], v[1:])
    for _ in range(max_passes):
        improved = False
        # rows[r, q] is the distance of position at + r to position at + 2 + q;
        # da[q - da_at] and db[q - db_at] are those of a and b to position q
        rows, at = None, 0
        for i in range(n - 1):
            j, end = i + 2, n - 1 if i == 0 else n
            if rows is None or i + 1 - at >= len(rows):
                ahead = slice(i, i + TWO_OPT_ROWS + 1)
                rows, at = dist.between(u[ahead, None], v[ahead, None], u[j:], v[j:]), i
            da, db, da_at, db_at = rows[i - at], rows[i + 1 - at], at + 2, at + 2
            while j < end:
                delta = da[j - da_at:end - da_at] + db[j + 1 - db_at:end + 1 - db_at] \
                    - edge[i] - edge[j:end]
                hits = (delta < -1e-12).nonzero()[0]
                if not hits.size:
                    break
                j += int(hits[0])
                edge[i], edge[j] = da[j - da_at], db[j + 1 - db_at]
                edge[i + 1:j] = edge[i + 1:j][::-1]
                for arr in (order, u, v):
                    arr[i + 1: j + 1] = arr[i + 1: j + 1][::-1]
                improved = True
                rows = None
                j += 1
                db, db_at = dist.between(u[i + 1], v[i + 1], u[j + 1:end + 1],
                                         v[j + 1:end + 1]), j + 1
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


def _solve_leaf(inst, dist: Distances, indices, config: HybridConfig, seed):
    """One leaf's (global cycle, length, iterations, repairs, mutations); 0 for no count."""
    sub = dist.matrix(indices)
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


def _join(inst, tree: ClusterTree, cycles: dict, dist: Distances) -> list:
    """The cycle over ``tree``'s cities, from the leaf cycles keyed by leaf node."""
    if tree.is_leaf:
        return cycles[tree.node]
    joined = [_join(inst, c, cycles, dist) for c in tree.children]
    # Means over c.node, which is sorted: rows in cycle order may round differently.
    centroids = [centroid_of(inst, c.node) for c in tree.children]
    return stitch([joined[i] for i in order_siblings(centroids)], dist)


def solve_hybrid(inst: Instance, config: HybridConfig = HybridConfig()):
    """Steps 1-6 of the hybrid workflow on a full instance.

    Returns (tour over all cities, length, HybridStats).  Every leaf is solved
    first, leaf i of ``tree.leaves()`` with seed (config.seed, i); then the leaf
    cycles are joined into one cycle, which is refined.  The stats come last.
    """
    start = time.perf_counter()
    dist = Distances(inst, config.metric)
    tree = build_cluster_tree(
        inst,
        leaf_max=config.leaf_max,
        branching=config.branching,
        seed=config.seed,
        restarts=config.kmeans_restarts,
    )

    leaves = tree.leaves()
    solved = [_solve_leaf(inst, dist, list(leaf.node), config, [config.seed, i])
              for i, leaf in enumerate(leaves)]
    cycles, leaf_lengths, iterations, repairs, mutations = zip(*solved)

    cycle = _join(inst, tree, {leaf.node: c for leaf, c in zip(leaves, cycles)}, dist)
    if not validate_tour(cycle, inst.dimension):
        raise InvariantError(f"stitched tour is not a permutation of {inst.dimension} cities")
    stitched = Tour(tuple(cycle))
    stitched_length = dist.cycle_length(cycle)

    if config.refinement is Refinement.TWO_OPT:
        refined = two_opt(stitched, dist, max_passes=config.two_opt_max_passes)
    elif config.refinement is Refinement.ACO_POLISH:
        polish_params = dataclasses.replace(
            config.aco_params, iterations=config.polish_iterations
        )
        # The stitched tour seeds the incumbent, which only a shorter tour replaces.
        refined, _, _ = aco_solve(
            inst, range(inst.dimension), polish_params, seed=config.seed,
            metric=config.metric, initial_tour=stitched,
        )
    else:
        refined = stitched

    length = dist.cycle_length(refined.order)
    if not length <= stitched_length + 1e-9:
        raise InvariantError(f"refinement lengthened the tour: {length!r} > {stitched_length!r}")
    return refined, length, HybridStats(
        leaf_sizes=tuple(len(leaf.node) for leaf in leaves), leaf_lengths=leaf_lengths,
        stitched_length=stitched_length, refined_length=length,
        stitch_cost=stitched_length - sum(leaf_lengths), refinement_gain=stitched_length - length,
        tree_depth=tree.depth(), leaf_iterations=sum(iterations), repairs=sum(repairs),
        mutations=sum(mutations), wall_ms=(time.perf_counter() - start) * 1000.0)
