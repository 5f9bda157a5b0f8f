"""Classical Ant Colony System baseline for TSP subproblems.

Decision rule: with probability q0 an ant moves greedily to the candidate
maximizing tau^alpha * eta^beta, otherwise it samples the candidate from the
distribution proportional to the same weights.  After each iteration the
pheromone matrix evaporates and the global-best tour deposits Q/length on its
edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tsplib import (
    Instance,
    MetricMode,
    Tour,
    cycle_length,
    distance_matrix,
    sub_distance_matrix,
)

PHEROMONE_FLOOR = 1e-12
ZERO_DIST_GUARD = 1e-9


class EmptyAllowedSet(ValueError):
    pass


@dataclass(frozen=True)
class AcoParams:
    n_ants: int = 6
    alpha: float = 4.0
    beta: float = 2.0
    iterations: int = 1000
    q0: float = 0.9
    rho: float = 0.1
    tau0: float = 1.0
    deposit: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError("q0 must be in [0, 1]")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")


def init_pheromone(k: int, tau0: float = 1.0) -> np.ndarray:
    """Uniform symmetric pheromone matrix with zero diagonal."""
    tau = np.full((k, k), tau0, dtype=float)
    np.fill_diagonal(tau, 0.0)
    return tau


def heuristic_matrix(D: np.ndarray) -> np.ndarray:
    """eta = 1 / distance with a guard for coincident points; zero diagonal."""
    eta = 1.0 / np.maximum(D, ZERO_DIST_GUARD)
    np.fill_diagonal(eta, 0.0)
    return eta


def next_node(r: int, allowed, tau: np.ndarray, eta: np.ndarray, params: AcoParams,
              rng: np.random.Generator) -> int:
    """Pick the next node from ``allowed`` by the pseudo-random-proportional rule.

    Greedy argmax ties break toward the lowest node index.  On the
    exploration branch the selection probabilities over ``allowed`` are
    normalized weights tau^alpha * eta^beta.
    """
    allowed = np.asarray(allowed, dtype=np.intp)
    if allowed.size == 0:
        raise EmptyAllowedSet(f"no candidate moves from node {r}")
    if allowed.size == 1:
        return int(allowed[0])
    if np.any(allowed[1:] < allowed[:-1]):
        allowed = np.sort(allowed)
    weights = tau[r, allowed] ** params.alpha
    weights *= eta[r, allowed] ** params.beta
    if rng.random() <= params.q0:
        return int(allowed[int(np.argmax(weights))])
    total = weights.sum()
    if total <= 0.0:
        weights = np.ones_like(weights)
        total = weights.sum()
    cdf = np.cumsum(weights)
    pick = int(np.searchsorted(cdf, rng.random() * total, side="right"))
    return int(allowed[min(pick, allowed.size - 1)])


def selection_probabilities(r: int, allowed, tau, eta, params: AcoParams) -> np.ndarray:
    """Normalized exploration-branch probabilities (sums to 1)."""
    allowed = np.sort(np.asarray(list(allowed), dtype=int))
    weights = tau[r, allowed] ** params.alpha * eta[r, allowed] ** params.beta
    total = weights.sum()
    if total <= 0.0:
        return np.full(allowed.size, 1.0 / allowed.size)
    return weights / total


def _construct(D: np.ndarray, tau, eta, params: AcoParams, rng) -> Tour:
    k = D.shape[0]
    current = int(rng.integers(k))
    order = [current]
    remaining = np.ones(k, dtype=bool)
    remaining[current] = False
    while remaining.any():
        nxt = next_node(current, np.where(remaining)[0], tau, eta, params, rng)
        order.append(nxt)
        remaining[nxt] = False
        current = nxt
    return Tour(tuple(order))


def construct_tour(inst: Instance, indices, tau: np.ndarray, params: AcoParams,
                   rng: np.random.Generator, metric: MetricMode = MetricMode.CANONICAL) -> Tour:
    """One ant's tour over the given cities, in local 0..k-1 positions."""
    D = sub_distance_matrix(distance_matrix(inst, metric), list(indices))
    return _construct(D, tau, heuristic_matrix(D), params, rng)


def update_pheromone(tau: np.ndarray, best: Tour, length: float, params: AcoParams) -> np.ndarray:
    """Evaporate, deposit Q/length on the best tour's edges, floor entries."""
    if length <= 0.0:
        raise ValueError("tour length must be positive for a deposit")
    out = (1.0 - params.rho) * tau
    amount = params.deposit / length
    order = best.order
    for a, b in zip(order, order[1:] + order[:1]):
        out[a, b] += amount
        out[b, a] += amount
    out = np.maximum(out, PHEROMONE_FLOOR)
    np.fill_diagonal(out, 0.0)
    return out


def aco_solve(inst: Instance, indices, params: AcoParams = AcoParams(), seed: int = 0,
              metric: MetricMode = MetricMode.CANONICAL, initial_tour: Tour = None,
              D: np.ndarray = None):
    """Run the full ant colony loop on a subset of cities.

    Returns (best Tour in local positions, best length, per-iteration
    global-best history).  Per-ant random streams are derived from
    (seed, iteration, ant), so results do not depend on scheduling.
    ``initial_tour`` seeds the incumbent (used by the tour-polishing
    refinement stage); ``D`` lets callers pass a precomputed local matrix.
    """
    indices = list(indices)
    k = len(indices)
    if k < 2:
        raise ValueError("need at least 2 cities")
    seed_words = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if any(w < 0 for w in seed_words):
        raise ValueError("seed words must be non-negative")
    if D is None:
        D = sub_distance_matrix(distance_matrix(inst, metric), indices)
    eta = heuristic_matrix(D)
    tau = init_pheromone(k, params.tau0)

    best_tour = None
    best_len = np.inf
    if initial_tour is not None:
        best_tour = initial_tour
        best_len = cycle_length(D, initial_tour.order)

    history = []
    for it in range(1, params.iterations + 1):
        for ant in range(params.n_ants):
            rng = np.random.default_rng(seed_words + [it, ant])
            tour = _construct(D, tau, eta, params, rng)
            length = cycle_length(D, tour.order)
            if length < best_len:
                best_tour, best_len = tour, length
        tau = update_pheromone(tau, best_tour, best_len, params)
        history.append(best_len)

    return best_tour, float(best_len), history
