"""Classical Ant Colony System baseline for TSP subproblems.

Decision rule: with probability q0 an ant moves greedily to the candidate
maximizing tau^alpha * eta^beta, otherwise it samples the candidate from the
distribution proportional to the same weights.  After each iteration the
pheromone matrix evaporates and the global-best tour deposits Q/length on its
edges.

The weights W = tau^alpha * eta^beta change only when the pheromone does, so
``aco_solve`` computes eta^beta once per solve and W once per iteration, and
each ant walks W with a mask of the cities it may still visit, one
``next_node`` call on its masked row per move.  This equals evaluating the
rule afresh at every step on the gathered candidates, bit for bit:

* numpy's power and product work element by element, so W[r, j] is the
  same double whether it is computed in the full matrix or in a gathered
  slice;
* a greedy step takes ``np.argmax`` of the current row with the visited
  cities set to -inf.  The candidates keep their ascending order and every
  candidate weight beats -inf, so this is the city ``np.argmax`` picks from
  the gathered candidates, lowest index first on ties;
* an exploration step gathers the candidates' weights through the mask, in
  ascending order, and runs the same numpy sum, cumulative sum and
  ``searchsorted``;
* the random draws are unchanged: ``rng.integers(k)`` for the start, then,
  per step with two or more candidates, one ``rng.random()`` for the q0
  gate and one more on exploration.
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
        if self.n_ants < 1:
            raise ValueError("n_ants must be >= 1")


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


def _weights(tau: np.ndarray, eta_beta: np.ndarray, alpha: float) -> np.ndarray:
    """W = tau^alpha * eta^beta element by element, for a whole matrix or a gathered row."""
    W = tau ** alpha
    W *= eta_beta
    return W


def next_node(row: np.ndarray, avail: np.ndarray, left: int, q0: float, rng) -> int:
    """One move of the pseudo-random-proportional rule; returns an index into ``row``.

    ``avail`` marks the ``left`` candidates among the entries of the weight
    row ``row``, whose other entries are -inf.  Greedy argmax ties break
    toward the lowest index.  A single candidate is taken without a random
    draw; no candidate raises ``EmptyAllowedSet``.
    """
    if left < 1:
        raise EmptyAllowedSet(f"no candidate moves: {left} cities left")
    if left == 1:
        return int(avail.argmax())
    if rng.random() <= q0:
        return int(row.argmax())
    gathered = row[avail]
    total = gathered.sum()
    if total <= 0.0:
        gathered = np.ones_like(gathered)
        total = gathered.sum()
    cdf = np.cumsum(gathered)
    pick = int(np.searchsorted(cdf, rng.random() * total, side="right"))
    return int(np.flatnonzero(avail)[min(pick, left - 1)])


def _construct(W: np.ndarray, q0: float, rng) -> Tour:
    """One ant's walk over the weight matrix ``W``."""
    k = W.shape[0]
    current = int(rng.integers(k))
    order = [current]
    avail = np.ones(k, dtype=bool)
    masked = W.copy()  # W with the visited cities' columns at -inf
    columns = masked.T
    for left in range(k - 1, 0, -1):
        avail[current] = False
        columns[current].fill(-np.inf)
        current = next_node(masked[current], avail, left, q0, rng)
        order.append(current)
    return Tour(tuple(order))


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
    if params.iterations < (0 if initial_tour is not None else 1):
        raise ValueError("iterations must be >= 1, or >= 0 with an initial tour")
    if D is None:
        D = distance_matrix(inst, metric, indices)
    eta_beta = heuristic_matrix(D) ** params.beta
    tau = init_pheromone(k, params.tau0)

    best_tour = None
    best_len = np.inf
    if initial_tour is not None:
        best_tour = initial_tour
        best_len = cycle_length(D, initial_tour.order)

    history = []
    for it in range(1, params.iterations + 1):
        W = _weights(tau, eta_beta, params.alpha)
        for ant in range(params.n_ants):
            rng = np.random.default_rng(seed_words + [it, ant])
            tour = _construct(W, params.q0, rng)
            length = cycle_length(D, tour.order)
            if length < best_len:
                best_tour, best_len = tour, length
        tau = update_pheromone(tau, best_tour, best_len, params)
        history.append(best_len)

    return best_tour, float(best_len), history
