"""Classical Ant Colony System baseline for TSP subproblems.

Decision rule (Dorigo & Gambardella 1997): with probability q0 an ant moves
greedily to the candidate maximizing tau^alpha * eta^beta, otherwise it
samples the candidate from the distribution proportional to the same
weights.  After each iteration the pheromone matrix evaporates and the
global-best tour deposits Q/length on its edges.

The weights W = tau^alpha * eta^beta change only when the pheromone does, so
``aco_solve`` computes eta^beta once per solve, W once per iteration, and a
ranking of W's rows once per iteration.  Each ant keeps a bytearray of the
cities it may still visit and makes one ``next_node`` call per move.  This
equals evaluating the rule afresh at every step on the gathered candidates,
bit for bit:

* numpy's power and product work element by element, so W[r, j] is the
  same double whether it is computed in the full matrix or in a gathered
  slice;
* the rule's greedy pick is ``np.argmax`` over the candidates, lowest index
  first on ties.  ``_rank`` lists, per row, the cities of its top
  t = min(GREEDY_TOP, k) whose weight is strictly above the row's bound, its
  t-th largest weight, ordered by weight and then index.  Every city above
  the bound is in that list, in argmax order, so the first candidate found
  in it is the argmax;
* when no listed city is a candidate, which covers a tie at the bound, the
  move takes ``np.argmax`` of the row with the visited cities at -inf.  A
  row that holds a NaN gets an infinite bound, so it always takes this
  fallback: ``np.argmax`` picks the first NaN, which a ranking cannot place;
* an exploration step gathers the candidates' weights in ascending order
  and calls ``np.add.reduce`` and ``np.add.accumulate``, the ufuncs that
  ``sum`` and ``cumsum`` run, and the same ``searchsorted``.

One generator, ``np.random.default_rng(seed words)``, serves the ants of a
solve in turn.  Each ant draws ``rng.integers(k)`` for its start, then one
``rng.random(2 * (k - 2))`` for its k - 2 moves with two or more candidates;
such a move reads the next of those uniforms for the q0 gate and one more on
exploration.  The count is fixed whatever the walk reads, so an ant's draws
depend only on the seed and its place in the order of ants.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .tsplib import (
    Instance,
    InvalidTour,
    MetricMode,
    Tour,
    cycle_length,
    distance_matrix,
)

PHEROMONE_FLOOR = 1e-12
ZERO_DIST_GUARD = 1e-9
# Cities ranked per row of W: a full sort of the rows would cost more than
# the greedy moves it saves on 1000 cities.
GREEDY_TOP = 8


class EmptyAllowedSet(ValueError):
    pass


class NonFiniteWeights(ValueError):
    """An off-diagonal weight tau^alpha * eta^beta is NaN or infinite."""


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
        for name in ("alpha", "beta", "tau0", "deposit"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("tau0", "deposit"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


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
    """W = tau^alpha * eta^beta element by element, for a whole matrix or a gathered row.

    An overflow or a 0 * inf is left in ``W`` silently: ``aco_solve`` checks
    ``W`` for non-finite weights and raises ``NonFiniteWeights``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        W = tau ** alpha
        W *= eta_beta
    return W


def _rank(W: np.ndarray) -> list:
    """Per row of ``W``, the cities a greedy move may take without a scan of the row.

    Row r lists, best first, the cities among its top t = min(GREEDY_TOP, k)
    whose weight is strictly above the row's bound: its t-th largest weight,
    or +inf for a row that holds a NaN.  Equal weights keep the lowest index
    first, as ``np.argmax`` does.
    """
    k = W.shape[0]
    t = min(GREEDY_TOP, k)
    rows = np.arange(k)[:, None]
    top = np.argpartition(-W, t - 1, axis=1)[:, :t]
    vals = W[rows, top]
    order = np.lexsort((top, -vals), axis=1)
    top = top[rows, order]
    vals = vals[rows, order]
    bound = np.where(np.isnan(W).any(axis=1), np.inf, vals[:, -1])
    above = (vals > bound[:, None]).sum(axis=1)
    return [row[:n] for row, n in zip(top.tolist(), above.tolist())]


def next_node(W: np.ndarray, ranked: list, current: int, free: bytearray, left: int,
              q0: float, draws) -> int:
    """One move of the pseudo-random-proportional rule from city ``current``.

    ``free`` holds a 1 for each of the ``left`` cities still to visit,
    ``ranked`` is ``_rank(W)`` and ``draws`` yields the ant's uniforms.  A
    greedy move takes the first free city of ``ranked[current]``, or else
    the argmax of the row over the free cities, lowest index first on ties.
    A single candidate is taken without a draw; no candidate raises
    ``EmptyAllowedSet``.
    """
    if left < 1:
        raise EmptyAllowedSet(f"no candidate moves: {left} cities left")
    if left == 1:
        return free.index(1)
    if next(draws) <= q0:
        for city in ranked[current]:
            if free[city]:
                return city
        avail = np.frombuffer(free, dtype=bool)
        return int(np.where(avail, W[current], -np.inf).argmax())
    cities = np.frombuffer(free, dtype=bool).nonzero()[0]
    gathered = W[current].take(cities)
    total = np.add.reduce(gathered)
    if total <= 0.0:
        gathered = np.ones(left)
        total = np.add.reduce(gathered)
    cdf = np.add.accumulate(gathered)
    pick = cdf.searchsorted(next(draws) * total, side="right")
    return cities.item(min(pick, left - 1))


def _construct(W: np.ndarray, ranked: list, q0: float, rng) -> tuple:
    """One ant's visiting order over the weight matrix ``W``, whose ranking is ``ranked``.

    It takes a fixed number of draws: ``rng.integers(k)`` for the start,
    then one ``rng.random(2 * (k - 2))`` for the k - 2 moves with two or
    more candidates, each of which reads at most two of those uniforms.
    """
    k = W.shape[0]
    current = int(rng.integers(k))
    draws = iter(rng.random(2 * (k - 2)).tolist())
    free = bytearray(b"\x01") * k
    order = [current]
    for left in range(k - 1, 0, -1):
        free[current] = 0
        current = next_node(W, ranked, current, free, left, q0, draws)
        order.append(current)
    return tuple(order)


def update_pheromone(tau: np.ndarray, best: Tour, length: float, params: AcoParams) -> np.ndarray:
    """Evaporate, deposit Q/length on the best tour's edges, floor entries."""
    if length <= 0.0:
        raise ValueError("tour length must be positive for a deposit")
    out = (1.0 - params.rho) * tau
    order = list(best.order)
    after = order[1:] + order[:1]
    # unbuffered, so the two deposits on each entry of a 2-city tour add in turn
    np.add.at(out, (order + after, after + order), params.deposit / length)
    out = np.maximum(out, PHEROMONE_FLOOR)
    np.fill_diagonal(out, 0.0)
    return out


def aco_solve(inst: Instance, indices, params: AcoParams = AcoParams(), seed: int = 0,
              metric: MetricMode = MetricMode.CANONICAL, initial_tour: Tour = None,
              D: np.ndarray = None):
    """Run the full ant colony loop on a subset of cities.

    Returns (best Tour in local positions, best length, per-iteration
    global-best history).  ``seed`` is a non-negative int or a list or tuple
    of them; any other seed, ``None`` included, raises ``TypeError`` or
    ``ValueError`` before any work.  The ants of every iteration draw in
    turn from one ``np.random.default_rng(seed words)``, each a fixed number
    of draws, so the first M iterations of a solve do not depend on
    ``iterations``.
    ``initial_tour`` seeds the incumbent (used by the tour-polishing
    refinement stage); ``D`` lets callers pass a precomputed local matrix.
    Raises ``NonFiniteWeights`` before the first ant of an iteration whose
    weights tau^alpha * eta^beta hold a NaN or inf off the diagonal.
    """
    indices = list(indices)
    k = len(indices)
    if k < 2:
        raise ValueError("need at least 2 cities")
    seed_words = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    try:  # None too: default_rng(None) would draw OS entropy, not a reproducible stream
        seed_words = [operator.index(w) for w in seed_words]
    except TypeError:
        raise TypeError(f"seed must be an int or a list or tuple of ints, got {seed!r}") from None
    if any(w < 0 for w in seed_words):
        raise ValueError(f"seed words must be non-negative, got {seed!r}")
    if params.iterations < (0 if initial_tour is not None else 1):
        raise ValueError("iterations must be >= 1, or >= 0 with an initial tour")
    if initial_tour is not None and len(initial_tour) != k:
        raise InvalidTour(f"initial tour has {len(initial_tour)} cities, not {k}")
    if D is None:
        D = distance_matrix(inst, metric, indices)
    with np.errstate(over="ignore"):  # an inf here shows as a non-finite weight
        eta_beta = heuristic_matrix(D) ** params.beta
    tau = init_pheromone(k, params.tau0)

    best_tour = None
    best_len = np.inf
    if initial_tour is not None:
        best_tour = initial_tour
        best_len = cycle_length(D, initial_tour.order)

    rng = np.random.default_rng(seed_words)
    history = []
    for it in range(1, params.iterations + 1):
        W = _weights(tau, eta_beta, params.alpha)
        finite = np.isfinite(W)
        if not finite.all():
            np.fill_diagonal(finite, True)  # no move reads it; NaN or inf there when alpha < 0
            if not finite.all():
                raise NonFiniteWeights(f"non-finite weights off the diagonal at iteration {it}")
        ranked = _rank(W)
        for _ in range(params.n_ants):
            order = _construct(W, ranked, params.q0, rng)
            length = cycle_length(D, order)
            if length < best_len:
                best_tour, best_len = Tour(order), length
        tau = update_pheromone(tau, best_tour, best_len, params)
        history.append(best_len)

    return best_tour, float(best_len), history
