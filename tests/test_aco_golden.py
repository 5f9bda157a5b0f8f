"""Golden test: the ACS baseline's per-iteration weight matrix and the
vectorised 2-opt scan against the seed's implementations.

The reference section below is the code they replaced, copied verbatim:
the pheromone floor and distance guard, ``init_pheromone``,
``heuristic_matrix``, ``next_node``, ``_construct``, ``construct_tour``,
``update_pheromone`` and the ``aco_solve`` loop from ``aco``, and
``two_opt`` from ``hybrid``.  Only the glue that feeds the reference its
draws is new: one ``default_rng(seed words)`` per solve, from which each ant
takes ``integers(k)`` and then a block of ``2 * (k - 2)`` uniforms, the
fixed count ``aco._construct`` takes, while the reference walk reads them
one move at a time.  The new code keeps every random draw and every float
operation of the reference, so tours, lengths and histories must be equal,
not merely close.
"""

import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacotsp import aco, hybrid
from qacotsp.aco import AcoParams, EmptyAllowedSet
from qacotsp.bench import resolve_instance
from qacotsp.hybrid import HybridConfig, LeafSolver, Refinement, solve_hybrid
from qacotsp.tsplib import (
    Distances,
    Instance,
    MetricMode,
    Tour,
    cycle_length,
    distance_matrix,
    gen_random_instance,
    load_instance,
    sub_distance_matrix,
)

# ---------------------------------------------------------------------------
# reference: the seed's per-step implementation, verbatim

PHEROMONE_FLOOR = 1e-12
ZERO_DIST_GUARD = 1e-9


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
    global-best history).  The ants draw in turn from one generator.
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

    gen = np.random.default_rng(seed_words)
    history = []
    for it in range(1, params.iterations + 1):
        for ant in range(params.n_ants):
            start = gen.integers(k)
            rng = ScriptedRng(gen.random(2 * (k - 2)).tolist(), start)
            tour = _construct(D, tau, eta, params, rng)
            length = cycle_length(D, tour.order)
            if length < best_len:
                best_tour, best_len = tour, length
        tau = update_pheromone(tau, best_tour, best_len, params)
        history.append(best_len)

    return best_tour, float(best_len), history


def two_opt(tour: Tour, inst: Instance, metric: MetricMode = MetricMode.CANONICAL,
            max_passes: int = 20, D: np.ndarray = None) -> Tour:
    """First-improvement 2-opt sweeps; never returns a longer tour."""
    if D is None:
        D = distance_matrix(inst, metric)
    order = list(tour.order)
    n = len(order)
    if n < 4:
        return tour
    for _ in range(max_passes):
        improved = False
        for i in range(n - 1):
            a, b = order[i], order[i + 1]
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                c, d = order[j], order[(j + 1) % n]
                delta = D[a, c] + D[b, d] - D[a, b] - D[c, d]
                if delta < -1e-12:
                    order[i + 1: j + 1] = order[i + 1: j + 1][::-1]
                    b = order[i + 1]
                    improved = True
        if not improved:
            break
    return Tour(tuple(order))


# ---------------------------------------------------------------------------
# golden comparisons

PLAIN = MetricMode.PLAIN
CANONICAL = MetricMode.CANONICAL
DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
SPECS = sorted(str(p) for p in DATA_DIR.glob("*.tsp")) + ["random:100:7"]


def assert_same_solves(inst, indices, **kwargs):
    """``aco.aco_solve`` and the reference return equal (tour, length, history)."""
    expected = aco_solve(inst, indices, **kwargs)
    got = aco.aco_solve(inst, indices, **kwargs)
    assert got[0] == expected[0], (inst.name, kwargs)
    assert got[1] == expected[1], (inst.name, kwargs)
    assert got[2] == expected[2], (inst.name, kwargs)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.rsplit("/", 1)[-1])
def test_datasets_seeds_0_to_4(spec):
    inst = resolve_instance(spec)
    for seed in range(5):
        # both metrics, so the GEO great-circle matrices are covered too
        metric = PLAIN if seed % 2 == 0 else CANONICAL
        assert_same_solves(inst, range(inst.dimension), params=AcoParams(iterations=20),
                           seed=seed, metric=metric)


@pytest.mark.parametrize("params", [
    AcoParams(iterations=25, q0=0.0),
    AcoParams(iterations=25, q0=1.0),
    AcoParams(iterations=25, alpha=1.0, beta=0.0),
    AcoParams(iterations=25, alpha=2.5, beta=3.5, q0=0.5),
    AcoParams(iterations=25, rho=1.0),
    AcoParams(iterations=25, n_ants=3, tau0=0.5, deposit=3.0),
], ids=["q0=0", "q0=1", "alpha=1,beta=0", "alpha=2.5,beta=3.5,q0=0.5", "rho=1", "n_ants=3"])
def test_non_default_params(params, data_dir):
    inst = load_instance(data_dir / "ulysses22.tsp")
    for seed in (0, 3):
        assert_same_solves(inst, range(inst.dimension), params=params, seed=seed,
                           metric=PLAIN)


def test_subset_and_tuple_seed_words(data_dir):
    # solve_hybrid passes (config seed, leaf ordinal) and a local matrix
    inst = load_instance(data_dir / "eil51.tsp")
    indices = [3, 17, 22, 40, 8, 30, 12]
    D = sub_distance_matrix(distance_matrix(inst, PLAIN), indices)
    params = AcoParams(iterations=60)
    for seed in ([0, 0], (4, 2), [7, 1, 9]):
        assert_same_solves(inst, indices, params=params, seed=seed, metric=PLAIN, D=D)
        assert_same_solves(inst, indices, params=params, seed=seed, metric=PLAIN)


@pytest.mark.parametrize("seed, params", [
    (2 ** 32, AcoParams(iterations=30)),
    ([2 ** 64 + 5, 3], AcoParams(iterations=30)),
    ([7, 1, 9], AcoParams(iterations=30)),
    (4, AcoParams(iterations=150)),
    ([0, 2], AcoParams(n_ants=5, iterations=170)),
], ids=["word>=2^32", "words>=2^64", "three-words", "blocks", "blocks-mid-iteration"])
def test_seed_words_and_seed_blocks(seed, params, data_dir):
    # seed words that split into several 32-bit words, seeds of more than one
    # word, and long solves whose 900 and 850 ants draw from one stream
    inst = load_instance(data_dir / "eil51.tsp")
    assert_same_solves(inst, [3, 17, 22, 40, 8, 30, 12, 45], params=params, seed=seed,
                       metric=PLAIN)


def test_initial_tour_polish(data_dir):
    inst = load_instance(data_dir / "berlin52.tsp")
    start = Tour(tuple(range(inst.dimension)))
    D = distance_matrix(inst, PLAIN)
    for seed in range(3):
        assert_same_solves(inst, range(inst.dimension), params=AcoParams(iterations=15),
                           seed=seed, metric=PLAIN, initial_tour=start, D=D)


@pytest.mark.parametrize("k", [2, 3])
def test_smallest_instances(k):
    inst = gen_random_instance(k, 40 + k, 100.0)
    for seed in range(20):
        assert_same_solves(inst, range(k), params=AcoParams(iterations=5, q0=0.5),
                           seed=seed, metric=PLAIN)


def test_coincident_points():
    # distances of 0 hit ZERO_DIST_GUARD: eta = 1e9 on those edges
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [3.0, 4.0],
                       [10.0, 0.0], [0.0, 0.0], [7.0, 7.0], [1.0, 9.0], [1.0, 9.0],
                       [5.0, 2.0], [8.0, 3.0], [2.0, 6.0], [0.0, 0.0]])
    for n in (8, 14):
        inst = Instance("coincident", n, "EUC_2D", coords[:n])
        assert np.min(distance_matrix(inst, PLAIN) + np.eye(n)) < ZERO_DIST_GUARD
        for params in (AcoParams(iterations=30), AcoParams(iterations=30, q0=0.0, beta=3.0)):
            for seed in range(4):
                assert_same_solves(inst, range(n), params=params, seed=seed, metric=PLAIN)
        # alpha = beta = 40 with tau0 = 1e-12 makes tau^alpha 0 and eta^beta inf
        # on the coincident edges, so 0 * inf puts NaN weights into W
        with pytest.raises(aco.NonFiniteWeights, match="iteration 1$"):
            aco.aco_solve(inst, range(n), AcoParams(alpha=40.0, beta=40.0, tau0=1e-12,
                                                    iterations=10), metric=PLAIN)


def test_negative_alpha_runs_with_nonfinite_diagonal():
    # tau's zero diagonal gives 0 ** -1 = inf there, and W's diagonal is NaN
    # (0 * inf); no move reads it, so the colony runs as the reference does
    inst = load_instance(DATA_DIR / "ulysses16.tsp")
    for seed in range(3):
        with np.errstate(divide="ignore", invalid="ignore"):
            assert_same_solves(inst, range(inst.dimension),
                               params=AcoParams(alpha=-1.0, iterations=20), seed=seed,
                               metric=PLAIN)


@pytest.mark.parametrize("top", [aco.GREEDY_TOP, 2])
def test_grid_ties_canonical(top, monkeypatch):
    # CANONICAL rounds lattice distances to integers, so many weights tie;
    # a ranking of 2 sends many greedy moves to the boundary and fallback.
    monkeypatch.setattr(aco, "GREEDY_TOP", top)
    coords = np.array([(10.0 * x, 10.0 * y) for x in range(9) for y in range(8)])
    inst = Instance("grid", len(coords), "EUC_2D", coords)
    for params in (AcoParams(iterations=15), AcoParams(iterations=15, q0=0.5, alpha=1.0)):
        for seed in range(2):
            assert_same_solves(inst, range(inst.dimension), params=params, seed=seed,
                               metric=CANONICAL)


def test_update_pheromone_matches_reference():
    rng = np.random.default_rng(21)
    for k in range(2, 13):
        for rho in (0.0, 0.1, 1.0):
            for _ in range(5):
                tau = np.maximum(rng.uniform(0.0, 3.0, size=(k, k)), PHEROMONE_FLOOR)
                best = Tour(tuple(int(v) for v in rng.permutation(k)))
                params = AcoParams(rho=rho, deposit=float(rng.uniform(0.5, 4.0)))
                length = float(rng.uniform(1.0, 500.0))
                expected = update_pheromone(tau, best, length, params)
                got = aco.update_pheromone(tau, best, length, params)
                assert got.tobytes() == expected.tobytes(), (k, rho, best)


class ScriptedRng:
    """Stands in for a Generator whose ``random()`` returns the given values in turn
    and whose ``integers(k)`` returns ``start``."""

    def __init__(self, values, start=None):
        self._values = iter(values)
        self._start = start

    def integers(self, k):
        return self._start

    def random(self):
        return next(self._values)


def live_next_node(r, allowed, tau, eta, params, draws):
    """``aco.next_node`` from node ``r`` with the cities ``allowed`` still free."""
    W = aco._weights(tau, eta ** params.beta, params.alpha)
    free = bytearray(len(tau))
    for city in allowed:
        free[city] = 1
    return aco.next_node(W, aco._rank(W), r, free, sum(free), params.q0, draws)


def test_next_node_matches_reference():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        tau = np.maximum(rng.uniform(0.0, 3.0, size=(n, n)), PHEROMONE_FLOOR)
        eta = heuristic_matrix(rng.uniform(0.5, 50.0, size=(n, n)))
        params = AcoParams(alpha=float(rng.uniform(0, 4)), beta=float(rng.uniform(0, 4)),
                           q0=float(rng.choice([0.0, 0.5, 0.9, 1.0])))
        allowed = [int(v) for v in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        values = np.random.default_rng([trial]).random(11).tolist()
        a, b = iter(values), ScriptedRng(values)
        for _ in range(5):
            assert live_next_node(0, allowed, tau, eta, params, a) == \
                next_node(0, allowed, tau, eta, params, b)
        assert next(a) == b.random()  # the same number of draws was taken
    with pytest.raises(EmptyAllowedSet):
        live_next_node(0, [], tau, eta, AcoParams(), iter(values))


def test_exploration_boundaries_match_reference():
    # Draws on and a few ulps around every cumulative-weight boundary, where
    # side="right", the clamp, zero weights and numpy's pairwise total
    # decide the pick.
    rng = np.random.default_rng(4)
    n = 40
    tau = rng.uniform(0.1, 2.0, size=(n, n))
    tau[0, [4, 5, 6, 20]] = 0.0
    eta = heuristic_matrix(rng.uniform(1.0, 50.0, size=(n, n)))
    params = AcoParams(alpha=1.0, beta=1.0, q0=0.5)
    allowed = list(range(1, n))
    weights = tau[0, allowed] * eta[0, allowed]
    total = weights.sum()
    assert total != sum(weights.tolist())  # pairwise and sequential sums differ here
    draws = set()
    for edge in np.cumsum(weights):
        u = edge / total
        for _ in range(3):
            u = np.nextafter(u, 0.0)
        for _ in range(7):
            if u < 1.0:
                draws.add(float(u))
            u = np.nextafter(u, 1.0)
    for u in sorted(draws):
        assert live_next_node(0, allowed, tau, eta, params, iter([0.9, u])) == \
            next_node(0, allowed, tau, eta, params, ScriptedRng([0.9, u])), u


@pytest.mark.parametrize("metric", [PLAIN, CANONICAL])
def test_construct_tour_matches_reference(metric, data_dir):
    inst = load_instance(data_dir / "ulysses16.tsp")  # GEO under CANONICAL
    indices = [15, 2, 9, 4, 11, 0, 7]
    tau = init_pheromone(len(indices))
    for seed in range(30):
        params = AcoParams(q0=(0.0, 0.9, 1.0)[seed % 3])
        eta = aco.heuristic_matrix(distance_matrix(inst, metric, indices))
        W = aco._weights(tau, eta ** params.beta, params.alpha)
        assert aco._construct(W, aco._rank(W), params.q0, np.random.default_rng(seed)) == \
            construct_tour(inst, indices, tau, params, np.random.default_rng(seed), metric).order


@pytest.mark.parametrize("refinement", [Refinement.TWO_OPT, Refinement.ACO_POLISH])
def test_solve_hybrid_with_classical_leaves(refinement, monkeypatch, data_dir):
    inst = load_instance(data_dir / "eil51.tsp")
    config = HybridConfig(leaf_solver=LeafSolver.CLASSICAL_ACO,
                          aco_params=AcoParams(iterations=40), refinement=refinement,
                          polish_iterations=10, metric=PLAIN, seed=2)
    tour, length, stats = solve_hybrid(inst, config)
    monkeypatch.setattr(hybrid, "aco_solve", aco_solve)
    monkeypatch.setattr(hybrid, "two_opt",
                        lambda tour, dist, **kwargs: two_opt(tour, inst, PLAIN, **kwargs))
    expected = solve_hybrid(inst, config)
    assert (tour, length) == expected[:2]
    assert dataclasses.replace(stats, wall_ms=0.0) == \
        dataclasses.replace(expected[2], wall_ms=0.0)


def test_two_opt_on_a_stitched_tour():
    inst = resolve_instance("random:300:11")
    config = HybridConfig(leaf_solver=LeafSolver.BRUTE_FORCE, refinement=Refinement.NONE,
                          metric=PLAIN)
    stitched, _, _ = solve_hybrid(inst, config)
    D = distance_matrix(inst, PLAIN)
    expected = two_opt(stitched, inst, PLAIN, D=D)
    assert hybrid.two_opt(stitched, Distances(inst, PLAIN)) == expected
    assert expected != stitched
    assert hybrid.two_opt(stitched, Distances(inst, PLAIN), max_passes=1) == \
        two_opt(stitched, inst, PLAIN, max_passes=1)


@pytest.fixture(scope="module")
def stitched_1000():
    inst = resolve_instance("random:1000:2024")
    config = HybridConfig(leaf_solver=LeafSolver.BRUTE_FORCE, refinement=Refinement.NONE,
                          metric=PLAIN)
    return inst, solve_hybrid(inst, config)[0], distance_matrix(inst, PLAIN)


@pytest.mark.parametrize("max_passes", [0, 1, 2, 20])
def test_two_opt_pass_cap_on_a_1000_city_stitched_tour(max_passes, stitched_1000):
    # The tour converges after four passes, so 20 also runs the early exit.
    inst, stitched, D = stitched_1000
    expected = two_opt(stitched, inst, PLAIN, max_passes=max_passes, D=D)
    assert hybrid.two_opt(stitched, Distances(inst, PLAIN), max_passes=max_passes) == expected
    assert (expected == stitched) == (max_passes == 0)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_two_opt_smallest_tours(n):
    # For i == 0 the scan stops before j = n - 1, whose exchange would
    # reverse the whole tour; at n = 4 that leaves a single candidate.
    for inst_seed in range(30):
        inst = gen_random_instance(n, 700 + inst_seed, 100.0)
        rng = np.random.default_rng(inst_seed)
        for max_passes in (1, 20):
            start = Tour(tuple(int(v) for v in rng.permutation(n)))
            assert hybrid.two_opt(start, Distances(inst, PLAIN), max_passes=max_passes) == \
                two_opt(start, inst, PLAIN, max_passes=max_passes), (inst_seed, start)


def test_two_opt_keeps_a_two_opt_optimal_tour():
    inst = gen_random_instance(80, 21, 1000.0)
    start = Tour(tuple(range(inst.dimension)))
    optimal = two_opt(start, inst, PLAIN, max_passes=1000)
    assert two_opt(optimal, inst, PLAIN, max_passes=1) == optimal
    assert optimal != start
    assert hybrid.two_opt(optimal, Distances(inst, PLAIN)) == optimal


@pytest.mark.parametrize("name", ["ulysses16", "ulysses22", "eil51"])
@pytest.mark.parametrize("metric", [CANONICAL, PLAIN])
def test_two_opt_on_every_metric(name, metric, data_dir):
    # GEO and rounded EUC_2D distances come from other formulas than the
    # plain metric's, and rounding makes many exchanges tie.
    inst = load_instance(data_dir / f"{name}.tsp")
    rng = np.random.default_rng(inst.dimension)
    for max_passes in (1, 20):
        start = Tour(tuple(int(v) for v in rng.permutation(inst.dimension)))
        assert hybrid.two_opt(start, Distances(inst, metric), max_passes=max_passes) == \
            two_opt(start, inst, metric, max_passes=max_passes)


def test_two_opt_on_grid_ties():
    # Lattice points make many exchanges tie up to rounding, so deltas of a
    # few ulps below zero test the -1e-12 threshold.
    coords = np.array([(x, y) for x in range(6) for y in range(5)], dtype=float)
    inst = Instance("grid", len(coords), "EUC_2D", coords)
    rng = np.random.default_rng(8)
    for _ in range(20):
        start = Tour(tuple(int(v) for v in rng.permutation(len(coords))))
        assert hybrid.two_opt(start, Distances(inst, PLAIN)) == two_opt(start, inst, PLAIN)


@settings(max_examples=15, deadline=None, database=None)
@given(n=st.integers(2, 40), inst_seed=st.integers(0, 2 ** 31 - 1),
       seed=st.integers(0, 2 ** 63 - 1), q0=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
       alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 5.0), rho=st.floats(0.0, 1.0),
       n_ants=st.integers(1, 4))
def test_property_weight_rows_equal_reference(n, inst_seed, seed, q0, alpha, beta, rho,
                                              n_ants):
    inst = gen_random_instance(n, inst_seed, 100.0)
    params = AcoParams(n_ants=n_ants, alpha=alpha, beta=beta, iterations=6, q0=q0, rho=rho)
    assert_same_solves(inst, range(n), params=params, seed=seed, metric=PLAIN)
