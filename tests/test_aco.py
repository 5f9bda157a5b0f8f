import itertools
import math

import numpy as np
import pytest

from qacotsp.aco import (
    AcoParams,
    EmptyAllowedSet,
    _construct,
    _weights,
    aco_solve,
    heuristic_matrix,
    init_pheromone,
    next_node,
    update_pheromone,
)
from qacotsp.tsplib import (
    Instance,
    MetricMode,
    Tour,
    distance_matrix,
    gen_random_instance,
    validate_tour,
)


def square_instance():
    return Instance("square", 4, "EUC_2D",
                    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


def construct(inst, indices, tau, params, rng):
    """One ant's tour as ``aco_solve`` builds it, in local 0..k-1 positions."""
    eta = heuristic_matrix(distance_matrix(inst, MetricMode.CANONICAL, indices))
    return _construct(_weights(tau, eta ** params.beta, params.alpha), params.q0, rng)


def step(r, allowed, tau, eta, params, rng):
    """``next_node`` on the masked row ``_construct`` walks from node ``r``."""
    avail = np.zeros(len(tau), dtype=bool)
    avail[allowed] = True
    row = _weights(tau[r], eta[r] ** params.beta, params.alpha)
    row[~avail] = -np.inf
    return next_node(row, avail, int(avail.sum()), params.q0, rng)


def brute_force_cycle(coords):
    """Exhaustive optimum over (n-1)!/2 distinct cycles, straight from points."""
    n = len(coords)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        length = sum(
            math.dist(coords[order[i]], coords[order[(i + 1) % n]])
            for i in range(n)
        )
        best = min(best, length)
    return best


def test_next_node_single_candidate():
    tau = init_pheromone(3)
    eta = heuristic_matrix(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert step(0, [2], tau, eta, AcoParams(), rng) == 2
    assert rng.random() == np.random.default_rng(0).random()  # no draw was taken


def test_next_node_empty_allowed():
    tau = init_pheromone(3)
    eta = heuristic_matrix(np.ones((3, 3)))
    with pytest.raises(EmptyAllowedSet):
        step(0, [], tau, eta, AcoParams(), np.random.default_rng(0))


def test_next_node_greedy_when_q0_one():
    tau = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    eta = np.ones((3, 3))
    params = AcoParams(alpha=1.0, beta=0.0, q0=1.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert step(0, [1, 2], tau, eta, params, rng) == 1


def test_exploration_probabilities_three_to_one():
    # weights 3:1 -> probabilities 0.75/0.25
    tau = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    eta = np.ones((3, 3))
    params = AcoParams(alpha=1.0, beta=0.0, q0=0.0)
    rng = np.random.default_rng(2)
    shots = 20_000
    hits = sum(step(0, [1, 2], tau, eta, params, rng) == 1 for _ in range(shots))
    assert abs(hits / shots - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / shots)


def test_construct_two_nodes():
    inst = gen_random_instance(2, 0, 10.0)
    tau = init_pheromone(2)
    tour = construct(inst, [0, 1], tau, AcoParams(), np.random.default_rng(4))
    assert sorted(tour.order) == [0, 1]


def test_construct_uniform_over_cycles():
    # alpha = beta = 0, q0 = 0: all 3 distinct 4-city cycles equally likely
    inst = square_instance()
    tau = init_pheromone(4)
    params = AcoParams(alpha=0.0, beta=0.0, q0=0.0)
    rng = np.random.default_rng(5)

    def cycle_class(order):
        i0 = order.index(0)
        rot = order[i0:] + order[:i0]
        rev = (rot[0],) + tuple(reversed(rot[1:]))
        return min(tuple(rot), rev)

    counts = {}
    shots = 10_000
    for _ in range(shots):
        tour = construct(inst, [0, 1, 2, 3], tau, params, rng)
        assert validate_tour(tour.order, 4)
        key = cycle_class(list(tour.order))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    p = 1.0 / 3.0
    for c in counts.values():
        assert abs(c / shots - p) <= 4 * math.sqrt(p * (1 - p) / shots)


def test_update_pheromone_full_evaporation():
    tau = init_pheromone(4, tau0=2.0)
    best = Tour((0, 1, 2, 3))
    out = update_pheromone(tau, best, 10.0, AcoParams(rho=1.0, deposit=1.0))
    expected_edge = 0.1
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        assert out[a, b] == pytest.approx(expected_edge)
        assert out[b, a] == pytest.approx(expected_edge)
    assert out[0, 2] == pytest.approx(1e-12)
    assert np.all(out.diagonal() == 0.0)


def test_update_pheromone_accumulates_no_evaporation():
    tau = init_pheromone(3, tau0=1.0)
    best = Tour((0, 1, 2))
    out = update_pheromone(tau, best, 2.0, AcoParams(rho=0.0, deposit=1.0))
    assert out[0, 1] == pytest.approx(1.5)
    assert np.allclose(out, out.T)
    assert np.all(out[~np.eye(3, dtype=bool)] > 0.0)


def test_aco_unit_square_finds_perimeter():
    inst = square_instance()
    params = AcoParams(iterations=50)
    wins = 0
    for seed in range(100):
        _, length, _ = aco_solve(inst, range(4), params, seed=seed,
                                 metric=MetricMode.PLAIN)
        if length == pytest.approx(4.0):
            wins += 1
    assert wins >= 99


def test_aco_history_non_increasing():
    inst = gen_random_instance(10, 12, 100.0)
    _, length, history = aco_solve(inst, range(10), AcoParams(iterations=80),
                                   seed=3, metric=MetricMode.PLAIN)
    assert history[-1] == length
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_aco_deterministic():
    inst = gen_random_instance(8, 4, 100.0)
    params = AcoParams(iterations=40)
    a = aco_solve(inst, range(8), params, seed=9, metric=MetricMode.PLAIN)
    b = aco_solve(inst, range(8), params, seed=9, metric=MetricMode.PLAIN)
    assert a[0].order == b[0].order
    assert a[1] == b[1]


def test_aco_seven_cities_matches_brute_force():
    # exhaustive 6!/2 oracle computed straight from coordinates; the hit rate
    # of the colony at default parameters is ~91-92% over many seed families
    wins = 0
    for seed in range(100):
        inst = gen_random_instance(7, 11000 + seed, 100.0)
        optimum = brute_force_cycle(inst.coords.tolist())
        _, length, _ = aco_solve(inst, range(7), AcoParams(), seed=seed,
                                 metric=MetricMode.PLAIN)
        if length <= optimum * (1.0 + 1e-9):
            wins += 1
    assert wins >= 90
