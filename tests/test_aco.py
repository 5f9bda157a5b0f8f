import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacotsp import aco
from qacotsp.aco import (
    AcoParams,
    EmptyAllowedSet,
    _construct,
    _rank,
    _weights,
    aco_solve,
    heuristic_matrix,
    init_pheromone,
    next_node,
    update_pheromone,
)
from qacotsp.tsplib import (
    Instance,
    InvalidTour,
    MetricMode,
    Tour,
    cycle_length,
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
    W = _weights(tau, eta ** params.beta, params.alpha)
    return Tour(_construct(W, _rank(W), params.q0, rng))


def step(r, allowed, tau, eta, params, draws):
    """``next_node`` from node ``r`` with the cities ``allowed`` still free."""
    W = _weights(tau, eta ** params.beta, params.alpha)
    free = bytearray(len(tau))
    for city in allowed:
        free[city] = 1
    return next_node(W, _rank(W), r, free, len(allowed), params.q0, draws)


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
    draws = iter([0.25])
    for _ in range(10):
        assert step(0, [2], tau, eta, AcoParams(), draws) == 2
    assert next(draws) == 0.25  # no draw was taken


def test_next_node_empty_allowed():
    tau = init_pheromone(3)
    eta = heuristic_matrix(np.ones((3, 3)))
    with pytest.raises(EmptyAllowedSet):
        step(0, [], tau, eta, AcoParams(), iter([0.25]))


def test_next_node_greedy_when_q0_one():
    tau = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    eta = np.ones((3, 3))
    params = AcoParams(alpha=1.0, beta=0.0, q0=1.0)
    draws = iter(np.random.default_rng(1).random, None)
    for _ in range(50):
        assert step(0, [1, 2], tau, eta, params, draws) == 1


@settings(max_examples=300, deadline=None, database=None)
@given(k=st.integers(2, 24), t=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_ranked_greedy_pick_is_the_masked_argmax(k, t, seed):
    # Integer weights tie often; zero rows, +inf entries and NaN rows take
    # the fallback, and so does a ranking whose cities are all visited.
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 4, size=(k, k)).astype(float)
    W[rng.random(k) < 0.2] = 0.0
    W[rng.random((k, k)) < 0.05] = np.inf
    for r in np.flatnonzero(rng.random(k) < 0.2):
        W[r, rng.integers(k)] = np.nan
    with mock.patch.object(aco, "GREEDY_TOP", t):
        ranked = _rank(W)
    for _ in range(10):
        current = int(rng.integers(k))
        avail = rng.random(k) < rng.random()
        avail[rng.integers(k)] = True
        masked = W[current].copy()
        masked[~avail] = -np.inf
        draws = iter([0.0])
        free = bytearray(avail.tobytes())
        assert next_node(W, ranked, current, free, int(avail.sum()), 1.0, draws) == \
            int(np.argmax(masked))


def test_exploration_probabilities_three_to_one():
    # weights 3:1 -> probabilities 0.75/0.25
    tau = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    eta = np.ones((3, 3))
    params = AcoParams(alpha=1.0, beta=0.0, q0=0.0)
    draws = iter(np.random.default_rng(2).random, None)
    shots = 20_000
    hits = sum(step(0, [1, 2], tau, eta, params, draws) == 1 for _ in range(shots))
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


@pytest.mark.parametrize("k", [2, 76, 1000, 2 ** 33])
def test_random_calls_after_the_start_draw_are_one_call(k):
    # _construct draws the start city, then all its uniforms in one call.
    for seed in range(50):
        a, b = np.random.default_rng([seed, 1, 2]), np.random.default_rng([seed, 1, 2])
        assert a.integers(k) == b.integers(k)
        m = 1 + seed % 9
        assert [a.random() for _ in range(m)] == b.random(m).tolist()
        assert a.bit_generator.state == b.bit_generator.state


def test_initial_tour_must_cover_the_cities():
    # A partial cycle is shorter than any full tour, so it would win.
    inst = gen_random_instance(6, 0, 100.0)
    for start in (Tour((0, 1, 2)), Tour(tuple(range(7)))):
        with pytest.raises(InvalidTour):
            aco_solve(inst, range(6), AcoParams(iterations=2), initial_tour=start)


@pytest.mark.parametrize("seed", [1.5, [0, np.float64(2.0)], -1, [3, -2 ** 40], "7", None,
                                  np.array([1, 2])], ids=str)
def test_a_seed_default_rng_refuses_is_refused_before_the_first_ant(seed):
    # The solve's one generator is default_rng(seed words), and a seed it
    # refuses keeps numpy's error class.  It would read ["7"] as [7] and
    # flatten an array, and default_rng(None) draws OS entropy, so aco_solve
    # refuses those with TypeError: none is a non-negative int or a list or
    # tuple of them.
    words = list(seed) if isinstance(seed, list) else [seed]
    try:
        np.random.default_rng(words)
        expected = TypeError
    except (TypeError, ValueError) as refused:
        expected = type(refused)
    work = AssertionError("work began")
    with mock.patch.object(aco, "distance_matrix", side_effect=work), \
            mock.patch.object(aco, "_construct", side_effect=work):
        with pytest.raises(expected, match="seed"):
            aco_solve(gen_random_instance(5, 0, 100.0), range(5), AcoParams(iterations=2),
                      seed=seed)


def test_a_seed_and_its_one_word_list_or_tuple_solve_alike():
    # seed 5, [5], (5,) and np.int64(5) are all the seed words [5]
    inst = gen_random_instance(8, 2, 100.0)
    params = AcoParams(n_ants=4, iterations=10)
    runs = [aco_solve(inst, range(8), params, seed=seed, metric=MetricMode.PLAIN)
            for seed in (5, [5], (5,), np.int64(5))]
    for tour, length, history in runs[1:]:
        assert (tour.order, length, history) == (runs[0][0].order, runs[0][1], runs[0][2])
    words = aco_solve(inst, range(8), params, seed=(5, 1), metric=MetricMode.PLAIN)
    assert words[2] == aco_solve(inst, range(8), params, seed=[5, 1],
                                 metric=MetricMode.PLAIN)[2]


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(3, 12), inst_seed=st.integers(0, 2 ** 31 - 1),
       seed=st.integers(0, 2 ** 64 - 1), n_ants=st.integers(1, 9), m=st.integers(1, 8),
       extra=st.integers(1, 8), q0=st.sampled_from([0.0, 0.5, 0.9]))
def test_property_early_iterations_do_not_depend_on_iterations(n, inst_seed, seed, n_ants, m,
                                                               extra, q0):
    # A solve of m iterations is the first m iterations of a longer one: the
    # same history, and the first shortest of the tours its ants built.
    inst = gen_random_instance(n, inst_seed, 100.0)
    walks = []

    def walk(*args):
        walks.append(_construct(*args))
        return walks[-1]

    with mock.patch.object(aco, "_construct", side_effect=walk):
        _, _, long_history = aco_solve(inst, range(n), AcoParams(n_ants=n_ants, q0=q0,
                                                                 iterations=m + extra),
                                       seed=seed, metric=MetricMode.PLAIN)
    tour, length, history = aco_solve(inst, range(n), AcoParams(n_ants=n_ants, q0=q0,
                                                                iterations=m),
                                      seed=seed, metric=MetricMode.PLAIN)
    assert history == long_history[:m]
    D = distance_matrix(inst, MetricMode.PLAIN)
    lengths = [cycle_length(D, order) for order in walks[:m * n_ants]]
    assert tour.order == walks[lengths.index(min(lengths))]
    assert length == min(lengths)
