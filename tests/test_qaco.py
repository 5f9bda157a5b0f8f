import itertools
import math

import numpy as np
import pytest

from qacotsp import qaco
from qacotsp.qaco import (
    MAX_CITIES,
    ROTATION_TABLE,
    LengthMismatch,
    QacoParams,
    RepairError,
    SolutionPool,
    TooFewCities,
    TooManyCities,
    decode_bits,
    encode_tour,
    hamming,
    maybe_mutate,
    qaco_solve,
    repair_infeasible,
    rotation_update,
)
from qacotsp.draws import DrawReplay
from qacotsp.qsim import NO_NOISE, THETA_MAX, THETA_MIN, NoiseKind, NoiseSpec
from qacotsp.tsplib import Instance, MetricMode, Tour, gen_random_instance, validate_tour


def square_instance():
    return Instance("square", 4, "EUC_2D",
                    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# encoding


def test_encode_known_values():
    assert encode_tour(Tour((0, 1, 2, 3)), 4) == "00011011"
    assert encode_tour(Tour((3, 2, 1, 0)), 4) == "11100100"
    assert encode_tour(Tour((2, 0, 1)), 3) == "100001"


def test_encode_too_many():
    with pytest.raises(TooManyCities):
        encode_tour(Tour((0, 1, 2, 3, 4)), 5)


def test_decode_known_values():
    assert decode_bits("00011011", 4).order == (0, 1, 2, 3)
    assert decode_bits("00000110", 4) is None  # city 0 repeated
    assert decode_bits("110001", 3) is None  # index 3 >= k
    with pytest.raises(LengthMismatch):
        decode_bits("0001", 4)


def test_encode_decode_roundtrip_exhaustive():
    for k in (2, 3, 4):
        for perm in itertools.permutations(range(k)):
            tour = Tour(perm)
            assert decode_bits(encode_tour(tour, k), k).order == perm


def test_hamming():
    assert hamming("0000", "0000") == 0
    assert hamming("0101", "1010") == 4
    assert hamming("0011", "0010") == 1
    with pytest.raises(LengthMismatch):
        hamming("00", "000")


def test_hamming_domain_is_bitstrings():
    assert hamming("", "") == 0
    with pytest.raises(ValueError):
        hamming("0a", "01")


# ---------------------------------------------------------------------------
# repair


def test_repair_early_iterations_uniform():
    pool = SolutionPool()
    pool.add(Tour((0, 1, 2, 3)), encode_tour(Tour((0, 1, 2, 3)), 4), 1.0)
    rng = np.random.default_rng(0)
    counts = {}
    shots = 24_000
    for _ in range(shots):
        tour = repair_infeasible("00000000", pool, iteration=5, k=4, rng=rng)
        counts[tour.order] = counts.get(tour.order, 0) + 1
    assert len(counts) == 24
    p = 1.0 / 24.0
    bound = 4 * math.sqrt(p * (1 - p) / shots)
    for c in counts.values():
        assert abs(c / shots - p) <= bound


def test_repair_single_entry_pool():
    pool = SolutionPool()
    tour = Tour((1, 0, 2, 3))
    pool.add(tour, encode_tour(tour, 4), 2.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert repair_infeasible("11111111", pool, iteration=50, k=4, rng=rng).order == tour.order


def test_repair_window_ends_after_iteration_10():
    # RANDOM_FEASIBLE_WINDOW is 10: iteration 10 still repairs at random,
    # iteration 11 draws from the pool, here its single entry.
    pool = SolutionPool()
    tour = Tour((1, 0, 2, 3))
    pool.add(tour, encode_tour(tour, 4), 2.0)
    rng = np.random.default_rng(4)
    at_10 = {repair_infeasible("11111111", pool, iteration=10, k=4, rng=rng).order
             for _ in range(50)}
    at_11 = {repair_infeasible("11111111", pool, iteration=11, k=4, rng=rng).order
             for _ in range(50)}
    assert len(at_10) > 1
    assert at_11 == {tour.order}


def test_repair_inverse_hamming_two_four():
    # distances 2 and 4 -> Eq-style probabilities (d_i * sum_j 1/d_j)^-1
    bits = "11111100"
    t_near, t_far = Tour((3, 2, 1, 0)), Tour((3, 2, 0, 1))
    e_near, e_far = encode_tour(t_near, 4), encode_tour(t_far, 4)
    assert hamming(bits, e_near) == 2
    assert hamming(bits, e_far) == 4
    p_near = 1.0 / (2 * (1 / 2 + 1 / 4))
    p_far = 1.0 / (4 * (1 / 2 + 1 / 4))
    assert p_near == pytest.approx(2 / 3)
    assert p_far == pytest.approx(1 / 3)
    assert p_near + p_far == pytest.approx(1.0, abs=1e-12)

    pool = SolutionPool()
    pool.add(t_near, e_near, 1.0)
    pool.add(t_far, e_far, 2.0)
    rng = np.random.default_rng(2)
    shots = 30_000
    near_hits = sum(
        repair_infeasible(bits, pool, iteration=99, k=4, rng=rng).order == t_near.order
        for _ in range(shots)
    )
    assert abs(near_hits / shots - 2 / 3) <= 4 * math.sqrt((2 / 3) * (1 / 3) / shots)


def test_repair_raises_on_a_pooled_measurement():
    # distance 0 to a pool entry makes the probabilities NaN; the check must
    # raise even under python -O
    tour = Tour((2, 0, 3, 1))
    pool = SolutionPool()
    pool.add(tour, encode_tour(tour, 4), 1.0)
    rng = np.random.default_rng(3)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(RepairError):
        repair_infeasible(encode_tour(tour, 4), pool, iteration=50, k=4, rng=rng)


def test_repair_rejects_more_cities_than_the_encoding_holds():
    rng = np.random.default_rng(0)
    with pytest.raises(TooManyCities):
        repair_infeasible("0" * 10, SolutionPool(), iteration=1, k=MAX_CITIES + 1, rng=rng)


def test_repair_rejects_a_measurement_of_the_wrong_length():
    pool = SolutionPool()
    pool.add(Tour((1, 0, 2, 3)), "01001011", 2.0)
    rng = np.random.default_rng(0)
    for bits in ("111111", "1111111111"):
        with pytest.raises(LengthMismatch):
            repair_infeasible(bits, pool, iteration=50, k=4, rng=rng)


def test_repair_rejects_a_pooled_tour_of_another_size():
    # A 3-city entry has no 4-city decoding, so drawing it would give None.
    pool = SolutionPool()
    pool.add(Tour((2, 0, 1)), "100001", 1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(LengthMismatch):
        repair_infeasible("00000000", pool, iteration=50, k=4, rng=rng)


# ---------------------------------------------------------------------------
# solution pool


def test_pool_sorted_bounded_deduped():
    pool = SolutionPool(capacity=3)
    tours = [Tour(p) for p in itertools.permutations(range(4))]
    lengths = [9.0, 3.0, 7.0, 5.0, 1.0]
    for t, length in zip(tours, lengths):
        pool.add(t, encode_tour(t, 4), length)
    assert [e.length for e in pool.entries] == [1.0, 3.0, 5.0]
    # duplicate encoding rejected
    assert not pool.add(tours[4], encode_tour(tours[4], 4), 0.5)
    # worse than worst rejected
    assert not pool.add(tours[0], encode_tour(tours[0], 4), 8.0)
    better = tours[5]
    assert pool.add(better, encode_tour(better, 4), 2.0)
    assert [e.length for e in pool.entries] == [1.0, 2.0, 3.0]


def test_pool_refuses_bits_that_do_not_encode_the_tour():
    # Pooled bits that decode to no tour would make a later repair return None.
    pool = SolutionPool()
    for bits in ("11111111", "000110", "0b011011", "00011011 "):
        with pytest.raises(qaco.EncodingMismatch):
            pool.add(Tour((0, 1, 2, 3)), bits, 1.0)
    assert pool.entries == [] and pool.codes == []
    repaired = repair_infeasible("00000000", pool, iteration=50, k=4, rng=np.random.default_rng(0))
    assert isinstance(repaired, Tour)


def test_pool_refuses_a_capacity_below_one():
    # A pool of capacity 0 would have no entry to evict on its first add.
    for capacity in (0, -1):
        with pytest.raises(ValueError):
            SolutionPool(capacity=capacity)


# ---------------------------------------------------------------------------
# rotation table


def test_rotation_table_rows():
    assert ROTATION_TABLE[(0, 0, False)][0] == pytest.approx(0.04 * math.pi)
    assert ROTATION_TABLE[(1, 0, False)][0] == pytest.approx(-0.07 * math.pi)
    assert ROTATION_TABLE[(0, 0, True)] == (pytest.approx(-0.01 * math.pi), True)
    assert ROTATION_TABLE[(0, 1, True)] == (pytest.approx(-0.05 * math.pi), True)
    assert ROTATION_TABLE[(0, 1, False)] == (pytest.approx(0.07 * math.pi), False)
    assert ROTATION_TABLE[(1, 0, True)] == (pytest.approx(0.05 * math.pi), True)
    assert ROTATION_TABLE[(1, 1, True)] == (pytest.approx(0.01 * math.pi), True)
    assert ROTATION_TABLE[(1, 1, False)] == (pytest.approx(-0.04 * math.pi), False)


def test_rotation_update_directions():
    reg = [math.pi / 2] * 4
    # x=0000, b=0000, not worse: every angle moves +0.04*pi
    out = rotation_update(reg, 0b0000, 0b0000, False)
    assert np.allclose(out, math.pi / 2 + 0.04 * math.pi)
    # x=1, b=0, not worse: -0.07*pi
    out2 = rotation_update([math.pi / 2], 0b1, 0b0, False)
    assert out2[0] == pytest.approx(math.pi / 2 - 0.07 * math.pi)
    # qubit 0 is the most significant bit: x=10 moves only the first angle by -0.07*pi
    out3 = rotation_update([math.pi / 2] * 2, 0b10, 0b00, False)
    assert out3 == pytest.approx([math.pi / 2 - 0.07 * math.pi, math.pi / 2 + 0.04 * math.pi])


def test_rotation_update_clamps():
    out = rotation_update([THETA_MAX], 0b0, 0b0, False)  # +0.04*pi would overflow
    assert out[0] == pytest.approx(THETA_MAX)
    out_low = rotation_update([THETA_MIN], 0b1, 0b1, False)  # -0.04*pi
    assert out_low[0] == pytest.approx(THETA_MIN)


def test_rotation_update_starred_sign_flip():
    # theta beyond pi/2: sin*cos < 0, starred rows reverse direction
    theta = 0.75 * math.pi
    out = rotation_update([theta], 0b1, 0b1, True)  # worse, starred +0.01*pi
    assert out[0] == pytest.approx(theta - 0.01 * math.pi)
    out2 = rotation_update([0.25 * math.pi], 0b1, 0b1, True)
    assert out2[0] == pytest.approx(0.25 * math.pi + 0.01 * math.pi)


def test_rotation_update_length_check():
    reg = [math.pi / 2] * 4
    assert len(rotation_update(reg, 0b1111, 0b1111, False)) == 4
    with pytest.raises(LengthMismatch):
        rotation_update(reg, 0b10000, 0b0000, False)
    with pytest.raises(LengthMismatch):
        rotation_update(reg, 0b0000, 0b100000, True)


def test_rotation_update_bounds_random_walk():
    rng = np.random.default_rng(3)
    reg = [math.pi / 2] * 8
    for _ in range(500):
        x, b = (int(v) for v in rng.integers(0, 1 << 8, size=2))
        fx, fb = rng.uniform(1, 10, size=2)
        reg = rotation_update(reg, x, b, bool(fx > fb))
        assert np.all(np.array(reg) >= THETA_MIN - 1e-12)
        assert np.all(np.array(reg) <= THETA_MAX + 1e-12)


# ---------------------------------------------------------------------------
# mutation


def test_mutation_inactive_without_stall():
    # The stall gate lives in qaco_solve: a stall window the search never
    # reaches (it stops after convergence_window stagnant iterations) leaves
    # no mutation, the defaults mutate.
    inst = gen_random_instance(4, 15, 100.0)
    quiet = QacoParams(stall_window=60, convergence_window=40)
    assert qaco_solve(inst, range(4), quiet, seed=4, metric=MetricMode.PLAIN).mutations == 0
    assert qaco_solve(inst, range(4), seed=4, metric=MetricMode.PLAIN).mutations > 0


def test_mutation_rate_closed_form():
    # P(flip) = E[sin^2(theta/2)] over theta ~ U[0, pi/2] = 1/2 - 1/pi
    expected = 0.5 - 1.0 / math.pi
    rng = np.random.default_rng(5)
    shots = 40_000
    flips = 0
    for _ in range(shots):
        out = maybe_mutate(0, 8, NO_NOISE, rng)
        if out != 0:
            assert hamming(format(out, "08b"), "00000000") == 1
            flips += 1
    assert abs(flips / shots - expected) <= 4 * math.sqrt(expected * (1 - expected) / shots)


@pytest.mark.parametrize("noise", [NO_NOISE, NoiseSpec(NoiseKind.BIT_FLIP, 0.3),
                                   NoiseSpec(NoiseKind.THERMAL_RELAXATION, 0.3)],
                         ids=lambda n: n.kind.value)
def test_kernels_return_ints_from_both_draw_sources(noise):
    # The solver's kernels take a numpy Generator or the solver's DrawReplay,
    # and must draw the same values and return Python ints from either.
    pool = SolutionPool()
    for order, length in (((1, 0, 2, 3), 2.0), ((3, 2, 0, 1), 1.0)):
        pool.add(Tour(order), encode_tour(Tour(order), 4), length)
    gen, replay = np.random.default_rng(9), DrawReplay(9)
    for trial in range(300):
        for source in (gen, replay):
            code = 0b11111111 ^ trial % 7
            out = (maybe_mutate(code, 8, noise, source),
                   qaco._repair(code, pool, 5, 4, source),
                   qaco._repair(code, pool, 50, 4, source))
            assert all(type(v) is int for v in out), out
            if source is gen:
                expected = out
        assert out == expected, trial
    assert replay.random() == gen.random()


def test_qaco_solve_refuses_a_generator_as_seed():
    # The solver reads its generator ahead in blocks; a caller's generator
    # would be left advanced past the draws the solve made.
    inst = gen_random_instance(4, 15, 100.0)
    for seed in (np.random.default_rng(4), np.random.PCG64(4)):
        bitgen = getattr(seed, "bit_generator", seed)
        state = bitgen.state
        with pytest.raises(qaco.SharedGenerator):
            qaco_solve(inst, range(4), seed=seed)
        assert bitgen.state == state
    assert (qaco_solve(inst, range(4), seed=np.random.SeedSequence(4))
            == qaco_solve(inst, range(4), seed=4))


# ---------------------------------------------------------------------------
# full leaf solve


def test_qaco_two_cities_immediate():
    inst = gen_random_instance(2, 0, 10.0)
    result = qaco_solve(inst, [0, 1], seed=0, metric=MetricMode.PLAIN)
    assert result.tour.order == (0, 1)
    assert result.iterations == 0


def test_qaco_city_count_bounds():
    inst = gen_random_instance(6, 1, 10.0)
    with pytest.raises(TooFewCities):
        qaco_solve(inst, [0], seed=0)
    with pytest.raises(TooManyCities):
        qaco_solve(inst, [0, 1, 2, 3, 4], seed=0)
    assert MAX_CITIES == 4


def test_qaco_square_finds_optimum():
    inst = square_instance()
    params = QacoParams(max_iter=200)
    wins = 0
    for seed in range(40):
        result = qaco_solve(inst, range(4), params, seed=seed, metric=MetricMode.PLAIN)
        if result.length == pytest.approx(4.0):
            wins += 1
    assert wins >= 38


def test_qaco_history_non_increasing():
    inst = gen_random_instance(4, 8, 100.0)
    result = qaco_solve(inst, range(4), seed=2, metric=MetricMode.PLAIN)
    assert all(b <= a for a, b in zip(result.history, result.history[1:]))
    assert result.history[-1] == result.length


def test_qaco_feasible_under_heavy_noise():
    inst = gen_random_instance(4, 9, 100.0)
    for kind in (NoiseKind.BIT_FLIP, NoiseKind.THERMAL_RELAXATION):
        result = qaco_solve(inst, range(4), QacoParams(max_iter=120),
                            noise=NoiseSpec(kind, 0.10), seed=3,
                            metric=MetricMode.PLAIN)
        assert validate_tour(result.tour.order, 4)
        assert result.repairs >= 0


def test_qaco_deterministic():
    inst = gen_random_instance(4, 10, 100.0)
    a = qaco_solve(inst, range(4), seed=11, metric=MetricMode.PLAIN)
    b = qaco_solve(inst, range(4), seed=11, metric=MetricMode.PLAIN)
    assert a.tour.order == b.tour.order
    assert a.length == b.length
    assert a.history == b.history
    assert a.mutations == b.mutations and a.repairs == b.repairs


def test_qaco_biased_register_recovers_encoded_tour():
    # angles pinned at the clamp bounds encoding tour (0,1,2,3): sampling
    # recovers that tour with probability >= 0.9 per shot
    from qacotsp.qsim import noisy_sample

    bits = "00011011"
    thetas = np.array([THETA_MIN if b == "0" else THETA_MAX for b in bits])
    per_bit = math.cos(THETA_MIN / 2) ** 2
    assert per_bit ** 8 >= 0.9
    rng = np.random.default_rng(12)
    shots = 2000
    hits = sum(noisy_sample(thetas, NO_NOISE, rng) == bits for _ in range(shots))
    assert hits / shots >= 0.9


@pytest.mark.parametrize("field", ["stall_window", "convergence_window"])
def test_params_refuse_negative_windows(field):
    with pytest.raises(ValueError, match=field):
        QacoParams(**{field: -1})
    assert getattr(QacoParams(**{field: 0}), field) == 0
