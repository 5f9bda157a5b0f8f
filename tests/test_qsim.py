import itertools
import math

import numpy as np
import pytest

from qacotsp.qaco import rotation_update
from qacotsp.qsim import (
    THETA_MAX,
    THETA_MIN,
    AngleOutOfRange,
    NO_NOISE,
    NoiseKind,
    NoiseSpec,
    QubitOutOfRange,
    StateVector,
    apply_ry,
    apply_x,
    code_from_draws,
    draws_per_qubit,
    measure_all,
    measurement_probabilities,
    noisy_sample,
    ry_product_state,
    sample_ancilla,
    zero_state,
)


# ---------------------------------------------------------------------------
# independent oracle: exact per-qubit trajectory enumeration


def qubit_outcome_prob(theta, noise):
    """Exact P(bit = 1) for one qubit by enumerating noise trajectories."""
    events = []
    if noise.kind is NoiseKind.BIT_FLIP:
        p = noise.rate
        for f1, f2 in itertools.product((0, 1), repeat=2):
            w = (p if f1 else 1 - p) * (p if f2 else 1 - p)
            events.append((w, ("flip",) * f1 + ("noop",) * 0, (f1, f2)))
    elif noise.kind is NoiseKind.THERMAL_RELAXATION:
        p = noise.rate
        for reset, dephase in itertools.product((0, 1), repeat=2):
            w = (p if reset else 1 - p) * (p / 2 if dephase else 1 - p / 2)
            events.append((w, None, (reset, dephase)))
    else:
        events.append((1.0, None, None))

    total_p1 = 0.0
    for w, _, ev in events:
        a = [math.cos(theta / 2), math.sin(theta / 2)]
        if noise.kind is NoiseKind.BIT_FLIP:
            f1, f2 = ev
            if f1:
                a = [a[1], a[0]]
            if f2:
                a = [a[1], a[0]]
        elif noise.kind is NoiseKind.THERMAL_RELAXATION:
            reset, dephase = ev
            if reset:
                a = [1.0, 0.0]
            if dephase:
                a = [a[0], -a[1]]
        total_p1 += w * a[1] ** 2 / (a[0] ** 2 + a[1] ** 2)
    return total_p1


def exact_distribution(thetas, noise):
    """Exact bitstring distribution (char i = qubit i) for a product register."""
    p1 = [qubit_outcome_prob(t, noise) for t in thetas]
    dist = {}
    for bits in itertools.product("01", repeat=len(thetas)):
        prob = 1.0
        for qi, b in enumerate(bits):
            prob *= p1[qi] if b == "1" else 1.0 - p1[qi]
        dist["".join(bits)] = prob
    return dist


def tv_distance(pa, pb):
    keys = set(pa) | set(pb)
    return 0.5 * sum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# gates


def test_ry_zero_is_identity():
    state = ry_product_state([1.1, 2.2])
    out = apply_ry(state, 0, 0.0)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_ry_pi_flips():
    out = apply_ry(zero_state(1), 0, math.pi)
    assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(out.amplitudes[0]) == pytest.approx(0.0, abs=1e-12)


def test_ry_half_pi_balanced():
    out = apply_ry(zero_state(1), 0, math.pi / 2)
    probs = out.probabilities()
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == pytest.approx(0.5)


def test_x_flips_and_is_involution():
    state = zero_state(1)
    flipped = apply_x(state, 0)
    assert abs(flipped.amplitudes[1]) == pytest.approx(1.0)
    back = apply_x(flipped, 0)
    assert np.allclose(back.amplitudes, state.amplitudes)


def test_x_qubit_order_convention():
    # X on qubit 1 of |00> must give |01>: qubit 0 is the leftmost bit, so
    # the amplitude index is 0b01 = 1.
    out = apply_x(zero_state(2), 1)
    assert abs(out.amplitudes[0b01]) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    assert measure_all(out, rng) == "01"


def test_qubit_out_of_range():
    with pytest.raises(QubitOutOfRange):
        apply_x(zero_state(2), 2)
    with pytest.raises(QubitOutOfRange):
        apply_ry(zero_state(2), 5, 0.3)


def test_norm_preserved_random_circuit():
    rng = np.random.default_rng(99)
    state = zero_state(4)
    for _ in range(50):
        q = int(rng.integers(4))
        if rng.random() < 0.5:
            state = apply_ry(state, q, float(rng.uniform(-2 * math.pi, 2 * math.pi)))
        else:
            state = apply_x(state, q)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# measurement


def test_measure_deterministic_state():
    one = apply_ry(zero_state(1), 0, math.pi)
    rng = np.random.default_rng(5)
    assert all(measure_all(one, rng) == "1" for _ in range(50))


def test_measure_balanced_two_qubits():
    state = ry_product_state([math.pi / 2, math.pi / 2])
    rng = np.random.default_rng(31)
    shots = 10_000
    counts = {}
    for _ in range(shots):
        b = measure_all(state, rng)
        counts[b] = counts.get(b, 0) + 1
    sigma = math.sqrt(0.25 * 0.75 / shots)
    for bits in ("00", "01", "10", "11"):
        assert abs(counts.get(bits, 0) / shots - 0.25) <= 3 * sigma


def test_measure_determinism_same_seed():
    state = ry_product_state([1.0, 2.0, 0.5])
    a = [measure_all(state, np.random.default_rng(123)) for _ in range(1)]
    b = [measure_all(state, np.random.default_rng(123)) for _ in range(1)]
    assert a == b
    rng1, rng2 = np.random.default_rng(77), np.random.default_rng(77)
    s1 = [noisy_sample([1.2, 2.1], NoiseSpec(NoiseKind.BIT_FLIP, 0.1), rng1) for _ in range(200)]
    s2 = [noisy_sample([1.2, 2.1], NoiseSpec(NoiseKind.BIT_FLIP, 0.1), rng2) for _ in range(200)]
    assert s1 == s2


def test_born_rule_product_4_qubits_50k():
    thetas = [0.3, 1.1, math.pi / 2, 2.4]
    state = ry_product_state(thetas)
    expected = exact_distribution(thetas, NO_NOISE)
    # cross-check the full statevector against the product closed form
    for idx, amp in enumerate(state.amplitudes):
        bits = format(idx, "04b")
        assert abs(amp.real ** 2 + amp.imag ** 2 - expected[bits]) <= 1e-12

    rng = np.random.default_rng(8)
    shots = 50_000
    counts = {}
    for _ in range(shots):
        b = measure_all(state, rng)
        counts[b] = counts.get(b, 0) + 1
    for bits, p in expected.items():
        bound = 4 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(counts.get(bits, 0) / shots - p) <= bound


# ---------------------------------------------------------------------------
# noisy sampling vs exact enumeration


def test_noiseless_sample_theta_pi_all_ones():
    rng = np.random.default_rng(1)
    assert noisy_sample([math.pi] * 8, NO_NOISE, rng) == "1" * 8


def test_bitflip_rate_one_theta_pi():
    # Two flips (after gate, before measurement) cancel: enumeration of the
    # two-injection-point rule leaves |1> intact, so the sample is all ones.
    oracle = exact_distribution([math.pi] * 3, NoiseSpec(NoiseKind.BIT_FLIP, 1.0))
    assert oracle["111"] == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert noisy_sample([math.pi] * 3, NoiseSpec(NoiseKind.BIT_FLIP, 1.0), rng) == "111"


def test_bitflip_half_theta_zero():
    # 4 equally weighted trajectories: flips at one injection point produce 1.
    oracle = qubit_outcome_prob(0.0, NoiseSpec(NoiseKind.BIT_FLIP, 0.5))
    assert oracle == pytest.approx(0.5)
    rng = np.random.default_rng(3)
    shots = 50_000
    ones = sum(noisy_sample([0.0], NoiseSpec(NoiseKind.BIT_FLIP, 0.5), rng) == "1"
               for _ in range(shots))
    assert abs(ones / shots - 0.5) <= 4 * math.sqrt(0.25 / shots)


@pytest.mark.parametrize("kind", [NoiseKind.BIT_FLIP, NoiseKind.THERMAL_RELAXATION])
def test_noisy_sample_matches_enumeration_two_qubits(kind):
    thetas = [0.9, 2.0]
    noise = NoiseSpec(kind, 0.15)
    expected = exact_distribution(thetas, noise)
    rng = np.random.default_rng(17)
    shots = 50_000
    counts = {}
    for _ in range(shots):
        b = noisy_sample(thetas, noise, rng)
        counts[b] = counts.get(b, 0) + 1
    for bits, p in expected.items():
        bound = 4 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(counts.get(bits, 0) / shots - p) <= bound


@pytest.mark.parametrize("kind", [NoiseKind.BIT_FLIP, NoiseKind.THERMAL_RELAXATION])
def test_noise_tv_distance_monotone(kind):
    # exact check on 1 and 2 qubits: more noise never gets closer to ideal
    for thetas in ([1.2], [0.7, 2.3]):
        ideal = exact_distribution(thetas, NO_NOISE)
        last = 0.0
        for rate in (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.5):
            tv = tv_distance(exact_distribution(thetas, NoiseSpec(kind, rate)), ideal)
            assert tv >= last - 1e-12
            last = tv


# ---------------------------------------------------------------------------
# ancilla


def test_ancilla_theta_zero_never_fires():
    rng = np.random.default_rng(4)
    assert all(sample_ancilla(0.0, NO_NOISE, rng) == 0 for _ in range(100))


def test_ancilla_closed_form_probabilities():
    rng = np.random.default_rng(6)
    shots = 50_000
    for theta, p in ((math.pi / 2, 0.5), (math.pi / 3, 0.25)):
        assert math.sin(theta / 2) ** 2 == pytest.approx(p)
        fires = sum(sample_ancilla(theta, NO_NOISE, rng) for _ in range(shots))
        assert abs(fires / shots - p) <= 4 * math.sqrt(p * (1 - p) / shots)


def test_ancilla_angle_range():
    rng = np.random.default_rng(7)
    with pytest.raises(AngleOutOfRange):
        sample_ancilla(math.pi, NO_NOISE, rng)
    with pytest.raises(AngleOutOfRange):
        sample_ancilla(-0.1, NO_NOISE, rng)


def test_clamp_angle():
    # The register clamp lives in qaco's rotation sweep: an angle below or
    # above the bounds lands on them, one between them moves by the bare step.
    assert THETA_MIN == pytest.approx(0.01 * math.pi)
    assert THETA_MAX == pytest.approx(0.99 * math.pi)
    assert rotation_update([0.0], 0b1, 0b1, False)[0] == THETA_MIN
    assert rotation_update([math.pi], 0b0, 0b0, False)[0] == THETA_MAX
    assert rotation_update([1.0], 0b0, 0b0, False)[0] == 1.0 + 0.04 * math.pi


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.BIT_FLIP, 1.5)
    assert not NoiseSpec(NoiseKind.NONE, 0.0).enabled
    assert NoiseSpec(NoiseKind.BIT_FLIP, 0.1).enabled


def test_statevector_cap():
    with pytest.raises(QubitOutOfRange):
        zero_state(21)
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# one noisy measurement is code_from_draws of one random(n * m) call; the
# numpy identities behind it are checked in test_draws.py


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("kind", [NoiseKind.NONE, NoiseKind.BIT_FLIP,
                                  NoiseKind.THERMAL_RELAXATION], ids=lambda k: k.value)
@pytest.mark.parametrize("rate", [0.0, 0.1, 1.0])
def test_sample_code_is_code_from_one_draw(n, kind, rate):
    noise = NoiseSpec(kind, rate)
    m = draws_per_qubit(noise)
    assert m == (3 if noise.enabled else 1)
    thetas = np.random.default_rng(n).uniform(0.0, math.pi, size=(40, n)).tolist()
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for row in thetas:
            p1, q1 = measurement_probabilities(row)
            expected = code_from_draws(b.random(n * m).tolist(), p1, q1, noise)
            assert noisy_sample(row, noise, a) == format(expected, f"0{n}b")
        assert a.bit_generator.state == b.bit_generator.state
