import numpy as np
import pytest

from qacotsp.circuit_error import (
    EmptyCircuit,
    RateOutOfRange,
    estimate_circuit_error,
    layer,
    qaco_circuit_layers,
)


def test_single_gate_single_layer():
    report = estimate_circuit_error([layer([("ry", 1, 0.01)], m=1)])
    assert report.s == pytest.approx(0.01, abs=1e-15)
    assert report.depth == 1


def test_two_kind_layer_hand_computed():
    # avg = (0.01*1 + 0.03*3) / 4 = 0.025 ; s = 1 - 0.975^4
    report = estimate_circuit_error([layer([("a", 1, 0.01), ("b", 3, 0.03)], m=4)])
    assert report.layer_averages[0] == pytest.approx(0.025, abs=1e-15)
    expected = 1.0 - (1.0 - 0.025) ** 4
    assert report.s == pytest.approx(expected, abs=1e-12)
    assert report.s == pytest.approx(0.096312109375, abs=1e-12)


def test_zero_rates_zero_failure():
    report = estimate_circuit_error([
        layer([("ry", 9, 0.0)]),
        layer([("measure", 9, 0.0)]),
    ])
    assert report.s == 0.0


def test_multi_layer_hand_computed():
    layers = [
        layer([("ry", 2, 0.001), ("x", 2, 0.002)], m=4),
        layer([("measure", 3, 0.01)], m=3),
    ]
    avg1 = (0.001 * 2 + 0.002 * 2) / 4
    avg2 = 0.01
    expected = 1.0 - (1.0 - avg1) ** 4 * (1.0 - avg2) ** 3
    report = estimate_circuit_error(layers)
    assert report.s == pytest.approx(expected, abs=1e-12)


def test_layer_average_is_convex_combination():
    rng = np.random.default_rng(0)
    for _ in range(200):
        kinds = [(f"g{i}", int(rng.integers(1, 10)), float(rng.uniform(0, 0.2)))
                 for i in range(int(rng.integers(1, 5)))]
        spec = layer(kinds)
        rates = [k[2] for k in kinds]
        assert min(rates) - 1e-15 <= spec.average_rate() <= max(rates) + 1e-15


def test_monotonicity_random_perturbations():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        depth = int(rng.integers(1, 5))
        layers = []
        for _ in range(depth):
            kinds = [(f"g{i}", int(rng.integers(1, 8)),
                      float(rng.uniform(0.001, 0.1)))
                     for i in range(int(rng.integers(1, 4)))]
            layers.append(layer(kinds, m=int(rng.integers(1, 12))))
        s0 = estimate_circuit_error(layers).s
        assert 0.0 <= s0 <= 1.0

        li = int(rng.integers(depth))
        target = layers[li]
        choice = rng.integers(4)
        if choice == 0:  # bump one error rate
            gi = int(rng.integers(len(target.gate_counts)))
            bumped = [(g.kind, g.count,
                       min(1.0, g.error_rate + 0.05) if j == gi else g.error_rate)
                      for j, g in enumerate(target.gate_counts)]
            layers[li] = layer(bumped, m=target.m)
        elif choice == 1:  # bump the count of the highest-rate kind
            gi = int(np.argmax([g.error_rate for g in target.gate_counts]))
            bumped = [(g.kind, g.count + 5 if j == gi else g.count, g.error_rate)
                      for j, g in enumerate(target.gate_counts)]
            layers[li] = layer(bumped, m=target.m)
        elif choice == 2:  # deeper exponent
            layers[li] = layer([(g.kind, g.count, g.error_rate)
                                for g in target.gate_counts], m=target.m + 3)
        else:  # extra layer
            layers.append(layer([("extra", 2, 0.01)]))
        s1 = estimate_circuit_error(layers).s
        if choice == 1:
            # raising the count of the max-rate kind raises the layer average
            assert s1 >= s0 - 1e-12
        else:
            assert s1 >= s0 - 1e-12


def test_qaco_layers_shapes():
    layers4 = qaco_circuit_layers(4)
    assert layers4[0].m == 9  # 2*4 path qubits + ancilla
    assert layers4[0].gate_counts[0].count == 9
    layers10 = qaco_circuit_layers(10)
    assert layers10[0].m == 21
    report = estimate_circuit_error(layers4)
    assert 0.0 <= report.s <= 1.0


def test_errors():
    with pytest.raises(EmptyCircuit):
        estimate_circuit_error([])
    with pytest.raises(RateOutOfRange):
        estimate_circuit_error([layer([("g", 1, 1.5)])])
    with pytest.raises(EmptyCircuit):
        estimate_circuit_error([layer([("g", 1, 0.1)], m=0)])
    with pytest.raises(ValueError):
        qaco_circuit_layers(1)
