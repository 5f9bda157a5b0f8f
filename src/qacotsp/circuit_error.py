"""Layered failure-probability estimate for a transpiled shallow circuit.

For a circuit of depth d, the total failure probability is

    s = 1 - prod_j (1 - avg_j) ** m_j

where avg_j is the count-weighted average error rate of the gates in layer j
and m_j is the number of gates in that layer.
"""

from __future__ import annotations

from dataclasses import dataclass

# Published median error rates for a recent superconducting processor,
# shipped as a convenience preset (inputs, not verified results): single-qubit
# gates about 0.03%.
SINGLE_QUBIT_RATE = 0.0003
DEFAULT_MEASUREMENT_RATE = 0.0003


class EmptyCircuit(ValueError):
    pass


class RateOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class GateCount:
    kind: str
    count: int
    error_rate: float


@dataclass(frozen=True)
class LayerSpec:
    """One circuit layer: its gate population and total gate count m."""

    gate_counts: tuple
    m: int

    def average_rate(self) -> float:
        total = sum(g.count for g in self.gate_counts)
        return sum(g.error_rate * g.count for g in self.gate_counts) / total


@dataclass(frozen=True)
class CircuitErrorReport:
    s: float
    layer_averages: tuple
    depth: int


def layer(gates, m: int = None) -> LayerSpec:
    """Build a LayerSpec from (kind, count, rate) triples; m defaults to the
    total gate count."""
    counts = tuple(GateCount(str(k), int(n), float(r)) for k, n, r in gates)
    if m is None:
        m = sum(g.count for g in counts)
    return LayerSpec(counts, int(m))


def estimate_circuit_error(layers) -> CircuitErrorReport:
    """Evaluate the layered failure-probability product."""
    layers = list(layers)
    if not layers:
        raise EmptyCircuit("at least one layer is required")
    survive = 1.0
    averages = []
    for j, spec in enumerate(layers, start=1):
        if not spec.gate_counts:
            raise EmptyCircuit(f"layer {j} has no gate counts")
        for g in spec.gate_counts:
            if g.count < 1:
                raise EmptyCircuit(f"layer {j}: gate count must be positive, got {g.count}")
            if not 0.0 <= g.error_rate <= 1.0:
                raise RateOutOfRange(f"layer {j}: error rate out of [0, 1]: {g.error_rate}")
        # Checked after the gates: m defaults to their total, which a zero count empties.
        if spec.m < 1:
            raise EmptyCircuit(f"layer {j}: gate count m must be >= 1, got {spec.m}")
        avg = spec.average_rate()
        averages.append(avg)
        survive *= (1.0 - avg) ** spec.m
    return CircuitErrorReport(s=1.0 - survive, layer_averages=tuple(averages),
                              depth=len(layers))


def qaco_circuit_layers(k_cities: int) -> list:
    """Layer structure of the path-search circuit for a k-city register.

    One layer of Ry gates (2 per city, plus the mutation ancilla), then one
    measurement layer over the same qubits.  k = 4 gives the 9-gate
    preparation layer of the reference 9-qubit layout; k = 10 scales to 21
    gates.
    """
    if not 2 <= k_cities <= 10:
        raise ValueError("k_cities must be in 2..10")
    n_qubits = 2 * k_cities + 1
    return [
        layer([("ry", n_qubits, SINGLE_QUBIT_RATE)]),
        layer([("measure", n_qubits, DEFAULT_MEASUREMENT_RATE)]),
    ]
