"""Failure-probability budget of the sampling circuit on noisy hardware.

s = 1 - prod_j (1 - avg_j)^(m_j): avg_j is the count-weighted mean gate error
of layer j and m_j its gate count.  The presets use published median error
rates for a recent superconducting processor as inputs.
"""

from qacotsp.circuit_error import (
    SINGLE_QUBIT_RATE,
    estimate_circuit_error,
    layer,
    qaco_circuit_layers,
)

for k in (4, 10):
    layers = qaco_circuit_layers(k)
    report = estimate_circuit_error(layers)
    qubits = 2 * k + 1
    print(f"{k:2d}-city register ({qubits} qubits): "
          f"s = {report.s:.5f} over depth {report.depth}")

print(f"\n(single-qubit preset rate: {SINGLE_QUBIT_RATE:.4%} per gate)")

print("\na transpiled variant with two-qubit couplers added by hand:")
custom = [
    layer([("ry", 9, 0.0003)]),
    layer([("cz", 8, 0.0032)]),
    layer([("measure", 9, 0.01)]),
]
report = estimate_circuit_error(custom)
for j, avg in enumerate(report.layer_averages, start=1):
    print(f"  layer {j}: average rate {avg:.4%}")
print(f"  total failure probability s = {report.s:.4f}")
