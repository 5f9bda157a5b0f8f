"""Statevector simulation of the shallow path-search circuits.

The circuits are products of single-qubit Ry rotations followed by a
computational-basis measurement, optionally with Pauli-X gates.  Noise is
injected stochastically per Monte Carlo trajectory:

* bit flip: after each Ry gate and again before each measurement, apply X to
  the affected qubit with probability ``rate``;
* thermal relaxation: after each Ry gate, reset the qubit to |0> with
  probability ``rate`` (amplitude-damping event) and, independently, apply Z
  with probability ``rate / 2`` (dephasing event).

Bit-order convention: character ``i`` of a returned bitstring is the measured
value of qubit ``i``; equivalently qubit 0 is the most significant bit of the
basis-state index.  The convention is fixed here and used everywhere else in
the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 20

# Pheromone angles are kept away from 0 and pi so sampling probabilities
# never saturate at exactly 0 or 1 (premature convergence guard).
THETA_MIN = 0.01 * math.pi
THETA_MAX = 0.99 * math.pi


class QubitOutOfRange(IndexError):
    pass


class AngleOutOfRange(ValueError):
    pass


class NoiseKind(enum.Enum):
    NONE = "none"
    BIT_FLIP = "bitflip"
    THERMAL_RELAXATION = "thermal"


@dataclass(frozen=True)
class NoiseSpec:
    """Noise channel selection: kind plus a single per-operation rate."""

    kind: NoiseKind = NoiseKind.NONE
    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.rate}")

    @property
    def enabled(self) -> bool:
        return self.kind is not NoiseKind.NONE and self.rate > 0.0


NO_NOISE = NoiseSpec()


@dataclass(eq=False)
class StateVector:
    """Pure state of up to MAX_QUBITS qubits as a dense amplitude array."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise QubitOutOfRange(f"n_qubits must be in 1..{MAX_QUBITS}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.n_qubits,):
            raise ValueError(f"expected {2 ** self.n_qubits} amplitudes, got {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")
        self.amplitudes = amps

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on n_qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise QubitOutOfRange(f"n_qubits must be in 1..{MAX_QUBITS}")
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise QubitOutOfRange(f"qubit {q} out of range for {state.n_qubits} qubits")


def apply_ry(state: StateVector, q: int, theta: float) -> StateVector:
    """Apply Ry(theta) to qubit q: |0> -> cos(t/2)|0> + sin(t/2)|1>."""
    _check_qubit(state, q)
    if not math.isfinite(theta):
        raise AngleOutOfRange(f"theta must be finite, got {theta}")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    view = state.amplitudes.reshape([2] * state.n_qubits)
    idx0 = [slice(None)] * state.n_qubits
    idx1 = [slice(None)] * state.n_qubits
    idx0[q], idx1[q] = 0, 1
    a0, a1 = view[tuple(idx0)], view[tuple(idx1)]
    out = view.copy()
    out[tuple(idx0)] = c * a0 - s * a1
    out[tuple(idx1)] = s * a0 + c * a1
    return StateVector(state.n_qubits, out.reshape(-1))


def apply_x(state: StateVector, q: int) -> StateVector:
    """Apply Pauli-X to qubit q."""
    _check_qubit(state, q)
    view = state.amplitudes.reshape([2] * state.n_qubits)
    return StateVector(state.n_qubits, np.flip(view, axis=q).reshape(-1).copy())


def measure_all(state: StateVector, rng: np.random.Generator) -> str:
    """Sample one bitstring from the Born-rule distribution of the state.

    Single-shot semantics: the caller prepares a fresh state per shot; no
    collapse of the passed object is modeled.
    """
    probs = state.probabilities()
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    idx = min(idx, len(probs) - 1)
    return format(idx, f"0{state.n_qubits}b")


def ry_product_state(thetas) -> StateVector:
    """The product state  (Ry(theta_0)|0>) x ... x (Ry(theta_{n-1})|0>)."""
    thetas = np.asarray(thetas, dtype=float)
    amps = np.array([1.0 + 0j])
    for theta in thetas:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        amps = np.kron(amps, np.array([c, s], dtype=complex))
    return StateVector(len(thetas), amps)


def measurement_probabilities(thetas):
    """Per-qubit probability of reading 1 from Ry(theta)|0>.

    Returns two lists of floats: ``p1`` for the qubits as prepared and ``q1``
    for the qubits after a net X (cos and sin amplitudes swapped), both as
    a1^2 / (a0^2 + a1^2).  The amplitudes come from ``math.cos`` and
    ``math.sin``, which equal numpy's on the angles the solver reaches
    (``draws.py``), and squares are taken as ``x * x``, which is what
    numpy's array ``a ** 2`` computes; Python's ``x ** 2`` calls ``pow`` and
    can differ in the last bit.
    """
    p1, q1 = [], []
    for theta in thetas:
        a0, a1 = math.cos(theta / 2.0), math.sin(theta / 2.0)
        c2, s2 = a0 * a0, a1 * a1
        p1.append(s2 / (c2 + s2))
        q1.append(c2 / (s2 + c2))
    return p1, q1


def draws_per_qubit(noise: NoiseSpec) -> int:
    """Uniform draws one noisy measurement takes per qubit: 3 with noise, else 1."""
    return 3 if noise.enabled else 1


def code_from_draws(draws, p1, q1, noise: NoiseSpec) -> int:
    """One noisy measurement of a product register, as an int code.

    ``p1``/``q1`` come from ``measurement_probabilities``.  Bit ``n-1-i`` of
    the code is qubit ``i`` (qubit 0 is the most significant bit), so
    ``format(code, f"0{n}b")`` is the bitstring of ``noisy_sample``.  The
    noise rules live here and only here.

    ``draws`` holds ``n * m`` uniforms, m = ``draws_per_qubit(noise)``
    (later items are ignored), in a fixed draw order: the after-gate noise
    array, then the pre-measurement flip array (bit flip) or the dephasing
    array (thermal), then the measurement array, each indexed by qubit.
    Callers take them from one ``rng.random(n * m)`` call (see ``draws.py``).
    Two bit flips cancel; a thermal reset leaves |0>, which reads 0;
    dephasing flips the sign of the |1> amplitude and so never changes the
    outcome, but its array is still drawn.
    """
    probs = p1
    if noise.rate > 0.0:
        n = len(p1)
        rate = noise.rate
        if noise.kind is NoiseKind.BIT_FLIP:
            probs = [q if (g < rate) != (m < rate) else p
                     for p, q, g, m in zip(p1, q1, draws, draws[n:])]
            draws = draws[2 * n:]
        elif noise.kind is NoiseKind.THERMAL_RELAXATION:
            probs = [0.0 if r < rate else p for p, r in zip(p1, draws)]
            draws = draws[2 * n:]  # skips the dephasing draws
    code = 0
    for r, p in zip(draws, probs):
        code += code + (r < p)  # (code << 1) | bit
    return code


def noisy_sample(thetas, noise: NoiseSpec, rng: np.random.Generator) -> str:
    """One measurement of the path register prepared as a product of Ry gates.

    Noise is sampled as Monte Carlo trajectories at the injection points
    listed in the module docstring.  The register is a product state with
    strictly per-qubit noise events, so each qubit is simulated as its own
    2-amplitude vector; the sampled distribution is identical to evolving the
    full 2^n statevector trajectory.  ``code_from_draws`` gives the draw order.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas)):
        raise AngleOutOfRange("angles must be finite")
    n = len(thetas)
    draws = rng.random(n * draws_per_qubit(noise)).tolist()
    code = code_from_draws(draws, *measurement_probabilities(thetas.tolist()), noise)
    return format(code, f"0{n}b") if n else ""


def sample_ancilla(theta: float, noise: NoiseSpec, rng: np.random.Generator) -> int:
    """Measure the mutation-control ancilla prepared as Ry(theta)|0>.

    Returns 1 with probability sin^2(theta/2) when noiseless; with noise
    enabled the same per-qubit trajectory rules as noisy_sample apply.
    """
    if not (0.0 <= theta <= math.pi / 2.0 + 1e-12):
        raise AngleOutOfRange(f"ancilla angle must be in [0, pi/2], got {theta}")
    return int(noisy_sample([theta], noise, rng))
