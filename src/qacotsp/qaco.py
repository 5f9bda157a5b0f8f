"""Quantum-inspired ant colony solver for subproblems of at most 4 cities.

Each of the k tour positions is encoded by two qubits, so a measurement of
the 2k-qubit register yields a candidate tour directly.  Per-qubit rotation
angles play the role of pheromone: they start at pi/2 (uniform sampling) and
are nudged after every iteration by a fixed lookup table comparing the
iteration's best bitstring against the global best.  Infeasible measurements
are repaired either randomly (early iterations) or by drawing a pool tour
with probability inversely proportional to Hamming distance.  When the global
best stalls, a measured ancilla qubit gates a one-bit mutation.

Inside the solver a measurement is an int code of 2k bits, not a string.
Qubit 0 is the most significant bit, as in ``qsim``, so position i's city
sits in bits 2(k-1-i)+1 and 2(k-1-i) and the code of tour (2, 0, 1) is
0b100001.  A table built once per k maps each of the 4^k codes to its
``Tour``, or to None when the code repeats a city or names one >= k; the k!
cycle lengths are computed once per solve.  The solver calls the int-code
operators ``rotation_update``, ``maybe_mutate`` and ``_repair`` by name; the
bitstring helpers (``encode_tour``, ``decode_bits``, ``hamming``,
``repair_infeasible``) convert at their boundary and call the same code.
``SolutionPool`` alone keeps the pool: the entries with their bitstrings,
their int codes and the repair caches.  The solver adds to it and reads it,
and formats a bitstring only for a code that is not yet pooled.

One iteration of ``qaco_solve`` draws, with m = ``qsim.draws_per_qubit``
(1 noiseless, 3 under noise), per ant one ``rng.random(2k * m)`` call for
the measurement, then, if the code is infeasible, the repair's
``rng.permutation(k)`` (iterations up to ``RANDOM_FEASIBLE_WINDOW``, or while
the pool is empty) or one ``rng.random()`` (the Hamming rule).  Once stalled
it draws, per ant, one ``rng.random(1 + m)`` call for the mutation angle and
the ancilla's measurement, then ``rng.integers(2k)`` only when the ancilla
reads 1.  The rotation draws nothing.  ``rng`` is a ``draws.DrawReplay``,
which returns what each of these calls on ``default_rng(seed)`` would.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .draws import DrawReplay
from .qsim import (
    NO_NOISE,
    THETA_MAX,
    THETA_MIN,
    NoiseSpec,
    code_from_draws,
    draws_per_qubit,
    measurement_probabilities,
)
from .tsplib import (
    Instance,
    MetricMode,
    Tour,
    cycle_length,
    distance_matrix,
)

MAX_CITIES = 4  # 2 bits per position, 8 path qubits

# Iterations during which infeasible samples are repaired by a uniformly
# random feasible tour instead of the Hamming-distance rule.
RANDOM_FEASIBLE_WINDOW = 10

# Pheromone-angle update table keyed by (bit of iteration best x_i, bit of
# global best b_i, iteration best worse than global best).  Values are
# (delta_theta, starred); starred rows reverse direction when
# sin(theta) * cos(theta) < 0, i.e. when theta sits past pi/2.
ROTATION_TABLE = {
    (0, 0, True): (-0.01 * math.pi, True),
    (0, 0, False): (0.04 * math.pi, False),
    (0, 1, True): (-0.05 * math.pi, True),
    (0, 1, False): (0.07 * math.pi, False),
    (1, 0, True): (0.05 * math.pi, True),
    (1, 0, False): (-0.07 * math.pi, False),
    (1, 1, True): (0.01 * math.pi, True),
    (1, 1, False): (-0.04 * math.pi, False),
}


class TooManyCities(ValueError):
    pass


class TooFewCities(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class EncodingMismatch(ValueError):
    """Pool bits that are not the 2-bit encoding of the pooled tour."""


class SharedGenerator(TypeError):
    """A numpy ``Generator`` or ``BitGenerator`` passed to ``qaco_solve`` as its seed.

    The solver reads its generator's words ahead of use, so it would leave
    a caller's generator advanced past the draws it made.
    """


class RepairError(ValueError):
    """The Hamming-repair probabilities do not sum to 1.

    Happens when the measurement equals a pooled encoding (distance 0), i.e.
    when a feasible measurement is passed to the repair.
    """


@dataclass(frozen=True)
class QacoParams:
    n_ants: int = 6
    max_iter: int = 1000
    # Iterations without global-best improvement before mutation engages.
    stall_window: int = 50
    # Iterations without improvement before the search stops.
    convergence_window: int = 200
    pool_capacity: int = 10

    def __post_init__(self):
        if min(self.n_ants, self.max_iter, self.pool_capacity) < 1:
            raise ValueError("n_ants, max_iter and pool_capacity must be >= 1")
        for name in ("stall_window", "convergence_window"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class PoolEntry:
    tour: Tour
    bits: str
    length: float


@dataclass
class SolutionPool:
    """Bounded archive of the best feasible tours, ascending by length.

    ``add`` dedupes on the int code (``codes`` keeps them in entry order),
    raises ``EncodingMismatch`` unless ``bits`` is ``encode_tour(tour, len(tour))``,
    and clears ``code_cdfs`` whenever it changes the pool.
    """

    capacity: int = 10
    entries: list = field(default_factory=list, init=False)
    codes: list = field(default_factory=list, init=False)
    code_cdfs: dict = field(default_factory=dict, init=False, repr=False)
    cdfs: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {self.capacity}")

    def add(self, tour: Tour, bits: str, length: float) -> bool:
        code = _encode(tour.order)
        if len(tour) > MAX_CITIES or bits != format(code, f"0{2 * len(tour)}b"):
            raise EncodingMismatch(f"{bits!r} does not encode tour {tour.order}")
        entries, codes = self.entries, self.codes
        if code in codes:
            return False
        if len(entries) >= self.capacity:
            if length >= entries[-1].length:
                return False
            entries.pop()
            codes.pop()
        pos = bisect_right([e.length for e in entries], length)
        entries.insert(pos, PoolEntry(tour, bits, length))
        codes.insert(pos, code)
        self.code_cdfs.clear()
        return True


@dataclass
class QacoResult:
    tour: Tour
    length: float
    iterations: int
    history: list
    mutations: int
    repairs: int


def _encode(order) -> int:
    code = 0
    for city in order:
        code = (code << 2) | city
    return code


@functools.cache
def _decode_table(k: int) -> tuple:
    """The ``Tour`` of each of the 4^k codes of a k-city register, or None."""
    table = [None] * (1 << (2 * k))
    for perm in itertools.permutations(range(k)):
        table[_encode(perm)] = Tour(perm)
    return tuple(table)


def encode_tour(tour: Tour, k: int) -> str:
    """Concatenated 2-bit big-endian city indices, one pair per position."""
    if k > MAX_CITIES:
        raise TooManyCities(f"2-bit encoding holds at most {MAX_CITIES} cities")
    if len(tour.order) != k:
        raise LengthMismatch(f"tour of {len(tour.order)} cities, expected {k}")
    return format(_encode(tour.order), f"0{2 * k}b")


def decode_bits(bits: str, k: int):
    """Tour for a feasible 2k-bit measurement, else None (bits kept by caller)."""
    if len(bits) != 2 * k:
        raise LengthMismatch(f"expected {2 * k} bits, got {len(bits)}")
    # 2-bit fields cannot name more than MAX_CITIES distinct cities.
    return _decode_table(k)[int(bits, 2)] if k <= MAX_CITIES else None


def hamming(a: str, b: str) -> int:
    """Differing positions of two equal-length bitstrings.

    Both must consist of '0' and '1' only (ValueError otherwise); two empty
    strings are at distance 0.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"length mismatch: {len(a)} vs {len(b)}")
    return (int("0" + a, 2) ^ int("0" + b, 2)).bit_count()


def _repair_cdf(distances) -> list:
    """Cumulative pick probabilities p_i = (d_i * sum_j 1/d_j)^-1, pool order."""
    inv = 1.0 / np.array(distances, dtype=float)
    probs = inv / inv.sum()
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-12:
        raise RepairError(f"repair probabilities sum to {total!r} for distances {distances}")
    return np.cumsum(probs).tolist()


def _repair(code: int, pool: SolutionPool, iteration: int, k: int,
            rng: np.random.Generator | DrawReplay) -> int:
    """Code of the feasible tour that replaces the infeasible measurement ``code``.

    The ``_repair_cdf`` of ``code`` against ``pool.codes`` is cached in the
    pool per code (``code_cdfs``) and per distance tuple (``cdfs``).
    ``bisect_right`` is ``searchsorted(side="right")``.
    """
    codes = pool.codes
    if iteration <= RANDOM_FEASIBLE_WINDOW or not codes:
        return _encode(map(int, rng.permutation(k)))
    cdf = pool.code_cdfs.get(code)
    if cdf is None:
        d = tuple([(code ^ c).bit_count() for c in codes])
        cdf = pool.cdfs.get(d)
        if cdf is None:
            cdf = pool.cdfs[d] = _repair_cdf(d)
        pool.code_cdfs[code] = cdf
    pick = bisect_right(cdf, rng.random() * cdf[-1])
    return codes[min(pick, len(codes) - 1)]


def repair_infeasible(bits: str, pool: SolutionPool, iteration: int, k: int,
                      rng: np.random.Generator | DrawReplay) -> Tour:
    """Replace an infeasible measurement with a feasible tour.

    Up to iteration ``RANDOM_FEASIBLE_WINDOW`` (or while the pool is empty)
    the replacement is a uniformly random permutation.  Afterwards pool entry
    i is drawn with probability  p_i = (d_i * sum_j 1/d_j)^-1  where d_i is
    the Hamming distance between ``bits`` and the entry's encoding; an
    infeasible bitstring never equals a feasible encoding, so every d_i >= 1.
    Raises ``RepairError`` if the probabilities do not sum to 1 within 1e-12,
    ``TooManyCities`` for k > MAX_CITIES and ``LengthMismatch`` unless
    ``bits`` has 2k bits and every pooled tour k cities.
    """
    if k > MAX_CITIES:
        raise TooManyCities(f"2-bit encoding holds at most {MAX_CITIES} cities")
    if len(bits) != 2 * k or any(len(e.tour) != k for e in pool.entries):
        raise LengthMismatch(f"{bits!r} and every pooled tour must be of {k} cities")
    return _decode_table(k)[_repair(int(bits, 2), pool, iteration, k, rng)]


def rotation_update(thetas: list, x: int, b: int, worse: bool) -> list:
    """One lookup-table sweep of the register angles, one per qubit.

    ``x`` is the iteration best's code, ``b`` the global best's, with qubit
    0 as the most significant of ``len(thetas)`` bits; the table row is
    selected by the two bits and by whether the iteration best is worse.
    Starred rows flip the step's sign when sin(theta_i) * cos(theta_i) < 0
    so the rotation keeps pointing back toward the balanced angle region.
    Results are clamped to [``qsim.THETA_MIN``, ``qsim.THETA_MAX``].  Raises
    ``LengthMismatch`` when ``x`` or ``b`` has a bit at or above
    ``len(thetas)``.
    """
    shift = len(thetas)
    if (x | b) >> shift:
        raise LengthMismatch(f"codes {x:#b} and {b:#b} must fit in {shift} bits")
    table = ROTATION_TABLE
    new = []
    for theta in thetas:
        shift -= 1
        delta, starred = table[((x >> shift) & 1, (b >> shift) & 1, worse)]
        if starred and math.sin(theta) * math.cos(theta) < 0.0:
            delta = -delta
        theta += delta
        new.append(THETA_MAX if theta > THETA_MAX else THETA_MIN if theta < THETA_MIN else theta)
    return new


def maybe_mutate(code: int, n_bits: int, noise: NoiseSpec,
                 rng: np.random.Generator | DrawReplay) -> int:
    """Ancilla-gated one-bit flip of an int code of ``n_bits`` bits.

    A mutation angle is drawn uniformly from [0, pi/2] and loaded on the
    ancilla; if the measured ancilla reads 1, one uniformly chosen bit is
    flipped (the Pauli-X analog on the sampled path).  The caller applies
    the stall gate.  One ``rng.random(1 + draws_per_qubit(noise))`` call
    draws the angle, ``uniform(0, pi/2)`` as ``(pi/2) * random()`` (see
    ``draws.py``), and then the ancilla's measurement draws.  The ancilla's
    probability of reading 1 is ``measurement_probabilities`` of that one
    angle; without noise the ancilla reads 1 when its draw is below it, and
    under noise ``code_from_draws`` decides.  Only when the ancilla reads 1
    does ``rng.integers(n_bits)`` pick the bit to flip.  ``rng`` is a numpy
    ``Generator`` or a ``draws.DrawReplay``; the result is an ``int``.
    """
    m = draws_per_qubit(noise)
    draws = rng.random(1 + m)
    half = (math.pi / 2.0) * draws[0] / 2.0
    a0, a1 = math.cos(half), math.sin(half)
    c2, s2 = a0 * a0, a1 * a1
    p1 = s2 / (c2 + s2)
    if m == 1:
        fires = draws[1] < p1
    else:
        fires = code_from_draws(draws[1:], [p1], [c2 / (s2 + c2)], noise)
    if fires:
        code ^= 1 << (n_bits - 1 - int(rng.integers(n_bits)))
    return code


def qaco_solve(inst: Instance, indices, params: QacoParams = QacoParams(),
               noise: NoiseSpec = NO_NOISE, metric: MetricMode = MetricMode.CANONICAL,
               seed=0, D: np.ndarray = None) -> QacoResult:
    """Solve a <= 4-city subproblem with the quantum-sampled colony.

    The per-iteration loop: sample one measurement per ant, decode, repair
    infeasible samples, evaluate, feed the pool and the global best, then
    (when stalled) pass the representative measurements through the mutation
    gate and finally rotate the register toward the global best using the
    iteration best.  Stops at max_iter or once the global best has not
    improved for convergence_window iterations.  The returned tour is in
    local 0..k-1 positions relative to ``indices``.  ``seed`` is anything
    ``np.random.default_rng`` takes except a generator, which raises
    ``SharedGenerator``.
    """
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise SharedGenerator(f"seed must not be a generator, got {type(seed).__name__}")
    indices = list(indices)
    k = len(indices)
    if k < 2:
        raise TooFewCities("need at least 2 cities")
    if k > MAX_CITIES:
        raise TooManyCities(f"leaf solver handles at most {MAX_CITIES} cities")
    if D is None:
        D = distance_matrix(inst, metric, indices)

    if k == 2:
        tour = Tour((0, 1))
        length = cycle_length(D, tour.order)
        return QacoResult(tour, length, 0, [length], 0, 0)

    rng = DrawReplay(seed)
    n_bits = 2 * k
    tours = _decode_table(k)
    lengths = [None if t is None else cycle_length(D, t.order) for t in tours]
    thetas = [math.pi / 2.0] * n_bits
    pool = SolutionPool(params.pool_capacity)
    random = rng.random
    sample_draws = n_bits * draws_per_qubit(noise)
    best_code = None
    best_len = math.inf
    stagnant = 0
    history = []
    mutations = 0
    repairs = 0
    iterations = 0

    for it in range(1, params.max_iter + 1):
        iterations = it
        p1, q1 = measurement_probabilities(thetas)
        iter_len, iter_idx = math.inf, 0
        codes = []
        for ant in range(params.n_ants):
            code = code_from_draws(random(sample_draws), p1, q1, noise)
            if tours[code] is None:
                code = _repair(code, pool, it, k, rng)
                repairs += 1
            length = lengths[code]
            if code not in pool.codes:  # else pool.add refuses it; skip the format
                pool.add(tours[code], format(code, f"0{n_bits}b"), length)
            codes.append(code)
            if length < iter_len:
                iter_len, iter_idx = length, ant

        if iter_len < best_len:
            best_code, best_len = codes[iter_idx], iter_len
            stagnant = 0
        else:
            stagnant += 1

        if stagnant >= params.stall_window:
            for ant in range(params.n_ants):
                mutated = maybe_mutate(codes[ant], n_bits, noise, rng)
                if mutated != codes[ant]:
                    mutations += 1
                    codes[ant] = mutated

        thetas = rotation_update(thetas, codes[iter_idx], best_code, iter_len > best_len)
        history.append(best_len)
        if stagnant >= params.convergence_window:
            break

    best_tour = None if best_code is None else tours[best_code]
    return QacoResult(best_tour, float(best_len), iterations, history, mutations, repairs)
