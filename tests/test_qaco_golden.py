"""Golden test: the QACO leaf solver's integer core against the seed's
bitstring implementation.

The reference section below is the string implementation the integer core
replaced, copied verbatim: the angle bounds, ``clamp_angle``,
``noisy_sample`` and ``sample_ancilla`` from ``qsim``, and the repair
window, the rotation table, the register, the pool, the string helpers and
the ``qaco_solve`` loop from ``qaco``.  The integer core keeps every random draw and every float
operation of the reference, so every ``QacoResult`` field must be equal, not
merely close.  The operator oracles at the end hold the live int-code
``rotation_update`` and ``maybe_mutate`` to the reference string forms one
call at a time, and the live ``SolutionPool``, which also keeps its entries'
int codes, to the reference pool one ``add`` at a time.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacotsp import qaco
from qacotsp.qaco import (
    MAX_CITIES,
    LengthMismatch,
    QacoParams,
    QacoResult,
    TooFewCities,
    TooManyCities,
)
from qacotsp.qsim import NO_NOISE, AngleOutOfRange, NoiseKind, NoiseSpec
from qacotsp.tsplib import (
    Instance,
    MetricMode,
    Tour,
    distance_matrix,
    gen_random_instance,
    load_instance,
    sub_distance_matrix,
)

# ---------------------------------------------------------------------------
# reference: the seed's bitstring implementation, verbatim

THETA_MIN = 0.01 * math.pi
THETA_MAX = 0.99 * math.pi

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


def clamp_angle(theta: float) -> float:
    """Clamp a pheromone angle into [THETA_MIN, THETA_MAX]."""
    return min(THETA_MAX, max(THETA_MIN, theta))


def noisy_sample(thetas, noise: NoiseSpec, rng: np.random.Generator) -> str:
    """One measurement of the path register prepared as a product of Ry gates.

    Noise is sampled as Monte Carlo trajectories at the injection points
    listed in the module docstring.  The register is a product state with
    strictly per-qubit noise events, so each qubit is simulated as its own
    2-amplitude vector; the sampled distribution is identical to evolving the
    full 2^n statevector trajectory.

    Draw order (fixed for reproducibility): the after-gate noise arrays, then
    the pre-measurement flip array (bit flip only), then the measurement
    array, each indexed by qubit.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas)):
        raise AngleOutOfRange("angles must be finite")
    n = len(thetas)
    a0 = np.cos(thetas / 2.0)
    a1 = np.sin(thetas / 2.0)

    if noise.kind is NoiseKind.BIT_FLIP and noise.rate > 0.0:
        flip_gate = rng.random(n) < noise.rate
        a0, a1 = np.where(flip_gate, a1, a0), np.where(flip_gate, a0, a1)
        flip_meas = rng.random(n) < noise.rate
        a0, a1 = np.where(flip_meas, a1, a0), np.where(flip_meas, a0, a1)
    elif noise.kind is NoiseKind.THERMAL_RELAXATION and noise.rate > 0.0:
        reset = rng.random(n) < noise.rate
        a0 = np.where(reset, 1.0, a0)
        a1 = np.where(reset, 0.0, a1)
        dephase = rng.random(n) < noise.rate / 2.0
        a1 = np.where(dephase, -a1, a1)

    p1 = a1 ** 2 / (a0 ** 2 + a1 ** 2)
    bits = rng.random(n) < p1
    return "".join("1" if b else "0" for b in bits)


def sample_ancilla(theta: float, noise: NoiseSpec, rng: np.random.Generator) -> int:
    """Measure the mutation-control ancilla prepared as Ry(theta)|0>.

    Returns 1 with probability sin^2(theta/2) when noiseless; with noise
    enabled the same per-qubit trajectory rules as noisy_sample apply.
    """
    if not (0.0 <= theta <= math.pi / 2.0 + 1e-12):
        raise AngleOutOfRange(f"ancilla angle must be in [0, pi/2], got {theta}")
    return int(noisy_sample([theta], noise, rng)[0])


@dataclass
class PheromoneRegister:
    """Rotation angles, one per qubit (2 per tour position), clamp-bounded."""

    thetas: np.ndarray

    @classmethod
    def uniform(cls, k_cities: int) -> "PheromoneRegister":
        return cls(np.full(2 * k_cities, math.pi / 2.0))


@dataclass
class PoolEntry:
    tour: Tour
    bits: str
    length: float


@dataclass
class SolutionPool:
    """Bounded archive of the best feasible tours, ascending by length."""

    capacity: int = 10
    entries: list = field(default_factory=list)

    def add(self, tour: Tour, bits: str, length: float) -> bool:
        if any(e.bits == bits for e in self.entries):
            return False
        if len(self.entries) >= self.capacity:
            if length >= self.entries[-1].length:
                return False
            self.entries.pop()
        entry = PoolEntry(tour, bits, length)
        pos = 0
        while pos < len(self.entries) and self.entries[pos].length <= length:
            pos += 1
        self.entries.insert(pos, entry)
        return True


def encode_tour(tour: Tour, k: int) -> str:
    """Concatenated 2-bit big-endian city indices, one pair per position."""
    if k > MAX_CITIES:
        raise TooManyCities(f"2-bit encoding holds at most {MAX_CITIES} cities")
    if len(tour.order) != k:
        raise LengthMismatch(f"tour of {len(tour.order)} cities, expected {k}")
    return "".join(format(city, "02b") for city in tour.order)


def decode_bits(bits: str, k: int):
    """Tour for a feasible 2k-bit measurement, else None (bits kept by caller)."""
    if len(bits) != 2 * k:
        raise LengthMismatch(f"expected {2 * k} bits, got {len(bits)}")
    cities = [int(bits[2 * i: 2 * i + 2], 2) for i in range(k)]
    if any(c >= k for c in cities) or len(set(cities)) != k:
        return None
    return Tour(tuple(cities))


def hamming(a: str, b: str) -> int:
    if len(a) != len(b):
        raise LengthMismatch(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(ca != cb for ca, cb in zip(a, b))


def repair_infeasible(bits: str, pool: SolutionPool, iteration: int, k: int,
                      rng: np.random.Generator,
                      window: int = RANDOM_FEASIBLE_WINDOW) -> Tour:
    """Replace an infeasible measurement with a feasible tour.

    During the first ``window`` iterations (or while the pool is empty) the
    replacement is a uniformly random permutation.  Afterwards pool entry i
    is drawn with probability  p_i = (d_i * sum_j 1/d_j)^-1  where d_i is the
    Hamming distance between ``bits`` and the entry's encoding; an infeasible
    bitstring never equals a feasible encoding, so every d_i >= 1.
    """
    if iteration <= window or not pool.entries:
        return Tour(tuple(int(v) for v in rng.permutation(k)))
    d = np.array([hamming(bits, e.bits) for e in pool.entries], dtype=float)
    inv = 1.0 / d
    probs = inv / inv.sum()
    assert abs(probs.sum() - 1.0) <= 1e-12
    cdf = np.cumsum(probs)
    pick = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return pool.entries[min(pick, len(pool.entries) - 1)].tour


def rotation_update(reg: PheromoneRegister, x: str, b: str, fx: float, fb: float,
                    table=None) -> PheromoneRegister:
    """One lookup-table sweep of the register angles.

    ``x`` is the iteration-best bitstring, ``b`` the global-best one; the
    table row is selected by the two bits and by whether the iteration best
    is worse (fx > fb).  Starred rows flip the step's sign when
    sin(theta_i) * cos(theta_i) < 0 so the rotation keeps pointing back
    toward the balanced angle region.  Results are clamped to the sampling
    bounds.
    """
    if table is None:
        table = ROTATION_TABLE
    if len(x) != len(reg.thetas) or len(b) != len(reg.thetas):
        raise LengthMismatch("bitstring length must equal register size")
    worse = fx > fb
    new = np.empty_like(reg.thetas)
    for i, theta in enumerate(reg.thetas):
        delta, starred = table[(int(x[i]), int(b[i]), worse)]
        if starred and math.sin(theta) * math.cos(theta) < 0.0:
            delta = -delta
        new[i] = clamp_angle(theta + delta)
    return PheromoneRegister(new)


def maybe_mutate(bits: str, stagnant_iters: int, params: QacoParams,
                 noise: NoiseSpec, rng: np.random.Generator) -> str:
    """Ancilla-gated one-bit flip, active only after a stall.

    A mutation angle is drawn uniformly from [0, pi/2] and loaded on the
    ancilla; if the measured ancilla reads 1, one uniformly chosen bit is
    flipped (the Pauli-X analog on the sampled path).
    """
    if stagnant_iters < params.stall_window:
        return bits
    theta_m = rng.uniform(0.0, math.pi / 2.0)
    if sample_ancilla(theta_m, noise, rng) == 1:
        pos = int(rng.integers(len(bits)))
        bits = bits[:pos] + ("0" if bits[pos] == "1" else "1") + bits[pos + 1:]
    return bits


def _cycle_len(D, order) -> float:
    total = 0.0
    for a, b in zip(order, order[1:] + order[:1]):
        total += D[a, b]
    return float(total)


def qaco_solve(inst: Instance, indices, params: QacoParams = QacoParams(),
               noise: NoiseSpec = NO_NOISE, metric: MetricMode = MetricMode.CANONICAL,
               seed=0, D: np.ndarray = None) -> QacoResult:
    """Solve a <= 4-city subproblem with the quantum-sampled colony.

    The per-iteration loop: sample one bitstring per ant, decode, repair
    infeasible samples, evaluate, feed the pool and the global best, then
    (when stalled) pass the representative bitstrings through the mutation
    gate and finally rotate the register toward the global best using the
    iteration best.  Stops at max_iter or once the global best has not
    improved for convergence_window iterations.  The returned tour is in
    local 0..k-1 positions relative to ``indices``.
    """
    indices = list(indices)
    k = len(indices)
    if k < 2:
        raise TooFewCities("need at least 2 cities")
    if k > MAX_CITIES:
        raise TooManyCities(f"leaf solver handles at most {MAX_CITIES} cities")
    if D is None:
        D = sub_distance_matrix(distance_matrix(inst, metric), indices)

    if k == 2:
        tour = Tour((0, 1))
        length = _cycle_len(D, tour.order)
        return QacoResult(tour, length, 0, [length], 0, 0)

    rng = np.random.default_rng(seed)
    register = PheromoneRegister.uniform(k)
    pool = SolutionPool(params.pool_capacity)
    best_tour = None
    best_len = math.inf
    best_bits = None
    stagnant = 0
    history = []
    mutations = 0
    repairs = 0
    iterations = 0

    for it in range(1, params.max_iter + 1):
        iterations = it
        iter_tour, iter_len, iter_idx = None, math.inf, 0
        ant_bits = []
        for ant in range(params.n_ants):
            sampled = noisy_sample(register.thetas, noise, rng)
            tour = decode_bits(sampled, k)
            if tour is None:
                tour = repair_infeasible(sampled, pool, it, k, rng)
                repairs += 1
            length = _cycle_len(D, tour.order)
            bits = encode_tour(tour, k)
            pool.add(tour, bits, length)
            ant_bits.append(bits)
            if length < iter_len:
                iter_tour, iter_len, iter_idx = tour, length, ant

        if iter_len < best_len:
            best_tour, best_len = iter_tour, iter_len
            best_bits = ant_bits[iter_idx]
            stagnant = 0
        else:
            stagnant += 1

        for ant in range(params.n_ants):
            mutated = maybe_mutate(ant_bits[ant], stagnant, params, noise, rng)
            if mutated != ant_bits[ant]:
                mutations += 1
                ant_bits[ant] = mutated

        register = rotation_update(
            register, ant_bits[iter_idx], best_bits, iter_len, best_len
        )
        history.append(best_len)
        if stagnant >= params.convergence_window:
            break

    return QacoResult(best_tour, float(best_len), iterations, history, mutations, repairs)


# ---------------------------------------------------------------------------
# golden comparisons

PLAIN = MetricMode.PLAIN
NOISES = [NoiseSpec(kind, rate)
          for kind in (NoiseKind.BIT_FLIP, NoiseKind.THERMAL_RELAXATION)
          for rate in (0.02, 0.1)]


def assert_same_solves(solves):
    """``solves``: (instance, indices, keyword arguments) triples."""
    for inst, indices, kwargs in solves:
        expected = qaco_solve(inst, indices, **kwargs)
        assert qaco.qaco_solve(inst, indices, **kwargs) == expected, (inst.name, kwargs)


def test_criterion_one_instances_noiseless():
    assert_same_solves(
        (gen_random_instance(4, 5000 + i, 1000.0), range(4), dict(seed=i, metric=PLAIN))
        for i in range(100))


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: f"{n.kind.value}-{n.rate:g}")
def test_noisy_instances(noise):
    assert_same_solves(
        (gen_random_instance(4, 6000 + i, 1000.0), range(4),
         dict(noise=noise, seed=i, metric=PLAIN))
        for i in range(30))


def test_three_city_leaves():
    noises = [NO_NOISE, NOISES[1], NOISES[3]]
    assert_same_solves(
        (gen_random_instance(3, 7000 + i, 1000.0), range(3),
         dict(noise=noises[i % 3], seed=i, metric=PLAIN))
        for i in range(30))


def test_non_default_params():
    params = QacoParams(n_ants=4, max_iter=300, stall_window=5,
                        convergence_window=60, pool_capacity=3)
    assert_same_solves(
        (gen_random_instance(4, 8000 + i, 1000.0), range(4),
         dict(params=params, noise=NOISES[i % 4] if i % 2 else NO_NOISE,
              seed=[i, 1], metric=PLAIN))
        for i in range(20))


def test_subset_of_a_tsplib_instance(data_dir):
    inst = load_instance(data_dir / "eil51.tsp")
    assert_same_solves(
        (inst, indices, dict(seed=seed))
        for seed, indices in enumerate([[3, 17, 22, 40], [0, 1, 2, 3], [50, 7, 9],
                                        [10, 44]]))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_int_tables_match_string_helpers(k):
    n_codes = 4 ** k
    strings = [format(code, f"0{2 * k}b") for code in range(n_codes)]
    table = qaco._decode_table(k)
    assert len(table) == n_codes
    for code, bits in enumerate(strings):
        tour = decode_bits(bits, k)
        assert table[code] == tour
        assert qaco.decode_bits(bits, k) == tour
        if tour is not None:
            assert qaco._encode(tour.order) == code
            assert qaco.encode_tour(tour, k) == encode_tour(tour, k) == bits
    assert sum(t is not None for t in table) == math.factorial(k)
    for a in range(n_codes):
        for b in range(n_codes):
            d = hamming(strings[a], strings[b])
            assert (a ^ b).bit_count() == d
            assert qaco.hamming(strings[a], strings[b]) == d


@settings(max_examples=10, deadline=None, database=None)
@given(inst_seed=st.integers(0, 2 ** 31 - 1), solver_seed=st.integers(0, 2 ** 63 - 1),
       kind=st.sampled_from(list(NoiseKind)), rate=st.floats(0.0, 0.2))
def test_property_integer_core_equals_reference(inst_seed, solver_seed, kind, rate):
    inst = gen_random_instance(4, inst_seed, 1000.0)
    assert_same_solves([(inst, range(4),
                         dict(noise=NoiseSpec(kind, rate), seed=solver_seed, metric=PLAIN))])


# ---------------------------------------------------------------------------
# edge cases of the iteration: cache resets, a gate on every iteration,
# saturated noise and tied cycle lengths

EDGE_NOISES = [NO_NOISE, NOISES[1], NOISES[3]]


def test_pool_of_one():
    # Every accepted tour replaces the only pool entry.
    params = QacoParams(pool_capacity=1)
    assert_same_solves(
        (gen_random_instance(4, 9000 + i, 1000.0), range(4),
         dict(params=params, noise=EDGE_NOISES[i % 3], seed=i, metric=PLAIN))
        for i in range(15))


def test_stall_window_of_one():
    # The mutation gate runs on every iteration that does not improve.
    params = QacoParams(stall_window=1)
    assert_same_solves(
        (gen_random_instance(4, 9100 + i, 1000.0), range(4),
         dict(params=params, noise=EDGE_NOISES[i % 3], seed=i, metric=PLAIN))
        for i in range(15))


def test_pool_of_one_and_stall_window_of_one():
    params = QacoParams(stall_window=1, pool_capacity=1)
    assert_same_solves(
        (gen_random_instance(k, 9200 + i, 1000.0), range(k),
         dict(params=params, noise=EDGE_NOISES[i % 3], seed=i, metric=PLAIN))
        for i in range(12) for k in (3, 4))


@pytest.mark.parametrize("kind", [NoiseKind.BIT_FLIP, NoiseKind.THERMAL_RELAXATION],
                         ids=lambda kind: kind.value)
def test_noise_rate_one(kind):
    # Thermal noise at rate 1 resets every qubit, so every sample is repaired.
    noise = NoiseSpec(kind, 1.0)
    assert_same_solves(
        (gen_random_instance(k, 9300 + i, 1000.0), range(k),
         dict(noise=noise, seed=i, metric=PLAIN))
        for i in range(8) for k in (3, 4))


@pytest.mark.parametrize("coords", [
    [(0.0, 0.0), (0.0, 0.0), (3.0, 4.0), (3.0, 4.0)],
    [(1.0, 1.0)] * 4,
    [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0)],
], ids=["two-pairs", "one-point", "square"])
def test_tied_cycle_lengths(coords):
    inst = Instance("ties", 4, "EUC_2D", np.array(coords))
    assert_same_solves(
        (inst, range(4), dict(noise=EDGE_NOISES[seed % 3], seed=seed, metric=PLAIN))
        for seed in range(9))


# ---------------------------------------------------------------------------
# operator oracles: the live int-code operators against the string reference,
# converted at this boundary (code <-> bitstring, angle list <-> register)

GATE_NOISES = [NO_NOISE, NoiseSpec(NoiseKind.BIT_FLIP, 0.0)] + NOISES + [
    NoiseSpec(kind, 1.0) for kind in (NoiseKind.BIT_FLIP, NoiseKind.THERMAL_RELAXATION)]


def reference_rotation(thetas: list, x: int, b: int, worse: bool) -> list:
    n = len(thetas)
    reg = rotation_update(PheromoneRegister(np.array(thetas, dtype=float)),
                          format(x, f"0{n}b"), format(b, f"0{n}b"), float(worse), 0.0)
    return reg.thetas.tolist()


def reference_mutation(code: int, n_bits: int, noise: NoiseSpec, rng) -> int:
    # A zero stall window opens the reference's gate at 0 stagnant iterations.
    bits = maybe_mutate(format(code, f"0{n_bits}b"), 0, QacoParams(stall_window=0), noise, rng)
    return int(bits, 2)


def test_rotation_update_matches_reference():
    rng = np.random.default_rng(21)
    near = [THETA_MIN, THETA_MAX, 0.0, math.pi, math.pi / 2.0, -0.3, 4.0,
            THETA_MIN + 0.005 * math.pi, THETA_MAX - 0.005 * math.pi,
            np.nextafter(math.pi / 2.0, 0.0), np.nextafter(math.pi / 2.0, 4.0)]
    for trial in range(400):
        n = int(rng.integers(1, 9))
        thetas = [float(rng.choice(near)) if rng.random() < 0.5
                  else float(rng.uniform(-0.1, math.pi + 0.1)) for _ in range(n)]
        for _ in range(6):  # a walk, so clamped angles are rotated again
            x, b = (int(v) for v in rng.integers(0, 1 << n, size=2))
            worse = bool(rng.random() < 0.5)
            expected = reference_rotation(thetas, x, b, worse)
            thetas = qaco.rotation_update(thetas, x, b, worse)
            assert thetas == expected, (trial, x, b, worse)
        assert all(THETA_MIN <= t <= THETA_MAX for t in thetas)


@pytest.mark.parametrize("noise", GATE_NOISES, ids=lambda n: f"{n.kind.value}-{n.rate:g}")
def test_maybe_mutate_matches_reference(noise):
    codes = np.random.default_rng(22)
    a, b = np.random.default_rng(23), np.random.default_rng(23)
    flips = 0
    for _ in range(600):
        n_bits = int(codes.choice([4, 6, 8]))
        code = int(codes.integers(0, 1 << n_bits))
        mutated = qaco.maybe_mutate(code, n_bits, noise, a)
        assert type(mutated) is int
        assert mutated == reference_mutation(code, n_bits, noise, b), (code, n_bits)
        flips += mutated != code
    assert a.random() == b.random()  # the same number of draws was taken
    assert flips > 0 or (noise.kind is NoiseKind.THERMAL_RELAXATION and noise.rate == 1.0)


# ---------------------------------------------------------------------------
# pool oracle: the live pool against the reference one, add by add, over
# tours of 2 to 4 cities, repeated tours and tied lengths

POOL_TOURS = [Tour(p) for k in (2, 3, 4) for p in itertools.permutations(range(k))]


@settings(max_examples=200, deadline=None, database=None)
@given(capacity=st.integers(1, 10),
       adds=st.lists(st.tuples(st.sampled_from(POOL_TOURS),
                               st.sampled_from([0.5, 1.0, 1.0 + 2 ** -52, 2.0, 3.0])),
                     max_size=40))
def test_property_pool_matches_reference(capacity, adds):
    live, frozen = qaco.SolutionPool(capacity), SolutionPool(capacity)
    for tour, length in adds:
        bits = encode_tour(tour, len(tour))
        assert live.add(tour, bits, length) == frozen.add(tour, bits, length)
        assert ([(e.tour, e.bits, e.length) for e in live.entries]
                == [(e.tour, e.bits, e.length) for e in frozen.entries])
        assert live.codes == [int(e.bits, 2) for e in live.entries]
