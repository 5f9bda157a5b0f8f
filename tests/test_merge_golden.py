"""Golden test for the cycle merge: ``_merge_two_cycles`` against a frozen reference.

``reference_merge`` below is the merge as it stood with a separate branch
for a one-city cycle (and a swap of the arguments when only the second cycle
has one city).  The merge under test must return the same merged cycle and
the same added length, bit for bit, on disjoint cycle pairs of every size
from 1 to 6 on each side, including (1, 1), (1, k) and (k, 1), and on
every merge a hybrid solve of 1000 random cities makes, where cycles grow
to hundreds of cities.

Merges run on instances from three sources, and the reference reads their
distance matrices:

* subsets of every bundled dataset, under both metrics;
* random instances in a 10-unit box under the canonical (rounded) metric,
  where many candidate exchanges tie;
* an integer lattice under the plain metric, whose distances tie exactly.
"""

import itertools

import numpy as np
import pytest

from qacotsp import hybrid
from qacotsp.bench import resolve_instance
from qacotsp.hybrid import HybridConfig, LeafSolver, Refinement, _merge_two_cycles, solve_hybrid
from qacotsp.tsplib import (
    Distances,
    Instance,
    MetricMode,
    distance_matrix,
    gen_random_instance,
    load_instance,
)

SIZES = range(1, 7)
TRIALS = 3


def reference_merge(a: list, b: list, D: np.ndarray):
    """Cheapest single 2-edge exchange joining two disjoint cycles.

    Every pair of (edge of a, edge of b) is tried in both reconnection
    orientations; returns (merged cycle, added length).
    """
    if len(a) == 1:
        best, best_add = None, np.inf
        for i in range(len(b)):
            nxt = b[(i + 1) % len(b)]
            add = D[b[i], a[0]] + D[a[0], nxt] - (D[b[i], nxt] if len(b) > 1 else 0.0)
            if add < best_add:
                best, best_add = b[: i + 1] + [a[0]] + b[i + 1:], add
        return best, float(best_add)
    if len(b) == 1:
        return reference_merge(b, a, D)

    la, lb = len(a), len(b)
    best, best_add = None, np.inf
    for i in range(la):
        a1, a2 = a[i], a[(i + 1) % la]
        for j in range(lb):
            b1, b2 = b[j], b[(j + 1) % lb]
            removed = D[a1, a2] + D[b1, b2]
            # forward: ... a1 -> b2 ... b1 -> a2 ...
            add_f = D[a1, b2] + D[b1, a2] - removed
            if add_f < best_add:
                rolled = b[j + 1:] + b[: j + 1]
                best, best_add = a[: i + 1] + rolled + a[i + 1:], add_f
            # reversed: ... a1 -> b1 ... b2 -> a2 ...
            add_r = D[a1, b1] + D[b2, a2] - removed
            if add_r < best_add:
                rolled = b[j + 1:] + b[: j + 1]
                best, best_add = a[: i + 1] + rolled[::-1] + a[i + 1:], add_r
    return best, float(best_add)


def lattice(side: int) -> Instance:
    coords = [(float(x), float(y)) for x in range(side) for y in range(side)]
    return Instance(f"lattice{side}", side * side, "EUC_2D", coords)


def _instances(data_dir):
    for path in sorted(data_dir.glob("*.tsp")):
        inst = load_instance(str(path))
        for metric in (MetricMode.CANONICAL, MetricMode.PLAIN):
            yield f"{inst.name}-{metric.value}", inst, metric
    for seed in range(3):
        inst = gen_random_instance(24, seed, 10.0)
        yield inst.name, inst, MetricMode.CANONICAL
    yield "lattice4", lattice(4), MetricMode.PLAIN


def _cycle_pairs(n: int, rng):
    """Disjoint random cycle pairs of every (len a, len b) in ``SIZES`` x ``SIZES``."""
    for la, lb in itertools.product(SIZES, SIZES):
        for _ in range(TRIALS):
            cities = [int(c) for c in rng.permutation(n)[: la + lb]]
            yield cities[:la], cities[la:]


def test_merge_matches_the_reference_on_every_size_pair(data_dir):
    merges = 0
    for name, inst, metric in _instances(data_dir):
        D = distance_matrix(inst, metric)
        rng = np.random.default_rng(len(D))
        for a, b in _cycle_pairs(len(D), rng):
            merged, added = _merge_two_cycles(list(a), list(b), Distances(inst, metric))
            want, want_added = reference_merge(list(a), list(b), D)
            assert (merged, added.hex()) == (want, want_added.hex()), (name, a, b)
            merges += 1
    assert merges == 16 * len(SIZES) ** 2 * TRIALS


LATTICE_TIES = [([3], [7]), ([0], [1, 2, 3]), ([1, 2, 3], [0]), ([5], [0, 1, 2, 4, 6, 8]),
                ([0, 1, 2, 5], [3, 4, 6, 7, 8])]


@pytest.mark.parametrize("a, b", LATTICE_TIES[:4])
def test_one_city_cycles_on_lattice_ties(a, b):
    # on a lattice many one-city insertions cost the same
    D = distance_matrix(lattice(3), MetricMode.PLAIN)
    merged, added = _merge_two_cycles(list(a), list(b), Distances(lattice(3), MetricMode.PLAIN))
    want, want_added = reference_merge(list(a), list(b), D)
    assert (merged, added.hex()) == (want, want_added.hex())


def merges_of_a_1000_city_solve(metric, monkeypatch):
    """Every merge of a brute-force-leaf solve of 1000 random cities, checked
    against the reference; returns the (len a, len b) of each."""
    calls = []

    def recording_merge(a, b, dist):
        inputs = (list(a), list(b))
        merged, added = _merge_two_cycles(a, b, dist)
        calls.append((*inputs, merged, added))
        return merged, added

    monkeypatch.setattr(hybrid, "_merge_two_cycles", recording_merge)
    inst = resolve_instance("random:1000:2024")
    config = HybridConfig(leaf_solver=LeafSolver.BRUTE_FORCE, refinement=Refinement.NONE,
                          metric=metric)
    solve_hybrid(inst, config)
    D = distance_matrix(inst, metric)
    assert len(calls) == 351
    for a, b, merged, added in calls:
        want, want_added = reference_merge(a, b, D)
        assert (merged, added.hex()) == (want, want_added.hex()), (len(a), len(b))
    return [(len(a), len(b)) for a, b, _, _ in calls]


@pytest.mark.parametrize("metric", [MetricMode.CANONICAL, MetricMode.PLAIN])
def test_every_merge_of_a_1000_city_solve(metric, monkeypatch):
    # The tree walk's own merges: ~190 stitches of up to four cycles, up to
    # the root's, whose cycles hold several hundred cities each.
    sizes = merges_of_a_1000_city_solve(metric, monkeypatch)
    assert max(min(la, lb) for la, lb in sizes) > 200


@pytest.mark.parametrize("block", [1, 3000], ids=["one-row", "split-root"])
def test_merge_blocks_keep_the_first_minimum(block, monkeypatch):
    # The merge computes its distance block a few rows of ``a`` at a time;
    # a later block must replace the best only with a strictly lower cost.
    monkeypatch.setattr(hybrid, "MERGE_BLOCK", block)
    D = distance_matrix(lattice(3), MetricMode.PLAIN)
    for a, b in LATTICE_TIES:
        merged, added = _merge_two_cycles(list(a), list(b),
                                          Distances(lattice(3), MetricMode.PLAIN))
        want, want_added = reference_merge(list(a), list(b), D)
        assert (merged, added.hex()) == (want, want_added.hex()), (a, b)
    sizes = merges_of_a_1000_city_solve(MetricMode.CANONICAL, monkeypatch)
    # the root's merges take many blocks each
    assert max(la // max(1, block // (lb + 1)) for la, lb in sizes) >= 50
