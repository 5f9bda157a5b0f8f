import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qacotsp import hybrid, tsplib
from qacotsp.bench import resolve_instance
from qacotsp.cluster import ClusterTree, build_cluster_tree
from qacotsp.hybrid import (
    HybridConfig,
    InvariantError,
    LeafSolver,
    Refinement,
    brute_force_order,
    order_siblings,
    solve_hybrid,
    stitch,
    two_opt,
)
from qacotsp.tsplib import (
    Distances,
    Instance,
    MetricMode,
    NonFiniteDistance,
    Tour,
    distance_matrix,
    gen_random_instance,
    load_instance,
    tour_length,
    validate_tour,
)


def held_karp(D):
    """Exact cycle optimum, bitmask DP vectorized over end nodes."""
    n = D.shape[0]
    size = 1 << n
    dp = np.full((size, n), np.inf)
    dp[1, 0] = 0.0
    for mask in range(1, size):
        if not mask & 1:
            continue
        row = dp[mask]
        ends = np.nonzero(np.isfinite(row))[0]
        if ends.size == 0:
            continue
        for nxt in range(1, n):
            if mask >> nxt & 1:
                continue
            cand = row[ends] + D[ends, nxt]
            best = cand.min()
            nm = mask | (1 << nxt)
            if best < dp[nm, nxt]:
                dp[nm, nxt] = best
    full = size - 1
    return float(min(dp[full, j] + D[j, 0] for j in range(1, n)))


def quad_grid_instance():
    corners = [(0.0, 0.0), (1000.0, 0.0), (1000.0, 1000.0), (0.0, 1000.0)]
    offsets = [(0.0, 0.0), (7.0, 0.0), (7.0, 7.0), (0.0, 7.0)]
    coords = [(cx + ox, cy + oy) for cx, cy in corners for ox, oy in offsets]
    return Instance("quads", 16, "EUC_2D", np.array(coords))


# ---------------------------------------------------------------------------
# sibling ordering


def test_order_siblings_trivial_sizes():
    assert order_siblings([(0.0, 0.0)]) == [0]
    assert order_siblings([(0.0, 0.0), (5.0, 5.0)]) == [0, 1]


def test_order_siblings_square_perimeter():
    pts = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
    ordering = order_siblings(pts)
    # perimeter order: consecutive centroids always adjacent corners
    for idx in range(4):
        a, b = pts[ordering[idx]], pts[ordering[(idx + 1) % 4]]
        assert math.dist(a, b) == pytest.approx(10.0)


def test_order_siblings_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        pts = [tuple(p) for p in rng.uniform(0, 100, size=(4, 2))]
        ordering = order_siblings(pts)
        length = sum(math.dist(pts[ordering[i]], pts[ordering[(i + 1) % 4]])
                     for i in range(4))
        best = min(
            sum(math.dist(pts[p[i]], pts[p[(i + 1) % 4]]) for i in range(4))
            for p in itertools.permutations(range(4))
        )
        assert length == pytest.approx(best)


# ---------------------------------------------------------------------------
# stitching


def pair_instance():
    # two far-apart pairs
    coords = np.array([[0.0, 0.0], [0.0, 2.0], [100.0, 0.0], [100.0, 2.0]])
    return Instance("pairs", 4, "EUC_2D", coords)


def test_stitch_two_pairs_best_four_cycle():
    inst = pair_instance()
    D = distance_matrix(inst, MetricMode.PLAIN)
    cycle = stitch([[0, 1], [2, 3]], Distances(inst, MetricMode.PLAIN))
    assert validate_tour(cycle, 4)
    length = tour_length(inst, Tour(tuple(cycle)), MetricMode.PLAIN)
    # oracle: enumerate every 4-cycle
    best = min(
        sum(D[c[i], c[(i + 1) % 4]] for i in range(4))
        for c in itertools.permutations(range(4))
    )
    assert length == pytest.approx(best)


def test_stitch_single_subtour_unchanged():
    assert stitch([[0, 2, 1, 3]], Distances(pair_instance(), MetricMode.PLAIN)) == [0, 2, 1, 3]


def test_stitch_pair_merge_is_locally_optimal():
    # merged pair never exceeds any enumerated 2-edge reconnection
    rng = np.random.default_rng(1)
    for trial in range(20):
        inst = gen_random_instance(8, 300 + trial, 100.0)
        D = distance_matrix(inst, MetricMode.PLAIN)
        a, b = [0, 1, 2, 3], [4, 5, 6, 7]
        cyc_a = [a[p] for p in brute_force_order(D[np.ix_(a, a)]).order]
        cyc_b = [b[p] for p in brute_force_order(D[np.ix_(b, b)]).order]
        cycle = stitch([cyc_a, cyc_b], Distances(inst, MetricMode.PLAIN))
        got = tour_length(inst, Tour(tuple(cycle)), MetricMode.PLAIN)

        best = math.inf
        for i in range(4):
            for j in range(4):
                for reverse in (False, True):
                    rolled = cyc_b[j + 1:] + cyc_b[: j + 1]
                    if reverse:
                        rolled = rolled[::-1]
                    cand = cyc_a[: i + 1] + rolled + cyc_a[i + 1:]
                    length = sum(D[cand[x], cand[(x + 1) % 8]] for x in range(8))
                    best = min(best, length)
        assert got == pytest.approx(best)


# ---------------------------------------------------------------------------
# 2-opt


def square_instance():
    return Instance("square", 4, "EUC_2D",
                    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


def test_two_opt_uncrosses_square():
    inst = square_instance()
    out = two_opt(Tour((0, 2, 1, 3)), Distances(inst, MetricMode.PLAIN))
    assert tour_length(inst, out, MetricMode.PLAIN) == pytest.approx(4.0)


def test_two_opt_fixpoint_on_optimal():
    inst = square_instance()
    out = two_opt(Tour((0, 1, 2, 3)), Distances(inst, MetricMode.PLAIN))
    assert out.order == (0, 1, 2, 3)


def test_two_opt_never_increases():
    rng = np.random.default_rng(2)
    for trial in range(20):
        inst = gen_random_instance(15, 400 + trial, 100.0)
        start = Tour(tuple(int(v) for v in rng.permutation(15)))
        before = tour_length(inst, start, MetricMode.PLAIN)
        out = two_opt(start, Distances(inst, MetricMode.PLAIN))
        after = tour_length(inst, out, MetricMode.PLAIN)
        assert after <= before + 1e-9
        assert validate_tour(out.order, 15)


# ---------------------------------------------------------------------------
# end-to-end


def test_hybrid_single_leaf_equals_qaco():
    from qacotsp.qaco import qaco_solve

    inst = gen_random_instance(4, 21, 100.0)
    config = HybridConfig(refinement=Refinement.NONE, seed=5, metric=MetricMode.PLAIN)
    tour, length, stats = solve_hybrid(inst, config)
    direct = qaco_solve(inst, range(4), config.qaco_params, config.noise,
                        MetricMode.PLAIN, seed=[5, 0])
    assert length == pytest.approx(direct.length)
    assert stats.leaf_sizes == (4,)
    # the record is immutable all the way down, so it hashes
    hash(stats)
    with pytest.raises(AttributeError):
        stats.leaf_sizes.append(9)


def test_hybrid_quads_solves_leaves_and_visits_in_perimeter_order():
    inst = quad_grid_instance()
    D = distance_matrix(inst, MetricMode.PLAIN)
    optimum = held_karp(D)
    tour, length, stats = solve_hybrid(
        inst, HybridConfig(seed=3, metric=MetricMode.PLAIN))
    assert validate_tour(tour.order, 16)
    assert stats.tree_depth == 1
    # each tight quad solved to its 28.0 optimum cycle
    assert stats.leaf_lengths == pytest.approx([28.0] * 4)
    # quads visited contiguously, and in perimeter order of the big square
    quad_of = [c // 4 for c in tour.order]
    boundaries = sum(quad_of[i] != quad_of[(i + 1) % 16] for i in range(16))
    assert boundaries == 4
    seen = list(dict.fromkeys(quad_of))
    perimeter_orders = {(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
                        (3, 2, 1, 0), (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3)}
    assert tuple(seen) in perimeter_orders
    # within a hair of the exact 16-city optimum (stitch is a 2-edge exchange,
    # which can miss a diagonal in-quad path worth ~0.001%)
    assert optimum - 1e-9 <= length <= optimum * 1.001


def test_every_leaf_is_solved_before_the_first_stitch(monkeypatch):
    inst = gen_random_instance(64, 2024, 1000.0)
    config = HybridConfig(seed=3, metric=MetricMode.PLAIN)
    leaves = build_cluster_tree(inst, leaf_max=config.leaf_max, branching=config.branching,
                                seed=config.seed, restarts=config.kmeans_restarts).leaves()
    calls = []

    def spy(name, record):
        original = getattr(hybrid, name)

        def wrapper(*args, **kwargs):
            calls.append((name, record(*args, **kwargs)))
            return original(*args, **kwargs)

        monkeypatch.setattr(hybrid, name, wrapper)

    spy("qaco_solve", lambda inst, indices, *args, seed, **kwargs: (list(indices), seed))
    spy("brute_force_order", lambda D: (D.shape[0], None))
    spy("stitch", lambda cycles, dist: None)
    _, _, stats = solve_hybrid(inst, config)

    names = [name for name, _ in calls]
    assert stats.tree_depth >= 2 and "qaco_solve" in names
    assert "stitch" not in names[:len(leaves)]
    assert set(names[len(leaves):]) == {"stitch"}
    # leaf i of tree.leaves() is solved i-th, with seed (config seed, i)
    for i, (leaf, (name, (what, seed))) in enumerate(zip(leaves, calls)):
        if name == "qaco_solve":
            assert (what, seed) == (list(leaf.node), [config.seed, i])
        else:
            assert what == len(leaf.node)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.wall_ms = 0.0


def test_hybrid_eil76_valid(data_dir):
    inst = load_instance(data_dir / "eil76.tsp")
    config = HybridConfig(seed=0, metric=MetricMode.PLAIN,
                          kmeans_restarts=3)
    tour, length, stats = solve_hybrid(inst, config)
    assert validate_tour(tour.order, 76)
    assert length == pytest.approx(tour_length(inst, tour, MetricMode.PLAIN))
    assert all(2 <= s <= 4 for s in stats.leaf_sizes)
    assert stats.refined_length <= stats.stitched_length + 1e-9


def test_hybrid_deterministic():
    inst = gen_random_instance(24, 6, 100.0)
    config = HybridConfig(seed=9, metric=MetricMode.PLAIN, kmeans_restarts=3)
    t1, l1, _ = solve_hybrid(inst, config)
    t2, l2, _ = solve_hybrid(inst, config)
    assert t1.order == t2.order
    assert l1 == l2


def test_hybrid_qaco_leaves_bounded_by_brute_force():
    inst = gen_random_instance(24, 14, 100.0)
    base = dict(seed=4, metric=MetricMode.PLAIN, kmeans_restarts=3,
                refinement=Refinement.NONE)
    _, _, stats_q = solve_hybrid(inst, HybridConfig(leaf_solver=LeafSolver.QACO, **base))
    _, _, stats_b = solve_hybrid(inst, HybridConfig(leaf_solver=LeafSolver.BRUTE_FORCE, **base))
    assert stats_q.leaf_sizes == stats_b.leaf_sizes  # same tree
    for lq, lb in zip(stats_q.leaf_lengths, stats_b.leaf_lengths):
        assert lq >= lb - 1e-9


def test_hybrid_aco_polish_refinement():
    inst = gen_random_instance(20, 17, 100.0)
    config = HybridConfig(refinement=Refinement.ACO_POLISH, seed=2,
                          metric=MetricMode.PLAIN, kmeans_restarts=3)
    tour, length, stats = solve_hybrid(inst, config)
    assert validate_tour(tour.order, 20)
    assert length <= stats.stitched_length + 1e-9


def test_brute_force_order_small():
    D = distance_matrix(square_instance(), MetricMode.PLAIN)
    tour = brute_force_order(D)
    length = sum(D[tour.order[i], tour.order[(i + 1) % 4]] for i in range(4))
    assert length == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# invariant checks (explicit raises, kept under python -O)


def test_stitch_raises_when_union_not_covered(monkeypatch):
    inst = gen_random_instance(4, 1, 100.0)
    # a merge that drops the next cycle's first city
    monkeypatch.setattr(hybrid, "_merge_two_cycles",
                        lambda a, b, dist: (a + b[1:], 0.0))
    with pytest.raises(InvariantError):
        stitch([[0, 1], [2, 3]], Distances(inst, MetricMode.PLAIN))


def test_solve_hybrid_raises_on_malformed_stitched_tour(monkeypatch):
    monkeypatch.setattr(hybrid, "stitch", lambda cycles, dist: [0, 1])
    with pytest.raises(InvariantError):
        solve_hybrid(gen_random_instance(9, 2, 100.0),
                     HybridConfig(seed=0, metric=MetricMode.PLAIN, kmeans_restarts=1))


def test_solve_hybrid_raises_when_tree_misses_cities(monkeypatch):
    monkeypatch.setattr(hybrid, "build_cluster_tree",
                        lambda inst, **kwargs: ClusterTree((0, 1, 2)))
    with pytest.raises(InvariantError):
        solve_hybrid(gen_random_instance(6, 3, 100.0),
                     HybridConfig(seed=0, metric=MetricMode.PLAIN))


def test_solve_hybrid_raises_when_refinement_lengthens(monkeypatch):
    inst = gen_random_instance(8, 4, 100.0)
    D = distance_matrix(inst, MetricMode.PLAIN)
    base = dict(seed=0, metric=MetricMode.PLAIN, kmeans_restarts=1)
    _, stitched_len, _ = solve_hybrid(inst, HybridConfig(refinement=Refinement.NONE, **base))
    worst = max(itertools.permutations(range(8)),
                key=lambda order: sum(D[a, b] for a, b in zip(order, order[1:] + order[:1])))
    monkeypatch.setattr(hybrid, "two_opt", lambda tour, *args, **kwargs: Tour(worst))
    with pytest.raises(InvariantError):
        solve_hybrid(inst, HybridConfig(refinement=Refinement.TWO_OPT, **base))


@pytest.mark.parametrize("metric", list(MetricMode))
def test_solve_hybrid_refuses_distances_that_overflow_before_the_tree(metric, monkeypatch):
    # The coordinates are finite, but the square of their difference is not.
    far = Instance("far", 5, "EUC_2D",
                   np.array([[0, 0], [1e200, 0], [1, 1], [2, 0], [0, 3]], dtype=float))

    def no_tree(*args, **kwargs):
        raise AssertionError("build_cluster_tree was called")

    monkeypatch.setattr(hybrid, "build_cluster_tree", no_tree)
    with pytest.raises(NonFiniteDistance, match="far"):
        solve_hybrid(far, HybridConfig(metric=metric))


def test_solve_hybrid_derives_the_geo_radians_once(data_dir, monkeypatch):
    sizes = []
    radians = tsplib._geo_radians
    monkeypatch.setattr(tsplib, "_geo_radians",
                        lambda coords: sizes.append(len(coords)) or radians(coords))
    inst = load_instance(data_dir / "ulysses22.tsp")
    solve_hybrid(inst, HybridConfig(metric=MetricMode.CANONICAL, kmeans_restarts=1))
    assert sizes == [inst.dimension]


def test_leaf_matrices_do_not_check_for_overflow_again(monkeypatch):
    # The solve's one ``Distances`` has ruled an overflow out; its leaf
    # matrices and merges enter no ``errstate`` and scan no ``isfinite``.
    inst = gen_random_instance(64, 5, 1000.0)
    calls = []
    errstate, isfinite = np.errstate, np.isfinite
    monkeypatch.setattr(np, "errstate", lambda **kw: calls.append("errstate") or errstate(**kw))
    monkeypatch.setattr(np, "isfinite",
                        lambda *args: calls.append("isfinite") or isfinite(*args))
    config = HybridConfig(leaf_solver=LeafSolver.BRUTE_FORCE, metric=MetricMode.CANONICAL)
    _, _, stats = solve_hybrid(inst, config)
    assert len(stats.leaf_sizes) > 10
    assert calls == ["errstate", "isfinite"]

def test_solve_hybrid_memory_is_linear_in_the_cities():
    # An n x n float64 matrix of 2000 cities alone takes 32 MB.
    inst = resolve_instance("random:2000:2024")
    config = HybridConfig(leaf_solver=LeafSolver.BRUTE_FORCE, refinement=Refinement.TWO_OPT,
                          metric=MetricMode.PLAIN)
    tracemalloc.start()
    try:
        solve_hybrid(inst, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_config_limits_leaf_size_only_for_the_qaco_leaf_solver():
    with pytest.raises(ValueError, match="leaf_max"):
        HybridConfig(leaf_max=5)
    for leaf in (LeafSolver.CLASSICAL_ACO, LeafSolver.BRUTE_FORCE):
        assert HybridConfig(leaf_solver=leaf, leaf_max=5).leaf_max == 5
    config = HybridConfig(leaf_max=2, two_opt_max_passes=0, polish_iterations=0,
                          branching=2, kmeans_restarts=1)
    assert (config.leaf_max, config.kmeans_restarts) == (2, 1)
