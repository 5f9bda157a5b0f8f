"""Golden digest of the hybrid tree walk: cluster, leaf solves, stitch, refine.

``solve_hybrid`` runs on every bundled dataset plus two random instances,
under both metrics and three leaf/refinement configurations.  One SHA-256
over each run's tour, its length as a hex float and its ``HybridStats``
(without the measured ``wall_ms``) must equal a constant, so a rewrite of the
walk that changes any tour, any length or any statistic shows here.

The brute-force configuration with ``leaf_max=2`` and ``branching=3`` gives
one-city leaves, which exercise one-city cycles in the cycle merge and
its ties under the rounded metric.
"""

import dataclasses
import hashlib
import json

from qacotsp.aco import AcoParams
from qacotsp.bench import resolve_instance
from qacotsp.hybrid import HybridConfig, LeafSolver, Refinement, solve_hybrid
from qacotsp.tsplib import MetricMode

GOLDEN_SHA256 = "bea16e8b037f2aa2df2b19701689901ad4d6dc6aff46bc60040ee7ae4773e6f6"

CONFIGS = (
    dict(leaf_solver=LeafSolver.QACO, refinement=Refinement.TWO_OPT),
    dict(leaf_solver=LeafSolver.BRUTE_FORCE, refinement=Refinement.NONE,
         leaf_max=2, branching=3),
    dict(leaf_solver=LeafSolver.CLASSICAL_ACO, refinement=Refinement.ACO_POLISH,
         aco_params=AcoParams(iterations=20), polish_iterations=10, leaf_max=3),
)


def test_hybrid_walk_digest(data_dir):
    specs = sorted(str(p) for p in data_dir.glob("*.tsp")) + ["random:300:11", "random:9:4"]
    digest = hashlib.sha256()
    for spec in specs:
        inst = resolve_instance(spec)
        for metric in (MetricMode.CANONICAL, MetricMode.PLAIN):
            for overrides in CONFIGS:
                config = HybridConfig(metric=metric, seed=1, kmeans_restarts=2, **overrides)
                tour, length, stats = solve_hybrid(inst, config)
                fields = dataclasses.asdict(stats)
                del fields["wall_ms"]
                digest.update(json.dumps([inst.name, metric.value, list(tour.order),
                                          length.hex(), fields], sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_SHA256
