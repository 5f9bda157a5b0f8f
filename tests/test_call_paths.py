"""Guard: the solvers reach their colony operators through the module names.

``perfbench/tracer.py`` measures a layer by rebinding every ``qacotsp``
module attribute that holds a traced function.  A solver that ran a private
copy of an operator would leave that layer at 0 calls in every trace; this
test fails instead.  The repair kernel ``qaco._repair`` is counted the
same way: the solver calls it once per repaired measurement, and the
bitstring boundary ``repair_infeasible`` once per call.  The cluster tree
reaches ``cluster.kmeans`` by its module name once per node it splits.
"""

import functools
import importlib
import pkgutil

import numpy as np

import qacotsp
from qacotsp import aco, cluster, qaco
from qacotsp.aco import AcoParams
from qacotsp.tsplib import MetricMode, Tour, gen_random_instance

OPERATORS = ("qaco.rotation_update", "qaco.maybe_mutate", "aco.next_node")


def solve_both():
    leaf = gen_random_instance(4, 15, 100.0)
    small = gen_random_instance(8, 3, 100.0)
    return (qaco.qaco_solve(leaf, range(4), seed=4, metric=MetricMode.PLAIN),
            aco.aco_solve(small, range(8), AcoParams(iterations=5), seed=1,
                          metric=MetricMode.PLAIN))


def wrap_calls(monkeypatch, targets) -> dict:
    """Count the calls of each ``module.name`` in ``targets``, wherever bound."""
    calls = dict.fromkeys(targets, 0)
    modules = [importlib.import_module(f"qacotsp.{info.name}")
               for info in pkgutil.iter_modules(qacotsp.__path__)]
    for target in targets:
        module, name = target.split(".")
        original = getattr(importlib.import_module(f"qacotsp.{module}"), name)

        @functools.wraps(original)
        def wrapper(*args, _target=target, _original=original, **kwargs):
            calls[_target] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_solvers_call_the_traced_operators(monkeypatch):
    expected = solve_both()
    calls = wrap_calls(monkeypatch, OPERATORS + ("qaco._repair",))
    assert solve_both() == expected
    assert all(calls.values()), calls
    # one aco.next_node call per move: iterations x ants x (k - 1)
    assert calls["aco.next_node"] == 5 * 6 * 7
    # one qaco._repair call per repaired measurement
    assert calls["qaco._repair"] == expected[0].repairs


def test_repair_infeasible_runs_the_solver_repair_once_per_call(monkeypatch):
    calls = wrap_calls(monkeypatch, ("qaco._repair",))
    pool = qaco.SolutionPool()
    rng = np.random.default_rng(5)
    for n, (tour, iteration) in enumerate([(None, 3), ((1, 0, 2, 3), 3), (None, 50),
                                           ((2, 3, 1, 0), 50), (None, 50)], start=1):
        if tour is not None:
            pool.add(Tour(tour), qaco.encode_tour(Tour(tour), 4), float(n))
        assert qaco.repair_infeasible("11111111", pool, iteration, 4, rng) is not None
        assert calls["qaco._repair"] == n


def test_cluster_tree_calls_kmeans_once_per_inner_node(monkeypatch):
    def inner_nodes(tree):
        return 0 if tree.is_leaf else 1 + sum(map(inner_nodes, tree.children))

    inst = gen_random_instance(200, 3, 1000.0)
    expected = cluster.build_cluster_tree(inst, seed=2)
    calls = wrap_calls(monkeypatch, ("cluster.kmeans",))
    assert cluster.build_cluster_tree(inst, seed=2) == expected
    assert calls["cluster.kmeans"] == inner_nodes(expected) > 1
