"""Guard: the solvers reach their colony operators through the module names.

``perfbench/tracer.py`` measures a layer by rebinding every ``qacotsp``
module attribute that holds a traced function.  A solver that ran a private
copy of an operator would leave that layer at 0 calls in every trace; this
test fails instead.
"""

import functools
import importlib
import pkgutil

import qacotsp
from qacotsp import aco, qaco
from qacotsp.aco import AcoParams
from qacotsp.tsplib import MetricMode, gen_random_instance

OPERATORS = ("qaco.rotation_update", "qaco.maybe_mutate", "aco.next_node")


def solve_both():
    leaf = gen_random_instance(4, 15, 100.0)
    small = gen_random_instance(8, 3, 100.0)
    return (qaco.qaco_solve(leaf, range(4), seed=4, metric=MetricMode.PLAIN),
            aco.aco_solve(small, range(8), AcoParams(iterations=5), seed=1,
                          metric=MetricMode.PLAIN))


def test_solvers_call_the_traced_operators(monkeypatch):
    expected = solve_both()
    calls = dict.fromkeys(OPERATORS, 0)
    modules = [importlib.import_module(f"qacotsp.{info.name}")
               for info in pkgutil.iter_modules(qacotsp.__path__)]
    for target in OPERATORS:
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
    assert solve_both() == expected
    assert all(calls.values()), calls
    # one aco.next_node call per move: iterations x ants x (k - 1)
    assert calls["aco.next_node"] == 5 * 6 * 7
