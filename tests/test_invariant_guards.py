"""Guards that keep invariant checks alive under ``python -O``.

``-O`` strips ``assert`` statements, so the package checks its invariants
with explicit raises.  One test keeps ``assert`` out of the package source;
three others run invariant triggers (the cluster split, the K-means inertia
and the stitch) in an optimized interpreter.  Another keeps environment reads (``os.environ``,
``os.getenv``) out of the package, so no hidden knob changes what a run does,
and two keep raw PCG64 word reads (``random_raw``) and bit-generator state
writes (``.state = ...``) in ``draws.py``.
The last ones hold the package to what the benchmark in ``perfbench/`` imports,
reads, calls and traces, so dropping or renaming such a name fails here, not
only under ``perfbench/run.py --trace 1``.
"""

import ast
import contextlib
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from qacotsp import bench, qaco

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "qacotsp").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} guards invariants with assert on lines {lines}"


ENV_READS = {"environ", "getenv", "environb", "getenvb"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_knobs(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in ENV_READS
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in ENV_READS for alias in node.names))]
    assert not lines, f"{path.name} reads the environment on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "draws.py"],
                         ids=lambda p: p.name)
def test_only_draws_reads_raw_words(path):
    # draws.py is the one module that re-derives numpy's draws from raw PCG64 words
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "random_raw")
             or (isinstance(node, ast.Name) and node.id == "random_raw")
             or (isinstance(node, ast.Constant) and node.value == "random_raw")]
    assert not lines, f"{path.name} reads random_raw on lines {lines}; draws.py owns it"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "draws.py"],
                         ids=lambda p: p.name)
def test_only_draws_sets_generator_states(path):
    # draws.py is the one module that seeds a bit generator by writing its state
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    targets = [t for node in ast.walk(tree)
               if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    lines = [t.lineno for target in targets for t in ast.walk(target)
             if isinstance(t, ast.Attribute) and t.attr == "state"]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "state"]
    assert not lines, f"{path.name} sets a generator state on lines {lines}; draws.py owns it"


TRIGGER = """
import numpy as np
from qacotsp import cluster, tsplib
assert False, "assert statements must be stripped under -O"
cluster._rebalance_small_parts = lambda points, labels, k, min_size: np.zeros_like(labels)
try:
    cluster.build_cluster_tree(tsplib.gen_random_instance(12, 0, 100.0), seed=0, restarts=1)
except tsplib.InvariantError as exc:
    print("raised:", exc)
"""

INERTIA_TRIGGER = """
import itertools
import numpy as np
from qacotsp import cluster, tsplib
assert False, "assert statements must be stripped under -O"
counter = itertools.count()
cluster._inertia = lambda points, centroids, slots: np.full(len(centroids), float(next(counter)))
try:
    cluster.kmeans(tsplib.gen_random_instance(20, 5, 100.0).coords, 3, restarts=1, seed=0)
except tsplib.InvariantError as exc:
    print("raised:", exc)
"""

STITCH_TRIGGER = """
from qacotsp import hybrid, tsplib
assert False, "assert statements must be stripped under -O"
hybrid._merge_two_cycles = lambda a, b, dist: (a + b[1:], 0.0)  # drops a city
try:
    hybrid.stitch([[0, 1], [2, 3]],
                  tsplib.Distances(tsplib.gen_random_instance(4, 0), tsplib.MetricMode.PLAIN))
except tsplib.InvariantError as exc:
    print("raised:", exc)
"""


def run_optimized(code: str) -> str:
    """Stdout of ``code`` run by ``python -O`` with the package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_invariant_raises_under_python_O():
    out = run_optimized(TRIGGER)
    assert out.startswith("raised: part 0 of a 12-city node"), out


def test_kmeans_inertia_invariant_raises_under_python_O():
    out = run_optimized(INERTIA_TRIGGER)
    assert out.startswith("raised: K-means inertia increased"), out


def test_stitch_invariant_raises_under_python_O():
    out = run_optimized(STITCH_TRIGGER)
    assert out.startswith("raised: stitched cycle must cover"), out


def traced_targets() -> tuple:
    """``TRACED`` of ``perfbench/tracer.py``, read without importing perfbench."""
    path = SRC.parent / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED assignment in {path}")


@pytest.mark.parametrize("target", traced_targets())
def test_traced_function_is_in_the_package(target):
    module, name = target.split(".")
    fn = getattr(importlib.import_module(f"qacotsp.{module}"), name, None)
    assert callable(fn), f"perfbench traces {target}, which qacotsp no longer has"


def test_benchmark_call_signatures():
    params = inspect.signature(qaco.qaco_solve).parameters
    assert {"inst", "indices", "metric", "D"} <= set(params)
    inspect.signature(bench.run_single).bind("inst", "solver", 0, "noise", "metric")


def perfbench_names() -> list:
    """Every ``qacotsp`` name a ``perfbench/*.py`` script imports, or reads as an
    attribute of such an import (``tsplib.sub_distance_matrix``, ``cli.main``),
    read through the AST without importing perfbench."""
    names = set()
    for path in sorted((SRC.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qacotsp":
                for alias in node.names:
                    imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name, alias.name) for alias in node.names
                                if alias.name.split(".")[0] == "qacotsp")
        names.update(imported.values())
        names.update(f"{imported[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in imported)
    return sorted(names)


@pytest.mark.parametrize("name", perfbench_names())
def test_perfbench_name_is_in_the_package(name):
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            with contextlib.suppress(ModuleNotFoundError):  # a submodule not imported yet
                importlib.import_module(".".join(parts[:depth]))
        assert hasattr(obj, part), f"perfbench uses {name}, which qacotsp no longer has"
        obj = getattr(obj, part)
