"""Span tracer that measures qacotsp's layers from outside the package.

`Tracer.install` wraps each public function listed in `TRACED` by rebinding
every module attribute in `qacotsp.*` that holds the original function
object.  Callers look these names up in their module's globals at call
time, so e.g. `qacotsp.hybrid.qaco_solve`, `qacotsp.qaco.noisy_sample` and
`qacotsp.qsim.noisy_sample` (used by `sample_ancilla`) all go through the
wrapper.  Nothing in `src/` changes, and a wrapper never touches the random
generators, so traced outputs are bit-identical to untraced ones.

Spans are kept in memory in flat arrays: name, parent span, start and end,
all under one run id.  A span's self time is its duration minus the time its
direct child spans cover.  The tracer assumes the program calls the wrapped
functions from one thread, which is its default (QACO_THREADS unset).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# Public functions traced, as "<module>.<function>".
TRACED = (
    "qsim.noisy_sample",
    "qsim.sample_ancilla",
    "qaco.qaco_solve",
    "qaco.repair_infeasible",
    "qaco.rotation_update",
    "qaco.maybe_mutate",
    "qaco.decode_bits",
    "qaco.encode_tour",
    "aco.aco_solve",
    "aco.next_node",
    "aco.update_pheromone",
    "cluster.build_cluster_tree",
    "cluster.kmeans",
    "hybrid.solve_hybrid",
    "hybrid.stitch",
    "hybrid.two_opt",
    "hybrid.order_siblings",
    "hybrid.brute_force_order",
    "tsplib.distance_matrix",
    "tsplib.tour_length",
    "bench.run_single",
    "bench.run_cells",
    "bench.write_records_csv",
    "bench.write_records_json",
    "bench.write_svg_plot",
    "cli.main",
)

# Functions whose arguments and results are kept for the layer counts.
KEPT = ("qaco.qaco_solve", "cluster.build_cluster_tree", "hybrid.solve_hybrid")

# Layer counts derived from kept calls and from the span tree.
COUNTS = (
    ("qaco.iterations", "count"),
    ("qaco.samples", "count"),
    ("qaco.repairs", "count"),
    ("qaco.mutations", "count"),
    ("qaco.feasible_frac", "frac"),
    ("qaco.iters_after_best_frac", "frac"),
    ("qaco.leaf_optimal_frac", "frac"),
    ("cluster.leaves", "count"),
    ("cluster.leaves_4", "count"),
    ("cluster.depth", "count"),
    ("hybrid.stitch_cost", "length"),
    ("hybrid.refinement_gain", "length"),
)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for target in TRACED:
        names.append((f"{target}.calls", "count"))
        names.append((f"{target}.self_ms", "ms"))
    return names + list(COUNTS)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = list(TRACED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.kept = {name: [] for name in KEPT}
        self.originals = {}

    def install(self) -> None:
        """Rebind every `qacotsp.*` attribute that holds a traced function."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "qacotsp" or key.startswith("qacotsp."))]
        for nid, target in enumerate(self.names):
            mod_name, func_name = target.split(".")
            fn = getattr(sys.modules[f"qacotsp.{mod_name}"], func_name)
            self.originals[target] = fn
            wrapped = self._wrap(nid, fn, self.kept.get(target))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)

    def _wrap(self, nid: int, fn, kept):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append((args, kwargs, result))
            return result

        return traced

    def layer_metrics(self, brute_force_cycle) -> dict:
        """Per-layer metrics: calls and self time per function, plus counts.

        ``brute_force_cycle(D)`` returns the exact minimum cycle length of a
        small distance matrix; it scores QACO leaves against their optimum.
        """
        import numpy as np

        n_names = len(self.names)
        name = np.array(self.span_name, dtype=np.intp)
        parent = np.array(self.span_parent, dtype=np.intp)
        dur = np.array(self.span_end, dtype=float) - np.array(self.span_start, dtype=float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name, minlength=n_names)
        self_ms = np.bincount(name, weights=self_time, minlength=n_names) * 1000.0

        out = {}
        for nid, target in enumerate(self.names):
            out[f"{target}.calls"] = int(calls[nid])
            out[f"{target}.self_ms"] = float(self_ms[nid])

        solve_id = self.names.index("qaco.qaco_solve")
        sample_id = self.names.index("qsim.noisy_sample")
        samples = int(np.count_nonzero(
            (name == sample_id) & has_parent & (name[np.maximum(parent, 0)] == solve_id)))
        out.update(self._qaco_counts(samples, brute_force_cycle))
        out.update(self._cluster_counts())
        out.update(self._hybrid_counts())
        return out

    def _qaco_counts(self, samples, brute_force_cycle) -> dict:
        from qacotsp.tsplib import sub_distance_matrix

        distance_matrix = self.originals["tsplib.distance_matrix"]
        signature = inspect.signature(self.originals["qaco.qaco_solve"])
        iterations = repairs = mutations = after_best = history_len = 0
        leaves = optimal = 0
        for args, kwargs, result in self.kept["qaco.qaco_solve"]:
            iterations += result.iterations
            repairs += result.repairs
            mutations += result.mutations
            history = result.history
            best_at = history.index(history[-1]) + 1
            after_best += len(history) - best_at
            history_len += len(history)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            D = a["D"]
            if D is None:
                D = sub_distance_matrix(distance_matrix(a["inst"], a["metric"]),
                                        list(a["indices"]))
            optimum = brute_force_cycle(D)
            leaves += 1
            optimal += abs(result.length - optimum) <= 1e-9 * max(1.0, optimum)
        return {
            "qaco.iterations": iterations,
            "qaco.samples": samples,
            "qaco.repairs": repairs,
            "qaco.mutations": mutations,
            "qaco.feasible_frac": 1.0 - repairs / samples if samples else 0.0,
            "qaco.iters_after_best_frac": after_best / history_len if history_len else 0.0,
            "qaco.leaf_optimal_frac": optimal / leaves if leaves else 0.0,
        }

    def _cluster_counts(self) -> dict:
        trees = [result for _, _, result in self.kept["cluster.build_cluster_tree"]]
        leaves = [leaf for tree in trees for leaf in tree.leaves()]
        return {
            "cluster.leaves": len(leaves),
            "cluster.leaves_4": sum(len(leaf.node) == 4 for leaf in leaves),
            "cluster.depth": max((tree.depth() for tree in trees), default=0),
        }

    def _hybrid_counts(self) -> dict:
        stats = [result[2] for _, _, result in self.kept["hybrid.solve_hybrid"]]
        return {
            "hybrid.stitch_cost": float(sum(s.stitch_cost for s in stats)),
            "hybrid.refinement_gain": float(sum(s.refinement_gain for s in stats)),
        }

    def span_count(self) -> int:
        return len(self.span_start)

