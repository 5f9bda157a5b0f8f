"""The benchmark's workloads, built from the workload seed.

The seed selects the instances of `leaf-qaco` and the ACS seed of
`acs-eil76`; the other two workloads keep fixed inputs (see their classes).

A workload's constructor is its set-up: it imports nothing further and only
generates or loads the inputs.  `run()` executes the timed body once, on the
program's defaults and the `paper` metric, then checks every output outside
the timed region:

* each tour is a permutation of its instance;
* each reported length equals the `tsplib.tour_length` recomputation within
  1e-9 relative (plus half a unit in the sixth decimal where the length was
  read back from a file the program wrote with six decimals);
* outputs are digested, so repeats of the same code can be compared.

A solve that raises counts as a failed op, and the body goes on.  The
program's functions are looked up on their module at call time
(`qaco.qaco_solve`, `bench.run_single`, `cli.main`), so the tracer's
rebinding reaches the calls made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from qacotsp import bench, cli, qaco, tsplib
from qacotsp.qsim import NO_NOISE
from qacotsp.tsplib import MetricMode, Tour

# Bound before any tracer is installed, so checks are never traced.
tour_length = tsplib.tour_length
distance_matrix = tsplib.distance_matrix

PAPER = MetricMode.PLAIN
REL_TOL = 1e-9
# results.csv and results.json store lengths rounded to six decimals.
FILE_ABS_TOL = 0.5e-6
clock = time.perf_counter


def brute_force_cycle(D) -> float:
    """Exact minimum cycle length over all orders with city 0 fixed."""
    k = len(D)
    best = float("inf")
    for perm in itertools.permutations(range(1, k)):
        order = (0,) + perm
        best = min(best, sum(float(D[order[i], order[(i + 1) % k]]) for i in range(k)))
    return best


@dataclass
class Rep:
    """Outcome of one execution of a workload's timed body."""

    wall_s: float
    op_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    tour_length: float = 0.0
    extra: dict = field(default_factory=dict)
    _hash: object = field(default_factory=hashlib.sha256, repr=False)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, inst, order, length, abs_tol: float = 0.0) -> bool:
        """Gate one output tour; feed it to the digest and the length sum."""
        order = tuple(int(v) for v in order)
        self._hash.update(repr((order, float(length).hex())).encode())
        self.tour_length += float(length)
        if not tsplib.validate_tour(order, inst.dimension):
            self.fail(f"{inst.name}: tour is not a permutation of {inst.dimension} cities")
            return False
        recomputed = tour_length(inst, Tour(order), PAPER)
        if abs(recomputed - length) > max(REL_TOL * abs(recomputed), abs_tol):
            self.fail(f"{inst.name}: reported length {length!r} != recomputed {recomputed!r}")
            return False
        return True

    def digest_bytes(self, data: bytes) -> None:
        self._hash.update(data)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


class LeafQaco:
    """Criterion 1's load: 100 four-city instances, one noiseless QACO solve each."""

    name = "leaf-qaco"
    n_instances = 100

    def __init__(self, root: str, seed: int):
        base = 5000 + 100 * seed
        self.instances = [tsplib.gen_random_instance(4, base + i, 1000.0)
                          for i in range(self.n_instances)]

    def run(self) -> Rep:
        results = []
        start = clock()
        for i, inst in enumerate(self.instances):
            t0 = clock()
            try:
                result = qaco.qaco_solve(inst, range(4), seed=i, metric=PAPER)
            except Exception as exc:  # counted as a failed op; the run goes on
                result = exc
            results.append((result, clock() - t0))
        rep = Rep(clock() - start)

        optimal = 0
        for inst, (result, secs) in zip(self.instances, results):
            rep.attempted += 1
            rep.op_ms.append(secs * 1000.0)
            if isinstance(result, Exception):
                rep.fail(f"{inst.name}: {result!r}")
            elif rep.check(inst, result.tour.order, result.length):
                optimum = brute_force_cycle(distance_matrix(inst, PAPER))
                optimal += abs(result.length - optimum) <= REL_TOL * optimum
        rep.extra["leaf_optimal_frac"] = optimal / len(self.instances)
        return rep


class _SingleSolve:
    """One `bench.run_single` call on a fixed instance."""

    solver = ""

    def run(self) -> Rep:
        t0 = clock()
        try:
            record = bench.run_single(self.inst, self.solver, self.solver_seed, NO_NOISE, PAPER)
        except Exception as exc:  # counted as a failed op; the run goes on
            record = exc
        secs = clock() - t0
        rep = Rep(secs, op_ms=[secs * 1000.0], attempted=1)
        if isinstance(record, Exception):
            rep.fail(f"{self.inst.name}: {record!r}")
        else:
            rep.check(self.inst, record.tour, record.length)
        return rep


class AcsEil76(_SingleSolve):
    """One classical ACS solve on eil76; the ACS seed is the workload seed."""

    name = "acs-eil76"
    solver = "aco"

    def __init__(self, root: str, seed: int):
        self.inst = tsplib.load_instance(os.path.join(root, "data", "eil76.tsp"))
        self.solver_seed = seed


class HybridRandom1000(_SingleSolve):
    """One qaco-hybrid solve with 2-opt on random:1000:2024, solver seed 0.

    The input is the same for every workload seed: the number of four-city
    QACO leaves, and with it the work, varies by about 20% between random
    instances and between solver seeds, which would swamp the timing spread.
    """

    name = "hybrid-random1000"
    solver = "qaco-hybrid"

    def __init__(self, root: str, seed: int):
        self.inst = bench.resolve_instance("random:1000:2024")
        self.solver_seed = 0


class NoiseSweepEil51:
    """`qacotsp noise-sweep` on eil51 for bit flip and for thermal noise.

    Solver seeds 0 and 1 for every workload seed: between pairs of solver
    seeds the eil51 cluster tree has 10 to 14 four-city QACO leaves, a spread
    in work that would swamp the timing spread.
    """

    name = "noise-sweep-eil51"
    kinds = ("bitflip", "thermal")
    levels = (0.02, 0.1)
    seeds = (0, 1)

    def __init__(self, root: str, seed: int):
        self.path = os.path.join(root, "data", "eil51.tsp")
        self.inst = tsplib.load_instance(self.path)
        self.root = root

    def _argv(self, kind: str, out: str) -> list:
        return ["noise-sweep", "--instance", self.path, "--noise", kind,
                "--levels", ",".join(f"{v:g}" for v in self.levels),
                "--seeds", ",".join(str(s) for s in self.seeds),
                "--metric", "paper", "--out", out]

    def run(self) -> Rep:
        work = tempfile.mkdtemp(prefix=".bench_tmp-", dir=self.root)
        outs = [os.path.join(work, kind) for kind in self.kinds]
        try:
            calls = []
            start = clock()
            for kind, out in zip(self.kinds, outs):
                t0 = clock()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        status = cli.main(self._argv(kind, out))
                except Exception as exc:  # counted as a failed op; the run goes on
                    status = exc
                calls.append((status, clock() - t0))
            rep = Rep(clock() - start)
            rep.extra["bytes_written"] = 0
            for kind, out, (status, secs) in zip(self.kinds, outs, calls):
                rep.attempted += 1
                rep.op_ms.append(secs * 1000.0)
                if status != 0:
                    rep.fail(f"noise-sweep {kind}: exit status {status!r}")
                    continue
                try:
                    self._check_outputs(rep, kind, out)
                except (OSError, ValueError) as exc:
                    rep.fail(f"noise-sweep {kind}: unreadable output: {exc!r}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return rep

    def _check_outputs(self, rep: Rep, kind: str, out: str) -> None:
        expected = (1 + len(self.levels)) * len(self.seeds)
        with open(os.path.join(out, "results.csv"), "rb") as f:
            csv_bytes = f.read()
        with open(os.path.join(out, "results.json"), "r", encoding="utf-8") as f:
            records = json.load(f)
        rows = csv_bytes.decode("utf-8").splitlines()[1:]
        rep.digest_bytes(csv_bytes)
        rep.extra["bytes_written"] += sum(
            os.path.getsize(os.path.join(d, name))
            for d, _, names in os.walk(out) for name in names)
        if len(records) != expected or len(rows) != expected:
            rep.fail(f"noise-sweep {kind}: {len(records)} records and {len(rows)} "
                     f"CSV rows, expected {expected}")
            return
        for record, row in zip(records, rows):
            if not rep.check(self.inst, record["tour"], record["length"], FILE_ABS_TOL):
                return
            if abs(float(row.split(",")[5]) - record["length"]) > FILE_ABS_TOL:
                rep.fail(f"noise-sweep {kind}: CSV length {row!r} differs from the JSON")
                return


WORKLOADS = {w.name: w for w in (LeafQaco, AcsEil76, HybridRandom1000, NoiseSweepEil51)}
