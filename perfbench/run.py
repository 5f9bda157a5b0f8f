"""qacotsp benchmark: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload leaf-qaco --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed).  Every repetition of the workload's body
runs in a fresh process (`worker.py`), one at a time, as often as fits in
``--seconds`` (at least twice), with ``QACO_THREADS`` removed from the
environment so the program's default applies.  Repetitions whose output
digest differs from the first one count as failed ops.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
fresh processes), the body's wall time, per-op latency, peak memory, summed
tour length and the share of ops that succeeded.  ``--trace 1`` repeats the
body untraced and then runs it once more in a traced process; it prints the
per-layer metrics and the tracing overhead, and counts a failed op if the
traced outputs differ from the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import metric_names

WORKLOADS = ("leaf-qaco", "acs-eil76", "hybrid-random1000", "noise-sweep-eil51")
# Set-up time is the median of this many processes: the repetitions, topped
# up with set-up-only processes.
SETUP_SAMPLES = 10
MIN_REPS = 2
# Every process must have ended by then, well inside the 180 s limit.
DEADLINE_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("tour_length", "length"),
    ("ops_ok_frac", "frac"),
)
PER_LAYER = tuple(metric_names()) + (
    ("bench.bytes_written", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QACO_THREADS"}
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat(args, deadline: float) -> dict:
    """Untraced repetitions within ``--seconds`` (at least two), merged.

    Beyond the first two, another repetition starts only if one more of the
    last one's length still fits.  Two are always run so that every run
    compares the digests of two processes.
    """
    reps = []
    start = time.monotonic()
    elapsed = rep_s = 0.0
    while len(reps) < MIN_REPS or elapsed + rep_s <= args.seconds:
        rep_start = time.monotonic()
        reps.append(_worker(args.workload, args.seed, "run", deadline))
        rep_s = time.monotonic() - rep_start
        elapsed = time.monotonic() - start
    first = reps[0]
    mismatched = [i for i, rep in enumerate(reps) if rep["digest"] != first["digest"]]
    return {
        "reps": reps,
        "setup_s": [rep["setup_s"] for rep in reps],
        "wall_s": [rep["wall_s"] for rep in reps],
        "op_ms": [ms for rep in reps for ms in rep["op_ms"]],
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps) + len(mismatched),
        "errors": [e for rep in reps for e in rep["errors"]]
        + [f"repetition {i} digest {reps[i]['digest']} differs from the first"
           for i in mismatched],
        "digest": first["digest"],
        "env": first["env"],
    }


def _end_to_end(args, deadline: float):
    run = _repeat(args, deadline)
    setups = run["setup_s"]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(args.workload, args.seed, "setup", deadline)["setup_s"])
    first = run["reps"][0]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["wall_s"]),
        "solve_ms_p50": statistics.median(run["op_ms"]),
        "solve_ms_p90": statistics.quantiles(run["op_ms"], n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in run["reps"]),
        "tour_length": first["tour_length"],
        "ops_ok_frac": 1.0 - run["failed"] / run["attempted"],
    }
    notes = {
        "reps": len(run["reps"]),
        "ops": run["attempted"],
        "ops_failed_frac": run["failed"] / run["attempted"],
        **first["extra"],
    }
    return run, values, END_TO_END, notes


def _per_layer(args, deadline: float):
    run = _repeat(args, deadline)
    traced = _worker(args.workload, args.seed, "trace", deadline)
    untraced_wall = statistics.median(run["wall_s"])
    values = dict(traced["layers"])
    values["bench.bytes_written"] = traced["extra"].get("bytes_written", 0)
    values["trace.spans"] = traced["spans"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    run["attempted"] += traced["attempted"]
    run["failed"] += traced["failed"]
    run["errors"] += traced["errors"]
    if traced["digest"] != run["digest"]:
        run["failed"] += 1
        run["errors"].append(f"traced digest {traced['digest']} differs from untraced")
    notes = {"run_id": traced["run_id"], "traced_digest": traced["digest"],
             "untraced_wall_s": untraced_wall, "traced_wall_s": traced["wall_s"]}
    return run, values, PER_LAYER, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qacotsp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qacotsp", "__init__.py")):
        print(f"error: no qacotsp sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = _per_layer if args.trace else _end_to_end
    try:
        run, values, names, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(run["env"], sort_keys=True))
    print(f"{args.workload} seed={args.seed} digest={run['digest']} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    for error in run["errors"]:
        print(f"failed op: {error}")
    for name, unit in names:
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
