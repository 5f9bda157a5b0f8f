"""One benchmark process: set up a workload, run its body, report one JSON line.

`run.py` starts this script in a fresh process for every sample, so each
sample pays interpreter start, imports and input generation exactly as a
user's process does, and repeats of the body are compared across processes.
Modes:

* ``setup``: stop after set-up and report its time only;
* ``run``: run the timed body once, untraced;
* ``trace``: install the span tracer after set-up, run the body once and
  report the per-layer metrics.

``--t0`` is the parent's `time.perf_counter()` just before it started this
process; on Linux that clock is system-wide, so set-up time counts from
process start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _env(root: str) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(root, ".git", "HEAD"), "r", encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), "r", encoding="utf-8") as f:
                head = f.read().strip()
        commit = head
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS, brute_force_cycle

    workload = WORKLOADS[args.workload](root, args.seed)
    setup_s = time.perf_counter() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()

    rep = workload.run()
    result = {
        "setup_s": setup_s,
        "wall_s": rep.wall_s,
        "op_ms": rep.op_ms,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "errors": rep.errors,
        "digest": rep.digest,
        "tour_length": rep.tour_length,
        "extra": rep.extra,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _env(root),
    }
    if tracer is not None:
        result["run_id"] = tracer.run_id
        result["spans"] = tracer.span_count()
        result["layers"] = tracer.layer_metrics(brute_force_cycle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
