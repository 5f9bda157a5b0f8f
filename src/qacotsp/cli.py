"""Command-line driver for the experiment harness.

Subcommands: solve, compare, noise-sweep, estimate-error, gen-random.
Every flag can also be supplied through --config pointing at a JSON file
whose keys mirror the flag names; explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench
from .aco import AcoParams
from .bench import ConfigError
from .qaco import QacoParams
from .tsplib import gen_random_instance, save_instance


def _add_common(p):
    p.add_argument("--metric", choices=["canonical", "paper"], default=None,
                   help="distance convention (default canonical)")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seed list (default 0,1,2,3,4)")
    p.add_argument("--out", default=None, help="output directory (default runs/)")


# Marks a key that a flag or the config file must set.
REQUIRED = object()
# Defaults the three solver commands share.
SOLVER_DEFAULTS = {
    "metric": "canonical", "seeds": "0,1,2,3,4", "out": "runs",
    "qaco_params": {}, "aco_params": {}, "hybrid": {},
}
# Each command's defaults; a --config file may set exactly these keys.
DEFAULTS = {
    "solve": {**SOLVER_DEFAULTS, "instance": REQUIRED, "solver": "qaco-hybrid",
              "noise": "none", "rate": 0.0},
    "compare": {**SOLVER_DEFAULTS, "datasets": REQUIRED, "optima": {}},
    "noise-sweep": {**SOLVER_DEFAULTS, "instance": REQUIRED, "noise": REQUIRED,
                    "levels": bench.DEFAULT_NOISE_LEVELS},
    "estimate-error": {"layers": None, "preset": None, "out": None},
    "gen-random": {"n": 64, "seed": 0, "bound": 1000.0, "path": REQUIRED},
}


def _merged(args):
    """Start from the command's defaults, overlay --config, overlay explicit flags."""
    defaults = DEFAULTS[args.command]
    merged = dict(defaults)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            merged.update(bench.check_keys(json.load(f), list(defaults),
                                           f"{args.command} config"))
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        merged[key] = value
    missing = [f"--{key}" for key, value in merged.items()
               if defaults[key] is REQUIRED and (value is REQUIRED or not value)]
    if missing:
        raise ConfigError(f"{' and '.join(missing)} required")
    return merged


def _solver_args(cfg) -> dict:
    """The keyword arguments the solver commands build from ``SOLVER_DEFAULTS`` keys."""
    return dict(
        seeds=_list(cfg["seeds"], int), metric=bench.parse_metric(cfg["metric"]),
        out_dir=cfg["out"],
        qaco_params=bench.build_params(QacoParams(), cfg["qaco_params"], "qaco_params"),
        aco_params=bench.build_params(AcoParams(), cfg["aco_params"], "aco_params"),
        hybrid_overrides=bench.build_hybrid_overrides(cfg["hybrid"]),
    )


def _list(value, convert=str) -> list:
    """A comma-separated flag value, or a list from the config file, converted."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    return [convert(v) for v in items if v != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qacotsp",
        description="Hybrid quantum-classical ant colony TSP experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver on one instance")
    p.add_argument("--instance", default=None,
                   help="path to a .tsp file or random:<n>:<seed>[:<bound>]")
    p.add_argument("--solver", default=None,
                   help="aco | qaco-hybrid | clustered-aco")
    p.add_argument("--noise", default=None, help="none | bitflip | thermal")
    p.add_argument("--rate", type=float, default=None, help="noise rate in [0,1]")
    _add_common(p)

    p = sub.add_parser("compare", help="median table of all solvers on datasets")
    p.add_argument("--datasets", default=None,
                   help="comma-separated instance specs")
    _add_common(p)

    p = sub.add_parser("noise-sweep", help="QACO-hybrid across noise levels")
    p.add_argument("--instance", default=None)
    p.add_argument("--noise", default=None, help="bitflip | thermal")
    p.add_argument("--levels", default=None,
                   help="comma-separated rates (default 0.001,0.01,0.02,0.05,0.1)")
    _add_common(p)

    p = sub.add_parser("estimate-error", help="layered circuit error estimate")
    p.add_argument("--layers", default=None, help="JSON layer spec file")
    p.add_argument("--preset", default=None,
                   help=f"one of {sorted(bench.ERROR_PRESETS)}")
    p.add_argument("--out", default=None)

    p = sub.add_parser("gen-random", help="write a random instance as TSPLIB")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--path", default=None, help="output .tsp path")

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON file whose keys mirror the flags")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cfg = _merged(args)
    if args.command == "solve":
        records = bench.cmd_solve(
            cfg["instance"], cfg["solver"],
            noise=bench.parse_noise(cfg["noise"], float(cfg["rate"])), **_solver_args(cfg))
        for rec in records:
            print(f"{rec.dataset} {rec.solver} seed={rec.seed} "
                  f"length={rec.length:.4f} ({rec.wall_ms:.0f} ms)")
        return 0

    if args.command == "compare":
        rows = bench.cmd_compare(_list(cfg["datasets"]), optima=cfg["optima"],
                                 **_solver_args(cfg))
        print(f"{'dataset':<16}{'optimum':>10}{'ACO':>14}{'QACO':>14}{'ClusteredACO':>14}")
        for row in rows:
            opt = f"{row['optimum']:g}" if row["optimum"] != "" else "-"
            print(f"{row['dataset']:<16}{opt:>10}{row['aco']:>14.2f}"
                  f"{row['qaco-hybrid']:>14.2f}{row['clustered-aco']:>14.2f}")
        return 0

    if args.command == "noise-sweep":
        summary = bench.cmd_noise_sweep(cfg["instance"], cfg["noise"],
                                        levels=_list(cfg["levels"], float),
                                        **_solver_args(cfg))
        print(f"ideal median: {summary['baseline']:.4f}")
        for lvl, med in summary["levels"].items():
            print(f"  rate {lvl:g}: median {med:.4f}")
        print(f"max deviation: {summary['deviation']:.2f}%")
        return 0

    if args.command == "estimate-error":
        report = bench.cmd_estimate_error(cfg["layers"], cfg["preset"], cfg["out"])
        print(f"depth: {report.depth}")
        for j, avg in enumerate(report.layer_averages, start=1):
            print(f"  layer {j}: average rate {avg:.6g}")
        print(f"total failure probability s = {report.s:.6g}")
        return 0

    # gen-random, the last of the commands build_parser accepts
    inst = gen_random_instance(int(cfg["n"]), int(cfg["seed"]), float(cfg["bound"]))
    save_instance(inst, cfg["path"])
    print(f"wrote {inst.name} ({inst.dimension} cities) to {cfg['path']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
