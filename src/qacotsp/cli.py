"""Command-line driver for the experiment harness.

``COMMANDS`` declares each subcommand (solve, compare, noise-sweep,
estimate-error, gen-random) once: its help line and its keys.  A key holds
its default and, if it has a flag, the flag's type and help; ``build_parser``
makes the flags from it.  A --config JSON file may set exactly the command's
keys, and explicit flags win over config values.  A config value must have
its key's type: a string for a string flag (a comma-list flag also takes a
JSON list of its items), an int for an int flag, a number for a float flag,
and never a bool.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import bench
from .aco import AcoParams
from .bench import ConfigError
from .qaco import QacoParams
from .qsim import NoiseKind
from .tsplib import gen_random_instance, save_instance

# Marks a key that a flag or the config file must set.
REQUIRED = object()


class Key(NamedTuple):
    """A command's key: its default and, if ``type`` is set, its flag's type and help.

    A comma-list flag's config value may also be a JSON list of ``item``s.
    """
    default: object
    type: type = None
    help: str = None
    item: type = None


_INSTANCE = Key(REQUIRED, str, "path to a .tsp file or random:<n>:<seed>[:<bound>]")
# The keys the three solver commands share.
_SOLVER_KEYS = {
    "metric": Key("canonical", str, "distance convention: canonical | paper"),
    "seeds": Key((0, 1, 2, 3, 4), str, "comma-separated seed list", int),
    "out": Key("runs", str, "output directory"),
    "qaco_params": Key({}), "aco_params": Key({}), "hybrid": Key({}),
}
COMMANDS = {
    "solve": ("run one solver on one instance", {
        "instance": _INSTANCE,
        "solver": Key("qaco-hybrid", str, " | ".join(bench.SOLVERS)),
        "noise": Key("none", str, " | ".join(kind.value for kind in NoiseKind)),
        "rate": Key(0.0, float, "noise rate in [0,1]"),
        **_SOLVER_KEYS}),
    "compare": ("median table of all solvers on datasets", {
        "datasets": Key(REQUIRED, str, "comma-separated instance specs", str),
        **_SOLVER_KEYS, "optima": Key({})}),
    "noise-sweep": ("QACO-hybrid across noise levels", {
        "instance": _INSTANCE,
        "noise": Key(REQUIRED, str, "bitflip | thermal"),
        "levels": Key(bench.DEFAULT_NOISE_LEVELS, str, "comma-separated rates", float),
        **_SOLVER_KEYS}),
    "estimate-error": ("layered circuit error estimate", {
        "layers": Key(None, str, "JSON layer spec file"),
        "preset": Key(None, str, f"one of {sorted(bench.ERROR_PRESETS)}"),
        "out": Key(None, str, "output directory")}),
    "gen-random": ("write a random instance as TSPLIB", {
        "n": Key(64, int, "number of cities"),
        "seed": Key(0, int, "generator seed"),
        "bound": Key(1000.0, float, "coordinate bound"),
        "path": Key(REQUIRED, str, "output .tsp path")}),
}
# The JSON types a config value of each flag type may have (never a bool), named.
_KINDS = {str: (str, "a string", "strings"), int: (int, "an int", "ints"),
          float: ((int, float), "a number", "numbers")}


def _check_value(key, spec: Key, value, what: str) -> None:
    """Refuse a config value unless it has its flag's type, is a list of the
    flag's items, or is None where that is the default."""
    def fits(v, kind):
        return bench.is_json(v, _KINDS[kind][0])
    if fits(value, spec.type) or (value is None and spec.default is None) or (
            spec.item and isinstance(value, list) and all(fits(v, spec.item) for v in value)):
        return
    expected = _KINDS[spec.type][1] + (f" or a list of {_KINDS[spec.item][2]}" if spec.item
                                       else "")
    raise ConfigError(f"{what} key {key!r} must be {expected}, got {value!r}")


def _merged(args):
    """Start from the command's defaults, overlay --config, overlay explicit flags."""
    keys = COMMANDS[args.command][1]
    merged = {key: spec.default for key, spec in keys.items()}
    if args.config:
        what = f"{args.command} config"
        with open(args.config, "r", encoding="utf-8") as f:
            config = bench.check_keys(json.load(f), list(keys), what)
        for key, value in config.items():
            if keys[key].type:
                _check_value(key, keys[key], value, what)
        merged.update(config)
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        merged[key] = value
    missing = [f"--{key}" for key, value in merged.items()
               if keys[key].default is REQUIRED and (value is REQUIRED or not value)]
    if missing:
        raise ConfigError(f"{' and '.join(missing)} required")
    return {key: _list(value, keys[key].item) if keys[key].item else value
            for key, value in merged.items()}


def _solver_args(cfg) -> dict:
    """The keyword arguments the solver commands build from ``_SOLVER_KEYS``."""
    return dict(
        seeds=cfg["seeds"], metric=bench.parse_metric(cfg["metric"]),
        out_dir=cfg["out"],
        qaco_params=bench.build_params(QacoParams(), cfg["qaco_params"], "qaco_params"),
        aco_params=bench.build_params(AcoParams(), cfg["aco_params"], "aco_params"),
        hybrid_overrides=bench.build_hybrid_overrides(cfg["hybrid"]),
    )


def _list(value, convert) -> list:
    """A comma-list flag's value, or a list from the config file, converted."""
    items = value if isinstance(value, (list, tuple)) else value.split(",")
    return [convert(v) for v in items if v != ""]


def _help(spec: Key) -> str:
    """A flag's help line, with its default if it has one."""
    if spec.default in (REQUIRED, None):
        return spec.help
    shown = ",".join(map(str, spec.default)) if spec.item else spec.default
    return f"{spec.help} (default {shown})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qacotsp",
        description="Hybrid quantum-classical ant colony TSP experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for key, spec in keys.items():
            if spec.type is not None:
                p.add_argument(f"--{key}", type=spec.type, default=None, help=_help(spec))
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
        rows = bench.cmd_compare(cfg["datasets"], optima=cfg["optima"],
                                 **_solver_args(cfg))
        print(f"{'dataset':<16}{'optimum':>10}"
              + "".join(f"{label:>14}" for label in bench.SOLVERS.values()))
        for row in rows:
            opt = f"{row['optimum']:g}" if row["optimum"] != "" else "-"
            print(f"{row['dataset']:<16}{opt:>10}"
                  + "".join(f"{row[solver]:>14.2f}" for solver in bench.SOLVERS))
        return 0

    if args.command == "noise-sweep":
        summary = bench.cmd_noise_sweep(cfg["instance"], cfg["noise"],
                                        levels=cfg["levels"],
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
