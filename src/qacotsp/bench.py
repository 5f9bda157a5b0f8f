"""Experiment harness: solver comparisons, noise sweeps, error estimates.

Outputs are a CSV of run records (the primary artifact, deterministically
formatted), a JSON mirror that additionally carries each tour and the
measured wall time, and small self-contained SVG plots.  The wall_ms column
of the CSV is always 0 so repeated runs with the same seeds are byte
identical; look in the JSON for real timings.  Every output file is written
to a temporary file beside it and renamed over it, so a reader never sees a
partly written file.

Config values are checked here, before anything runs: ``check_value``
checks a value against a kind (a top-level key's flag type, the type of a
parameter-block field's default, or an int for a layers file's ``m``), and
``choose`` turns a name into its member (a metric, a noise kind or a
refinement), each with an error that names the key.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .aco import AcoParams, aco_solve
from .circuit_error import (
    CircuitErrorReport,
    estimate_circuit_error,
    layer,
    qaco_circuit_layers,
)
from .hybrid import HybridConfig, LeafSolver, solve_hybrid
from .qaco import QacoParams
from .qsim import NO_NOISE, NoiseKind, NoiseSpec
from .tsplib import (
    Instance,
    InvariantError,
    MetricMode,
    Tour,
    gen_random_instance,
    load_instance,
    tour_length,
    write_atomic,
)

# Each solver name and its column label in ``comparison.csv``.
SOLVERS = {"aco": "ACO", "qaco-hybrid": "QACO", "clustered-aco": "ClusteredACO"}
CSV_HEADER = "dataset,solver,seed,noise_kind,noise_rate,length,iterations,wall_ms"
DEFAULT_NOISE_LEVELS = (0.001, 0.01, 0.02, 0.05, 0.10)
# HybridConfig fields a config's ``hybrid`` block may set; the harness sets
# the others from the solver name, the seed, the noise and the metric.
HYBRID_KEYS = ("refinement", "two_opt_max_passes", "polish_iterations", "leaf_max",
               "branching", "kmeans_restarts")
# The JSON types a config value of each kind may have (never a bool), named.
_KINDS = {str: (str, "a string", "strings"), int: (int, "an int", "ints"),
          float: ((int, float), "a number", "numbers")}


class ConfigError(ValueError):
    pass


@dataclass
class RunRecord:
    dataset: str
    solver: str
    seed: int
    noise_kind: str
    noise_rate: float
    length: float
    iterations: int
    wall_ms: float
    tour: tuple

    def csv_row(self) -> str:
        # wall_ms deliberately fixed at 0 in the CSV; see module docstring.
        return (
            f"{self.dataset},{self.solver},{self.seed},{self.noise_kind},"
            f"{self.noise_rate:g},{self.length:.6f},{self.iterations},0"
        )

    def to_json(self) -> dict:
        return {**dataclasses.asdict(self), "length": round(self.length, 6)}


def resolve_instance(spec: str) -> Instance:
    """Load an instance from a path or build one from random:<n>:<seed>[:<bound>]."""
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad random instance spec: {spec!r}")
        try:
            n, seed = int(parts[1]), int(parts[2])
            bound = float(parts[3]) if len(parts) == 4 else 1000.0
        except ValueError:
            raise ConfigError(f"bad random instance spec: {spec!r}")
        return gen_random_instance(n, seed, bound)
    if not os.path.exists(spec):
        raise ConfigError(f"instance file not found: {spec}")
    return load_instance(spec)


def parse_metric(name: str) -> MetricMode:
    return choose(name, {"canonical": MetricMode.CANONICAL, "paper": MetricMode.PLAIN}, "metric")


def parse_noise(kind: str, rate: float) -> NoiseSpec:
    noise = NoiseSpec(choose(kind, {k.value: k for k in NoiseKind}, "noise kind"), rate)
    return noise if noise.kind is not NoiseKind.NONE else NO_NOISE  # its rate checked too


def run_single(inst: Instance, solver: str, seed: int, noise: NoiseSpec,
               metric: MetricMode, qaco_params: QacoParams = QacoParams(),
               aco_params: AcoParams = AcoParams(),
               hybrid_overrides: dict = None) -> RunRecord:
    """One (instance, solver, seed, noise) cell; self-checks its own record."""
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r} (expected one of {tuple(SOLVERS)})")
    start = time.perf_counter()
    if solver == "aco":
        tour, length, history = aco_solve(inst, range(inst.dimension), aco_params,
                                          seed=seed, metric=metric)
        iterations = len(history)
    else:
        config = _hybrid_config(solver, qaco_params, aco_params, hybrid_overrides,
                               noise=noise, metric=metric, seed=seed)
        tour, length, stats = solve_hybrid(inst, config)
        iterations = stats.leaf_iterations
    wall_ms = (time.perf_counter() - start) * 1000.0

    recomputed = tour_length(inst, tour, metric)
    if not abs(recomputed - length) <= 1e-9 * max(1.0, abs(length)):
        raise InvariantError(f"{solver} on {inst.name}: reported length {length!r} "
                             f"!= recomputed {recomputed!r}")
    return RunRecord(
        dataset=inst.name,
        solver=solver,
        seed=seed,
        noise_kind=noise.kind.value,
        noise_rate=noise.rate if noise.enabled else 0.0,
        length=float(length),
        iterations=int(iterations),
        wall_ms=wall_ms,
        tour=tuple(tour.order),
    )


def _hybrid_config(solver: str, qaco_params: QacoParams, aco_params: AcoParams,
                  hybrid_overrides: dict, **cell) -> HybridConfig:
    """The ``HybridConfig`` of a qaco-hybrid or clustered-aco cell.

    ``cell`` sets the cell's ``noise``, ``metric`` and ``seed``.
    ``HybridConfig`` refuses out-of-range values with a ``ValueError``.
    """
    leaf = LeafSolver.QACO if solver == "qaco-hybrid" else LeafSolver.CLASSICAL_ACO
    return HybridConfig(leaf_solver=leaf, qaco_params=qaco_params, aco_params=aco_params,
                        **cell, **(hybrid_overrides or {}))


def run_cells(cells, metric: MetricMode, out_dir: str, qaco_params: QacoParams,
              aco_params: AcoParams, hybrid_overrides: dict) -> list:
    """Run ``(instance, solver, seed, noise)`` cells in order; append their records.

    The records go to ``results.csv`` and ``results.json`` in ``out_dir``.
    An empty cell list (an empty seed list, say), a negative seed, a cell
    listed twice (a repeated seed, say) and an existing file that cannot
    take the append are ``ConfigError``, and a hybrid setting out of range
    for one of the cells' solvers is ``ValueError``.  Each is raised before
    any cell runs, and then neither file is touched.
    """
    if not cells:
        raise ConfigError("no runs to do: the seed list is empty")
    lowest = min(seed for _, _, seed, _ in cells)
    if lowest < 0:
        raise ConfigError(f"seeds must be non-negative, got {lowest}")
    seen = set()
    for inst, solver, seed, noise in cells:
        if (inst.name, solver, seed, noise) in seen:
            raise ConfigError(f"seeds must be distinct, got {seed} twice")
        seen.add((inst.name, solver, seed, noise))
    for solver in sorted({solver for _, solver, _, _ in cells} - {"aco"}):
        _hybrid_config(solver, qaco_params, aco_params, hybrid_overrides)
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "results.json")
    _existing_csv(csv_path)
    _existing_json(json_path)
    records = [run_single(inst, solver, seed, noise, metric, qaco_params, aco_params,
                          hybrid_overrides)
               for inst, solver, seed, noise in cells]
    os.makedirs(out_dir, exist_ok=True)
    write_records_csv(records, csv_path)
    write_records_json(records, json_path)
    return records


def _existing_csv(path) -> str:
    """The results CSV at ``path`` (just the header if absent), checked for its header."""
    if not os.path.exists(path):
        return CSV_HEADER + "\n"
    with open(path, "r", encoding="utf-8", newline="") as f:
        text = f.read()
    header = text.partition("\n")[0].strip()
    if header != CSV_HEADER:
        raise ConfigError(f"cannot append to {path}: unexpected header {header!r}")
    return text


def _existing_json(path) -> list:
    """The records in the results JSON at ``path``, checked to be a list."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as f:
        records = json.load(f)
    if not isinstance(records, list):
        raise ConfigError(f"cannot append to {path}: it holds no JSON list")
    return records


def write_records_csv(records, path) -> None:
    """Append the records as CSV rows to ``path``, a new file getting ``CSV_HEADER``.

    An existing file must start with ``CSV_HEADER``, else ``ConfigError`` is
    raised and the file is left as it was.
    """
    write_atomic(path, _existing_csv(path) + "".join(rec.csv_row() + "\n" for rec in records))


def write_records_json(records, path) -> None:
    """Append the records to the JSON list at ``path``, a new file holding just them.

    An existing file must hold a JSON list, else ``ConfigError`` is raised
    and the file is left as it was.
    """
    existing = _existing_json(path)
    existing.extend(rec.to_json() for rec in records)
    write_atomic(path, json.dumps(existing, indent=1) + "\n")


def median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


def _block_medians(records, blocks: int) -> list:
    """The median length of each of ``blocks`` equal runs of consecutive records."""
    size = len(records) // blocks
    return [median(r.length for r in records[i:i + size])
            for i in range(0, len(records), size)]


# ---------------------------------------------------------------------------
# subcommand drivers


def cmd_solve(instance_spec: str, solver: str, seeds, noise: NoiseSpec,
              metric: MetricMode, out_dir: str, qaco_params=QacoParams(),
              aco_params=AcoParams(), hybrid_overrides=None) -> list:
    """Solve one instance with one solver across seeds; append records."""
    inst = resolve_instance(instance_spec)
    return run_cells([(inst, solver, int(seed), noise) for seed in seeds],
                     metric, out_dir, qaco_params, aco_params, hybrid_overrides)


def cmd_compare(dataset_specs, seeds, metric: MetricMode, out_dir: str,
                optima: dict = None, qaco_params=QacoParams(),
                aco_params=AcoParams(), hybrid_overrides=None) -> list:
    """Median-over-seeds table of every solver on every dataset.

    Returns the table rows as dicts and writes comparison.csv plus the raw
    records.  ``optima`` maps dataset names to known optimum lengths; it
    must be a JSON object of numbers, else ``ConfigError`` before any run.
    Two datasets of one name, whose rows would mix, are one too
    (``random:8:5:100`` and ``random:8:5:1000`` are both ``random-8-s5``).
    """
    optima = {} if optima is None else optima
    if not isinstance(optima, dict) or not all(
            is_json(v, (int, float)) for v in optima.values()):
        raise ConfigError(f"optima must be a JSON object of numbers, got {optima!r}")
    instances = [resolve_instance(spec) for spec in dataset_specs]
    names = [inst.name for inst in instances]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ConfigError(f"datasets must have distinct names; {', '.join(duplicates)} "
                          f"appears more than once")
    cells = [
        (inst, solver, int(seed), NoiseSpec())
        for inst in instances
        for solver in SOLVERS
        for seed in seeds
    ]
    records = run_cells(cells, metric, out_dir, qaco_params, aco_params, hybrid_overrides)
    medians = iter(_block_medians(records, len(instances) * len(SOLVERS)))
    rows = [{"dataset": inst.name, "optimum": optima.get(inst.name, ""),
             **{solver: next(medians) for solver in SOLVERS}} for inst in instances]

    lines = ["dataset,optimum," + ",".join(SOLVERS.values()) + "\n"]
    for row in rows:
        opt = f"{row['optimum']:g}" if row["optimum"] != "" else ""
        lines.append(f"{row['dataset']},{opt},"
                     + ",".join(f"{row[solver]:.6f}" for solver in SOLVERS) + "\n")
    write_atomic(os.path.join(out_dir, "comparison.csv"), "".join(lines))
    return rows


def cmd_noise_sweep(instance_spec: str, noise_kind: str, seeds, metric: MetricMode,
                    out_dir: str, levels=DEFAULT_NOISE_LEVELS,
                    qaco_params=QacoParams(), aco_params=AcoParams(),
                    hybrid_overrides=None) -> dict:
    """QACO-hybrid at each noise level plus a noiseless baseline.

    Deviation(%) is the maximum relative deviation of a per-level median from
    the noiseless median.  Writes sweep.csv (one row per dataset, one column
    per level mirroring the reference table layout) and a deviation SVG.
    """
    if noise_kind not in ("bitflip", "thermal"):
        raise ConfigError("noise-sweep requires --noise bitflip or thermal")
    levels = list(levels)
    if not levels:
        raise ConfigError("noise-sweep needs at least one noise level")
    if len(set(levels)) < len(levels):
        raise ConfigError(f"noise-sweep levels must differ, got {levels}")
    inst = resolve_instance(instance_spec)
    specs = [NoiseSpec()] + [parse_noise(noise_kind, lvl) for lvl in levels]
    cells = [(inst, "qaco-hybrid", int(seed), spec) for spec in specs for seed in seeds]
    records = run_cells(cells, metric, out_dir, qaco_params, aco_params, hybrid_overrides)

    baseline, *medians = _block_medians(records, len(specs))
    level_medians = dict(zip(levels, medians))
    # Equal medians deviate by 0, also when every tour has length 0.
    dev_curve = [0.0 if med == baseline else abs(med - baseline) / baseline * 100.0
                 for med in medians]
    deviation = max(dev_curve)

    header = "dataset,noise_kind,ideal," + ",".join(
        f"{lvl * 100:g}%" for lvl in levels
    ) + ",deviation_pct"
    write_atomic(
        os.path.join(out_dir, "sweep.csv"),
        header + "\n"
        + f"{inst.name},{noise_kind},{baseline:.6f},"
        + ",".join(f"{med:.6f}" for med in medians)
        + f",{deviation:.4f}\n",
    )

    os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)
    svg_path = os.path.join(out_dir, "plots", f"deviation_{inst.name}_{noise_kind}.svg")
    write_svg_plot(svg_path, [lvl * 100 for lvl in levels], inst.name, dev_curve,
                   title=f"{noise_kind} deviation vs noise level",
                   xlabel="noise level (%)", ylabel="deviation (%)")
    return {"baseline": baseline, "levels": level_medians, "deviation": deviation}


ERROR_PRESETS = {
    "heron-4city": dict(k_cities=4),
}


def cmd_estimate_error(layers_file: str = None, preset: str = None,
                       out_dir: str = None) -> CircuitErrorReport:
    """Evaluate the layered error estimate from a JSON spec or a preset."""
    if (layers_file is None) == (preset is None):
        raise ConfigError("provide exactly one of a layers file or a preset")
    if preset is not None:
        if preset not in ERROR_PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(ERROR_PRESETS)}")
        layers = qaco_circuit_layers(**ERROR_PRESETS[preset])
    else:
        with open(layers_file, "r", encoding="utf-8") as f:
            layers = _parse_layers(json.load(f))
    report = estimate_circuit_error(layers)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_atomic(os.path.join(out_dir, "error_report.json"),
                     json.dumps({"s": report.s, "depth": report.depth,
                                 "layer_averages": list(report.layer_averages)}, indent=1)
                     + "\n")
    return report


def _parse_layers(raw) -> list:
    """The layers of an ``estimate-error --layers`` file, from its parsed JSON.

    The file holds a non-empty list of objects ``{"gates": [[name, count,
    rate], ...], "m": m}`` with ``m`` optional.  Counts and ``m`` must be
    ints and rates numbers, neither a bool (JSON ``true`` would pass as 1);
    anything else is ``ConfigError``.  Ranges are ``estimate_circuit_error``'s.
    """
    if not isinstance(raw, list) or not raw:
        raise ConfigError("layers file must hold a non-empty list of layers")
    layers = []
    for j, entry in enumerate(raw, start=1):
        what = f"layer {j}"
        gates = check_keys(entry, ("gates", "m"), what).get("gates")
        if not isinstance(gates, list) or not gates:
            raise ConfigError(f"{what} needs a non-empty 'gates' list, got {gates!r}")
        for gate in gates:
            if not (isinstance(gate, list) and len(gate) == 3
                    and is_json(gate[1], int) and is_json(gate[2], (int, float))):
                raise ConfigError(f"{what}: each gate must be [name, int count, number rate], "
                                  f"got {gate!r}")
        m = entry.get("m")
        if m is not None:
            check_value("m", m, int, what)
        layers.append(layer(gates, m=m))
    return layers


def is_json(value, kinds) -> bool:
    """Whether a parsed JSON value is one of ``kinds``, a bool counting as none."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def write_svg_plot(path, xs, label: str, ys, title="", xlabel="", ylabel="") -> None:
    """Minimal self-contained SVG line/scatter plot of one series, deterministic bytes."""
    width, height, margin = 640, 420, 60
    color = "#1f77b4"
    xs, ys = list(xs), list(ys)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [1e-12])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x:g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{margin - 6}" y="{py(y) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y:.3g}</text>'
        )
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                 f'stroke-width="1.5"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                     f'fill="{color}"/>')
    parts.append(
        f'<text x="{width - margin + 4}" y="{margin + 10}" '
        f'font-family="sans-serif" font-size="10" fill="{color}">{label}</text>'
    )
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")


def check_keys(block, allowed, what: str) -> dict:
    """``block`` if it is a JSON object whose keys are all in ``allowed``.

    Otherwise ``ConfigError`` naming the allowed keys, so a typo in a config
    file stops the run instead of being dropped or reaching a constructor.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be a JSON object with keys from "
                          f"{', '.join(allowed)}; got {type(block).__name__}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                          f"allowed: {', '.join(allowed)}")
    return block


def check_value(key, value, kind, what: str, item=None) -> None:
    """Refuse a config value unless it is a JSON ``kind`` (one of ``_KINDS``) or a
    list of ``item``s.  No kind takes a bool, which JSON ``true`` would pass as 1."""
    if is_json(value, _KINDS[kind][0]) or (item and isinstance(value, list) and all(
            is_json(v, _KINDS[item][0]) for v in value)):
        return
    expected = _KINDS[kind][1] + (f" or a list of {_KINDS[item][2]}" if item else "")
    raise ConfigError(f"{what} key {key!r} must be {expected}, got {value!r}")


def choose(value, choices: dict, what: str):
    """``choices[value]``, or ``ConfigError`` naming ``what`` and the allowed names."""
    try:
        return choices[value]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown {what} {value!r} (expected {'|'.join(choices)})")


def _check_block(block, defaults, allowed, what: str) -> dict:
    """The fields a config block sets (``check_keys`` first), each checked against
    its default's type; an enum field's member is chosen by its value."""
    out = dict(check_keys(block, allowed, what))
    for key, value in out.items():
        kind = type(getattr(defaults, key))
        if issubclass(kind, enum.Enum):
            out[key] = choose(value, {m.value: m for m in kind}, key)
        else:
            check_value(key, value, kind, what)
    return out


def build_params(params, overrides: dict, what: str):
    """``params`` with the fields a config block ``what`` sets replaced."""
    fields = [f.name for f in dataclasses.fields(params)]
    return dataclasses.replace(params, **_check_block(overrides, params, fields, what))


def build_hybrid_overrides(overrides: dict):
    """A config's ``hybrid`` block, a JSON object that sets only ``HYBRID_KEYS``,
    as ``HybridConfig`` keywords, or None if empty."""
    return _check_block(overrides, HybridConfig(), HYBRID_KEYS, "hybrid") or None
