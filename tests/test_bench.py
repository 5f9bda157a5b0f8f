import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from qacotsp import bench, cli
from qacotsp.bench import (
    CSV_HEADER,
    ConfigError,
    RunRecord,
    build_hybrid_overrides,
    cmd_compare,
    cmd_estimate_error,
    cmd_noise_sweep,
    cmd_solve,
    parse_metric,
    parse_noise,
    resolve_instance,
    run_single,
    write_records_csv,
    write_records_json,
)
from qacotsp.qaco import QacoParams
from qacotsp.aco import AcoParams
from qacotsp.hybrid import Refinement
from qacotsp.qsim import NoiseSpec
from qacotsp.tsplib import (
    InvariantError,
    MetricMode,
    Tour,
    format_instance,
    gen_random_instance,
    load_instance,
    parse_instance,
    tour_length,
    validate_tour,
)

FAST_QACO = QacoParams(max_iter=80, convergence_window=40, stall_window=20)
FAST_ACO = AcoParams(iterations=40)
FAST_HYBRID = {"kmeans_restarts": 3}


def test_resolve_instance_random_spec():
    inst = resolve_instance("random:8:3:100")
    assert inst.dimension == 8
    again = resolve_instance("random:8:3:100")
    assert np.array_equal(inst.coords, again.coords)
    with pytest.raises(ConfigError):
        resolve_instance("random:8")
    with pytest.raises(ConfigError):
        resolve_instance("/nonexistent/foo.tsp")


def test_parse_helpers():
    assert parse_metric("paper") is MetricMode.PLAIN
    assert parse_metric("canonical") is MetricMode.CANONICAL
    with pytest.raises(ConfigError):
        parse_metric("fancy")
    spec = parse_noise("bitflip", 0.05)
    assert spec.rate == 0.05
    with pytest.raises(ConfigError):
        parse_noise("cosmic", 0.1)
    with pytest.raises(ConfigError):
        parse_noise(["bitflip"], 0.1)


def test_run_single_unknown_solver():
    inst = resolve_instance("random:6:1:100")
    with pytest.raises(ConfigError):
        run_single(inst, "simulated-annealing", 0, NoiseSpec(), MetricMode.PLAIN)


def test_run_single_self_checks_record():
    inst = resolve_instance("random:9:2:100")
    rec = run_single(inst, "qaco-hybrid", 0, NoiseSpec(), MetricMode.PLAIN,
                     FAST_QACO, FAST_ACO, FAST_HYBRID)
    assert validate_tour(rec.tour, 9)
    recomputed = tour_length(inst, Tour(rec.tour), MetricMode.PLAIN)
    assert abs(recomputed - rec.length) <= 1e-9


def test_run_single_raises_when_length_disagrees(monkeypatch):
    monkeypatch.setattr(bench, "tour_length", lambda inst, tour, metric: 1e9)
    with pytest.raises(InvariantError):
        run_single(resolve_instance("random:6:1:100"), "aco", 0, NoiseSpec(),
                   MetricMode.PLAIN, aco_params=AcoParams(iterations=2))


def test_cmd_solve_writes_outputs(tmp_path):
    out = tmp_path / "runs"
    records = cmd_solve("random:8:5:100", "aco", [0, 1, 2], NoiseSpec(),
                        MetricMode.PLAIN, str(out), FAST_QACO, FAST_ACO)
    assert len(records) == 3
    csv_text = (out / "results.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 4

    data = json.loads((out / "results.json").read_text())
    assert len(data) == 3
    inst = resolve_instance("random:8:5:100")
    for entry in data:
        assert validate_tour(entry["tour"], 8)
        recomputed = tour_length(inst, Tour(tuple(entry["tour"])), MetricMode.PLAIN)
        assert abs(recomputed - entry["length"]) <= 1e-5  # length rounded to 6 dp
        assert entry["wall_ms"] >= 0.0

    # appending grows the same files without duplicating the header
    cmd_solve("random:8:5:100", "aco", [3], NoiseSpec(), MetricMode.PLAIN,
              str(out), FAST_QACO, FAST_ACO)
    assert len((out / "results.csv").read_text().splitlines()) == 5
    assert len(json.loads((out / "results.json").read_text())) == 4


def test_records_deterministic_per_seed(tmp_path):
    kwargs = dict(noise=NoiseSpec(), metric=MetricMode.PLAIN,
                  qaco_params=FAST_QACO, aco_params=FAST_ACO,
                  hybrid_overrides=FAST_HYBRID)
    a = cmd_solve("random:10:7:100", "qaco-hybrid", [0, 1, 2, 3, 4],
                  out_dir=str(tmp_path / "a"), **kwargs)
    b = cmd_solve("random:10:7:100", "qaco-hybrid", [0, 1, 2, 3, 4],
                  out_dir=str(tmp_path / "b"), **kwargs)
    assert [r.length for r in a] == [r.length for r in b]
    assert [r.tour for r in a] == [r.tour for r in b]


def test_cmd_compare_single_dataset(tmp_path):
    rows = cmd_compare(["random:9:11:100"], [0, 1, 2], MetricMode.PLAIN,
                       str(tmp_path / "runs"), {"random-9-s11": 123.0},
                       FAST_QACO, FAST_ACO, FAST_HYBRID)
    assert len(rows) == 1
    row = rows[0]
    assert row["dataset"] == "random-9-s11"
    assert row["optimum"] == 123.0
    for solver in ("aco", "qaco-hybrid", "clustered-aco"):
        assert row[solver] > 0.0
    table = (tmp_path / "runs" / "comparison.csv").read_text().splitlines()
    assert table[0] == "dataset,optimum,ACO,QACO,ClusteredACO"
    assert table[1].startswith("random-9-s11,123,")


def test_noise_sweep_columns_and_deviation(tmp_path):
    out = tmp_path / "runs"
    summary = cmd_noise_sweep("random:8:13:100", "bitflip", [0, 1], MetricMode.PLAIN,
                              str(out), levels=[0.01, 0.05], qaco_params=FAST_QACO,
                              hybrid_overrides=FAST_HYBRID)
    assert summary["deviation"] >= 0.0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "dataset,noise_kind,ideal,1%,5%,deviation_pct"
    svgs = os.listdir(out / "plots")
    assert any(name.endswith(".svg") for name in svgs)
    svg_text = (out / "plots" / svgs[0]).read_text()
    assert svg_text.startswith("<svg") and "polyline" in svg_text


def test_noise_sweep_zero_rate_zero_deviation(tmp_path):
    summary = cmd_noise_sweep("random:8:13:100", "bitflip", [0, 1], MetricMode.PLAIN,
                              str(tmp_path / "runs"), levels=[0.0],
                              qaco_params=FAST_QACO, hybrid_overrides=FAST_HYBRID)
    assert summary["deviation"] == pytest.approx(0.0, abs=1e-12)


def test_cli_noise_sweep_passes_aco_params_to_polish(tmp_path):
    # the config's refinement name must select aco-polish, and its aco_params
    # must reach the polish
    texts = []
    for name, aco_params in (("default", {}), ("greedy-off", {"q0": 0.0})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({
            "qaco_params": {"max_iter": 80, "convergence_window": 40, "stall_window": 20},
            "aco_params": aco_params,
            "hybrid": {"kmeans_restarts": 3, "refinement": "aco-polish",
                       "polish_iterations": 5},
        }))
        out = tmp_path / name
        assert cli.main(["noise-sweep", "--instance", "random:12:13:100", "--noise", "bitflip",
                         "--seeds", "0", "--levels", "0.05", "--metric", "paper",
                         "--out", str(out), "--config", str(config)]) == 0
        texts.append((out / "results.csv").read_text())
    assert texts[0] != texts[1]


def test_build_hybrid_overrides_converts_and_rejects():
    assert build_hybrid_overrides({}) is None
    assert build_hybrid_overrides({"refinement": "aco-polish", "leaf_max": 3}) == {
        "refinement": Refinement.ACO_POLISH, "leaf_max": 3}
    with pytest.raises(ConfigError):
        build_hybrid_overrides({"refinement": "3-opt"})
    with pytest.raises(ConfigError):
        build_hybrid_overrides({"leaf_solver": "brute"})


def test_cli_noise_sweep_on_coincident_cities_deviates_0(tmp_path, capsys):
    # Every tour of five cities at one point has length 0, the baseline too.
    path = tmp_path / "point.tsp"
    path.write_text("NAME : point5\nTYPE : TSP\nDIMENSION : 5\nEDGE_WEIGHT_TYPE : EUC_2D\n"
                    "NODE_COORD_SECTION\n" + "".join(f"{i} 1 1\n" for i in range(1, 6))
                    + "EOF\n")
    out = tmp_path / "runs"
    assert cli.main(["noise-sweep", "--instance", str(path), "--noise", "bitflip",
                     "--seeds", "0", "--levels", "0.1", "--out", str(out),
                     "--config", _fast_config(tmp_path)]) == 0
    assert (out / "sweep.csv").read_text().splitlines()[1] == (
        "point5,bitflip,0.000000,0.000000,0.0000")
    assert "max deviation: 0.00%" in capsys.readouterr().out


def test_noise_sweep_requires_noisy_kind(tmp_path):
    with pytest.raises(ConfigError):
        cmd_noise_sweep("random:8:13:100", "none", [0], MetricMode.PLAIN,
                        str(tmp_path / "runs"))


def test_sweep_deviation_matches_independent_recomputation(tmp_path):
    out = tmp_path / "runs"
    summary = cmd_noise_sweep("random:8:13:100", "bitflip", [0, 1], MetricMode.PLAIN,
                              str(out), levels=[0.01, 0.1], qaco_params=FAST_QACO,
                              aco_params=FAST_ACO, hybrid_overrides=FAST_HYBRID)
    baseline = summary["baseline"]
    expected = max(abs(m - baseline) for m in summary["levels"].values()) / baseline * 100.0
    assert summary["deviation"] == pytest.approx(expected)
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert float(row[-1]) == pytest.approx(expected, abs=5e-5)


def test_estimate_error_preset_and_file(tmp_path):
    report = cmd_estimate_error(preset="heron-4city")
    assert 0.0 <= report.s <= 1.0
    assert report.depth == 2

    layers_path = tmp_path / "layers.json"
    layers_path.write_text(json.dumps([
        {"m": 4, "gates": [["a", 1, 0.01], ["b", 3, 0.03]]},
        {"m": 3, "gates": [["measure", 3, 0.01]]},
    ]))
    report = cmd_estimate_error(layers_file=str(layers_path),
                                out_dir=str(tmp_path / "runs"))
    expected = 1.0 - (1.0 - 0.025) ** 4 * (1.0 - 0.01) ** 3
    assert report.s == pytest.approx(expected, abs=1e-12)
    saved = json.loads((tmp_path / "runs" / "error_report.json").read_text())
    assert saved["s"] == pytest.approx(expected, abs=1e-12)

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(ConfigError):
        cmd_estimate_error(layers_file=str(empty))


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_solve_and_errors(tmp_path):
    out = str(tmp_path / "runs")
    code = cli.main([
        "solve", "--instance", "random:8:5:100", "--solver", "aco",
        "--seeds", "0,1", "--metric", "paper", "--out", out,
        "--config", _fast_config(tmp_path),
    ])
    assert code == 0
    assert os.path.exists(os.path.join(out, "results.csv"))

    assert cli.main(["solve", "--instance", "random:8:5:100",
                     "--solver", "warp-drive", "--out", out]) == 2
    assert cli.main(["solve", "--solver", "aco", "--out", out]) == 2


FAST_CONFIG = {
    "qaco_params": {"max_iter": 80, "convergence_window": 40, "stall_window": 20},
    "aco_params": {"iterations": 40},
    "hybrid": {"kmeans_restarts": 3},
}


def _fast_config(tmp_path):
    path = tmp_path / "fast.json"
    if not path.exists():
        path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


# Each flag's value as (command-line string, config value); a flag missing
# here fails its case below.  ``out``, ``path`` and ``layers`` name files.
MIRROR_VALUES = {
    "instance": ("random:7:3:100", "random:7:3:100"),
    "solver": ("clustered-aco", "clustered-aco"),
    "noise": ("thermal", "thermal"),
    "rate": ("0.05", 0.05),
    "metric": ("paper", "paper"),
    "seeds": ("1,2", [1, 2]),
    "datasets": ("random:7:3:100,random:6:2:100", ["random:7:3:100", "random:6:2:100"]),
    "levels": ("0.02,0.2", [0.02, 0.2]),
    "preset": ("heron-4city", "heron-4city"),
    "n": ("9", 9),
    "seed": ("3", 3),
    "bound": ("250", 250),
}
# The flags each command gets on the command line besides the one under test.
MIRROR_BASE = {
    "solve": {"instance": "random:6:1:100", "solver": "aco", "noise": "bitflip",
              "seeds": "0"},
    "compare": {"datasets": "random:6:1:100", "seeds": "0"},
    "noise-sweep": {"instance": "random:6:1:100", "noise": "bitflip", "levels": "0.1",
                    "seeds": "0"},
    "estimate-error": {"preset": "heron-4city"},
    "gen-random": {"n": "8"},
}


def _outputs(run) -> dict:
    """Every file under ``run`` by relative path, ``results.json`` without ``wall_ms``."""
    files = {}
    for path in sorted(run.rglob("*")):
        data = path.read_bytes() if path.is_file() else None
        if path.name == "results.json":
            data = [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in json.loads(data)]
        files[path.relative_to(run).as_posix()] = data
    return files


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, keys) in cli.COMMANDS.items()
    for key, spec in keys.items() if spec.type is not None
], ids=lambda value: value)
def test_cli_config_mirrors_flags(command, key, tmp_path, capsys):
    # Setting a flag on the command line or through --config gives the same run.
    keys = cli.COMMANDS[command][1]
    layers = tmp_path / "layers.json"
    layers.write_text(json.dumps([{"gates": [["ry", 9, 0.0003]]}, {"gates": [["m", 9, 0.01]]}]))
    fast = FAST_CONFIG if "hybrid" in keys else {}
    results = []
    for via_config in (False, True):
        run = tmp_path / ("config" if via_config else "flag")
        run.mkdir()
        files = {"out": str(run), "path": str(run / "rnd.tsp"), "layers": str(layers)}
        values = {**MIRROR_VALUES, **{k: (v, v) for k, v in files.items()}}
        flags = {k: v for k, v in MIRROR_BASE[command].items()
                 if k != key and not (key == "layers" and k == "preset")}
        flags.update({k: files[k] for k in ("out", "path") if k in keys and k != key})
        config = dict(fast)
        if via_config:
            config[key] = values[key][1]
        else:
            flags[key] = values[key][0]
        path = tmp_path / f"{run.name}.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        for k, v in flags.items():
            argv += [f"--{k}", v]
        assert cli.main(argv) == 0
        printed = re.sub(r"\(\d+ ms\)", "", capsys.readouterr().out.replace(str(run), "RUN"))
        results.append((printed, _outputs(run)))
    assert results[0][1], "the run wrote no file"
    assert results[0] == results[1]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_help_exits_0(command, capsys):
    # A help string with a bare % breaks --help alone.
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_cli_unknown_metric_exits_2(tmp_path, capsys):
    out = tmp_path / "runs"
    assert cli.main(["solve", "--instance", "random:8:5:100", "--metric", "bogus",
                     "--seeds", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: unknown metric 'bogus' (expected canonical|paper)\n")


def test_cli_gen_random_roundtrip(tmp_path):
    path = tmp_path / "rnd.tsp"
    code = cli.main(["gen-random", "--n", "12", "--seed", "4",
                     "--bound", "250", "--path", str(path)])
    assert code == 0
    inst = load_instance(path)
    assert inst.dimension == 12
    direct = gen_random_instance(12, 4, 250.0)
    assert np.allclose(inst.coords, direct.coords, atol=1e-9)


def test_cli_gen_random_into_missing_directory_names_the_path(tmp_path, capsys):
    path = tmp_path / "nodir" / "x.tsp"
    assert cli.main(["gen-random", "--n", "5", "--seed", "1", "--bound", "10",
                     "--path", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(path)!r}\n")
    assert not (tmp_path / "nodir").exists()


def test_cli_estimate_error(tmp_path, capsys):
    code = cli.main(["estimate-error", "--preset", "heron-4city"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "failure probability" in printed
    assert cli.main(["estimate-error", "--preset", "nope"]) == 2
    # 2 bits per city cannot encode the 10 cities of a 21-qubit register
    assert cli.main(["estimate-error", "--preset", "heron-10city"]) == 2


@pytest.mark.parametrize("layers, message", [
    ([{"m": 2}], "non-empty 'gates' list"),
    ([1], "must be a JSON object"),
    ([{"gates": [["ry", 2]]}], "each gate must be [name, int count, number rate]"),
    ([{"gates": "ry"}], "non-empty 'gates' list"),
    ([{"gates": [["ry", True, 0.001]]}], "each gate must be [name, int count, number rate]"),
    ([{"gates": [["ry", 0, 0.1]]}], "gate count must be positive, got 0"),
], ids=["no-gates", "not-an-object", "short-gate", "gates-not-a-list", "bool-count",
        "zero-count"])
def test_cli_malformed_layers_file_exits_2_before_writing(layers, message, tmp_path, capsys):
    path = tmp_path / "layers.json"
    path.write_text(json.dumps(layers))
    out = tmp_path / "runs"
    assert cli.main(["estimate-error", "--layers", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: layer 1") and message in err


@pytest.mark.parametrize("name, bad, command", [
    ("eil,51", ",", ["solve", "--solver", "qaco-hybrid"]),
    ("sub/u16", "/", ["noise-sweep", "--noise", "bitflip", "--levels", "0.1"]),
], ids=["solve-comma", "noise-sweep-slash"])
def test_cli_instance_name_that_breaks_outputs_exits_2_before_writing(name, bad, command,
                                                                      tmp_path, capsys):
    # A comma adds a CSV field; a slash puts the plot in a missing directory.
    text = format_instance(gen_random_instance(8, 5, 100.0))
    path = tmp_path / "bad.tsp"
    path.write_text(text.replace("NAME : random-8-s5", f"NAME : {name}"))
    out = tmp_path / "runs"
    assert cli.main(command + ["--instance", str(path), "--seeds", "0",
                               "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert name in err and repr(bad) in err


@pytest.mark.parametrize("config, allowed", [
    ({"qaco_params": {"max_iters": 5}}, "max_iter"),
    ({"hybrid": {"leafmax": 3}}, "leaf_max"),
    ([{"seeds": [0]}], "seeds"),
    ({"seed": 3}, "seeds"),
    ({"hybrid": {"seed": 3}}, "kmeans_restarts"),
    ({"hybrid": {"noise": "bitflip"}}, "kmeans_restarts"),
    ({"hybrid": {"metric": "paper"}}, "kmeans_restarts"),
    ({"hybrid": {"qaco_params": {}}}, "kmeans_restarts"),
    ({"hybrid": {"aco_params": {}}}, "kmeans_restarts"),
], ids=["qaco-typo", "hybrid-typo", "top-level-list", "top-level-typo", "hybrid-seed",
        "hybrid-noise", "hybrid-metric", "hybrid-qaco-params", "hybrid-aco-params"])
def test_cli_bad_config_key_exits_2_before_writing(config, allowed, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "runs"
    assert cli.main(["solve", "--instance", "random:8:5:100", "--solver", "aco",
                     "--seeds", "0", "--out", str(out), "--config", str(path)]) == 2
    assert not out.exists()
    assert allowed in capsys.readouterr().err


@pytest.mark.parametrize("solver, config, key", [
    ("aco", {"aco_params": {"iterations": "5"}}, "iterations"),
    ("aco", {"aco_params": {"alpha": "1"}}, "alpha"),
    ("qaco-hybrid", {"qaco_params": {"n_ants": 2.5}}, "n_ants"),
    ("qaco-hybrid", {"qaco_params": {"stall_window": "5"}}, "stall_window"),
    ("qaco-hybrid", {"hybrid": {"two_opt_max_passes": "3"}}, "two_opt_max_passes"),
    ("qaco-hybrid", {"qaco_params": {"max_iter": 0}}, "max_iter"),
    ("aco", {"aco_params": {"iterations": 0}}, "iterations"),
    ("aco", {"aco_params": {"n_ants": 0}}, "n_ants"),
    ("qaco-hybrid", {"qaco_params": {"pool_capacity": 0}}, "pool_capacity"),
    ("qaco-hybrid", {"qaco_params": {"n_ants": 0}}, "n_ants"),
    ("qaco-hybrid", {"hybrid": {"branching": 1}}, "branching"),
    ("aco", {"aco_params": {"q0": True}}, "q0"),
    ("qaco-hybrid", {"hybrid": {"two_opt_max_passes": -1}}, "max_passes"),
    ("qaco-hybrid", {"hybrid": {"polish_iterations": -3, "refinement": "aco-polish"}},
     "iterations"),
    ("aco", {"instance": 5}, "instance"),
    ("aco", {"metric": ["paper"]}, "metric"),
    ("aco", {"rate": None}, "rate"),
    ("aco", {"seeds": [0.5]}, "seeds"),
], ids=["aco-iterations-str", "aco-alpha-str", "qaco-n-ants-float", "qaco-stall-window-str",
        "hybrid-two-opt-passes-str", "qaco-max-iter-0", "aco-iterations-0", "aco-n-ants-0",
        "qaco-pool-capacity-0", "qaco-n-ants-0", "hybrid-branching-1", "aco-q0-bool",
        "hybrid-two-opt-passes-negative", "hybrid-polish-iterations-negative",
        "instance-int", "metric-list", "rate-null", "seeds-float"])
def test_cli_bad_config_value_exits_2_before_writing(solver, config, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "runs"
    assert cli.main(["solve", "--instance", "random:12:5:100", "--solver", solver,
                     "--seeds", "0", "--out", str(out), "--config", str(path)]) == 2
    assert not out.exists()
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    (["solve"], {"hybrid": {"two_opt_max_passes": -1}}, "two_opt_max_passes"),
    (["solve"], {"hybrid": {"polish_iterations": -1, "refinement": "aco-polish"}},
     "polish_iterations"),
    (["solve"], {"hybrid": {"leaf_max": 5}}, "leaf_max"),
    (["compare"], {"hybrid": {"leaf_max": 5}}, "leaf_max"),
    (["noise-sweep", "--noise", "bitflip"], {"hybrid": {"leaf_max": 5}}, "leaf_max"),
    (["solve"], {"hybrid": {"leaf_max": 1}}, "leaf_max"),
    (["solve", "--solver", "clustered-aco"], {"hybrid": {"leaf_max": 1}}, "leaf_max"),
    (["solve"], {"hybrid": {"branching": 1}}, "branching"),
    (["solve"], {"hybrid": {"kmeans_restarts": 0}}, "kmeans_restarts"),
    (["solve"], {"qaco_params": {"stall_window": -1}}, "stall_window"),
    (["solve"], {"qaco_params": {"convergence_window": -1}}, "convergence_window"),
    (["solve", "--solver", "aco"], {"aco_params": {"alpha": float("nan")}}, "alpha"),
    (["solve", "--solver", "aco"], {"aco_params": {"beta": float("inf")}}, "beta"),
    (["solve", "--solver", "clustered-aco"], {"aco_params": {"tau0": float("-inf")}},
     "tau0"),
    (["compare"], {"aco_params": {"deposit": float("nan")}}, "deposit"),
    (["solve", "--solver", "aco"], {"aco_params": {"tau0": -1.0}}, "tau0"),
    (["solve", "--solver", "aco"], {"aco_params": {"deposit": -0.5}}, "deposit"),
], ids=["two-opt-passes-negative", "polish-iterations-negative", "leaf-max-5-solve",
        "leaf-max-5-compare", "leaf-max-5-noise-sweep", "leaf-max-1",
        "leaf-max-1-clustered-aco", "branching-1", "kmeans-restarts-0",
        "stall-window-negative", "convergence-window-negative", "aco-alpha-nan",
        "aco-beta-inf", "aco-tau0-minus-inf", "aco-deposit-nan-compare",
        "aco-tau0-negative", "aco-deposit-negative"])
def test_cli_bad_range_exits_2_before_any_solve(command, config, key, tmp_path, capsys,
                                                monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(bench, "solve_hybrid", no_solve)
    monkeypatch.setattr(bench, "aco_solve", no_solve)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "runs"
    where = "--datasets" if command[0] == "compare" else "--instance"
    assert cli.main(command + [where, "random:12:5:100", "--seeds", "0", "--out", str(out),
                               "--config", str(path)]) == 2
    assert not out.exists()
    assert key in capsys.readouterr().err


def _forbid_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(bench, "solve_hybrid", no_solve)
    monkeypatch.setattr(bench, "aco_solve", no_solve)


# Every field a parameter block of the config may set.
BLOCK_FIELDS = ([("qaco_params", f.name) for f in dataclasses.fields(QacoParams)]
                + [("aco_params", f.name) for f in dataclasses.fields(AcoParams)]
                + [("hybrid", key) for key in bench.HYBRID_KEYS])


@pytest.mark.parametrize("value", [True, "1"], ids=["true", "string"])
@pytest.mark.parametrize("block, key", BLOCK_FIELDS,
                         ids=[f"{block}.{key}" for block, key in BLOCK_FIELDS])
def test_cli_block_field_of_the_wrong_type_exits_2_before_writing(block, key, value,
                                                                  tmp_path, capsys,
                                                                  monkeypatch):
    _forbid_solves(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({block: {key: value}}))
    out = tmp_path / "runs"
    assert cli.main(["solve", "--instance", "random:8:5:100", "--seeds", "0",
                     "--out", str(out), "--config", str(path)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{block} key {key!r} must be" in err or f"unknown {key} {value!r}" in err


@pytest.mark.parametrize("command", [
    ["solve", "--instance", "random:30:1:100", "--solver", "aco"],
    ["compare", "--datasets", "random:30:1:100"],
    ["noise-sweep", "--instance", "random:30:1:100", "--noise", "bitflip"],
], ids=["solve", "compare", "noise-sweep"])
def test_cli_negative_seed_exits_2_before_any_solve(command, tmp_path, capsys, monkeypatch):
    _forbid_solves(monkeypatch)
    out = tmp_path / "runs"
    assert cli.main(command + ["--seeds", "0,-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: seeds must be non-negative, got -1\n"


@pytest.mark.parametrize("command", [
    ["solve", "--instance", "random:8:5:100", "--solver", "aco"],
    ["compare", "--datasets", "random:30:1:100"],
    ["noise-sweep", "--instance", "random:30:1:100", "--noise", "bitflip"],
], ids=["solve", "compare", "noise-sweep"])
def test_cli_repeated_seed_exits_2_before_any_solve(command, tmp_path, capsys, monkeypatch):
    # a repeated seed would run its cells twice and weigh the medians toward it
    _forbid_solves(monkeypatch)
    out = tmp_path / "runs"
    assert cli.main(command + ["--seeds", "1,0,1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: seeds must be distinct, got 1 twice\n"


@pytest.mark.parametrize("command, message", [
    (["gen-random", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["gen-random", "--n", "5", "--bound", "nan"], "bound must be positive and finite, got nan"),
    (["solve", "--instance", "random:8:5:nan"], "bound must be positive and finite, got nan"),
    (["solve", "--instance", "random:8:5:inf"], "bound must be positive and finite, got inf"),
], ids=["gen-random-seed", "gen-random-bound-nan", "solve-bound-nan", "solve-bound-inf"])
def test_cli_bad_random_instance_exits_2_before_writing(command, message, tmp_path, capsys):
    out = tmp_path / "out"
    where = "--path" if command[0] == "gen-random" else "--out"
    assert cli.main(command + [where, str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["none", "bitflip", "thermal"])
def test_cli_noise_rate_out_of_range_exits_2_before_any_solve(kind, tmp_path, capsys,
                                                               monkeypatch):
    # the rate is checked whatever the kind, also when no noise is applied
    _forbid_solves(monkeypatch)
    out = tmp_path / "runs"
    assert cli.main(["solve", "--instance", "random:8:5:100", "--noise", kind, "--rate", "5",
                     "--seeds", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: noise rate must be in [0, 1], got 5.0\n"


@pytest.mark.parametrize("solver", list(bench.SOLVERS))
@pytest.mark.parametrize("instance", ["random:8:5:1e200", "far.tsp"])
def test_cli_distances_that_overflow_exit_2_before_writing(instance, solver, tmp_path,
                                                           capsys):
    # The coordinates are finite, but the square of their difference is not.
    (tmp_path / "far.tsp").write_text(
        "NAME : far\nTYPE : TSP\nDIMENSION : 5\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 1e200 0\n3 1 1\n4 2 0\n5 0 3\nEOF\n")
    out = tmp_path / "runs"
    if instance.endswith(".tsp"):
        instance = str(tmp_path / instance)
    assert cli.main(["solve", "--instance", instance, "--solver", solver, "--seeds", "0",
                     "--out", str(out)]) == 2
    assert not out.exists()
    assert "a distance overflows" in capsys.readouterr().err


def test_hybrid_leaf_max_above_four_needs_a_classical_leaf_solver(tmp_path):
    out = tmp_path / "runs"
    config = tmp_path / "leaf5.json"
    config.write_text(json.dumps({"aco_params": {"iterations": 5},
                                  "hybrid": {"leaf_max": 5, "refinement": "none"}}))
    assert cli.main(["solve", "--instance", "random:12:5:100", "--solver", "clustered-aco",
                     "--seeds", "0", "--out", str(out), "--config", str(config)]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 2


def test_cli_aco_polish_with_zero_iterations_keeps_the_stitched_tour(tmp_path):
    out = tmp_path / "runs"
    config = tmp_path / "polish.json"
    for name, refinement in (("none", {}), ("polish", {"refinement": "aco-polish",
                                                      "polish_iterations": 0})):
        config.write_text(json.dumps({"qaco_params": {"max_iter": 20},
                                      "hybrid": {"refinement": "none", **refinement}}))
        assert cli.main(["solve", "--instance", "random:12:5:100", "--seeds", "0",
                         "--out", str(out / name), "--config", str(config)]) == 0
    assert ((out / "none" / "results.csv").read_text()
            == (out / "polish" / "results.csv").read_text())


def test_cli_noise_sweep_rejects_empty_levels_before_writing(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"levels": []}))
    out = tmp_path / "runs"
    assert cli.main(["noise-sweep", "--instance", "random:8:5:100", "--noise", "bitflip",
                     "--seeds", "0", "--out", str(out), "--config", str(path)]) == 2
    assert not out.exists()
    assert "noise level" in capsys.readouterr().err


def test_cli_noise_sweep_rejects_a_repeated_level_before_writing(tmp_path, capsys):
    out = tmp_path / "runs"
    assert cli.main(["noise-sweep", "--instance", "random:6:1:100", "--noise", "bitflip",
                     "--seeds", "0", "--levels", "0.1,0.1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "levels must differ" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve", "--instance", "random:8:5:100", "--solver", "aco"],
    ["compare", "--datasets", "random:8:5:100"],
    ["noise-sweep", "--instance", "random:8:5:100", "--noise", "bitflip"],
], ids=["solve", "compare", "noise-sweep"])
def test_cli_empty_seed_list_exits_2_before_writing(command, tmp_path, capsys):
    out = tmp_path / "runs"
    assert cli.main(command + ["--seeds", "", "--out", str(out)]) == 2
    assert not out.exists()
    assert "seed list is empty" in capsys.readouterr().err


@pytest.mark.parametrize("block", [[], 0, False, ""], ids=["list", "zero", "false", "string"])
def test_cli_non_object_hybrid_block_exits_2_before_writing(block, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"hybrid": block}))
    out = tmp_path / "runs"
    assert cli.main(["solve", "--instance", "random:8:5:100", "--seeds", "0",
                     "--out", str(out), "--config", str(path)]) == 2
    assert not out.exists()
    assert "hybrid must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("optima", [[1], {"random-8-s5": "x"}], ids=["list", "string-value"])
def test_cli_compare_bad_optima_exits_2_before_writing(optima, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"optima": optima}))
    out = tmp_path / "runs"
    assert cli.main(["compare", "--datasets", "random:8:5:100", "--seeds", "0",
                     "--out", str(out), "--config", str(path)]) == 2
    assert not out.exists()
    assert "optima must be a JSON object of numbers" in capsys.readouterr().err


def test_cli_compare_duplicate_dataset_names_exit_2_before_writing(tmp_path, capsys):
    # Both specs name their instance random-8-s5; the bound is not in the name.
    out = tmp_path / "runs"
    assert cli.main(["compare", "--datasets", "random:8:5:100,random:8:5:1000",
                     "--seeds", "0", "--metric", "paper", "--out", str(out)]) == 2
    assert not out.exists()
    assert "random-8-s5 appears more than once" in capsys.readouterr().err


@pytest.mark.parametrize("csv_text, json_text", [
    (CSV_HEADER + "\n"
     + RunRecord("demo", "aco", 0, "none", 0.0, 10.0, 5, 1.5, (0, 1, 2)).csv_row() + "\n",
     '{"a": 1}\n'),
    ("city,x,y\n1,2,3\n", "[]\n"),
], ids=["json-not-a-list", "foreign-csv-header"])
def test_cli_appends_to_neither_results_file_if_one_is_bad(csv_text, json_text, tmp_path):
    out = tmp_path / "runs"
    out.mkdir()
    (out / "results.csv").write_text(csv_text)
    (out / "results.json").write_text(json_text)
    assert cli.main(["solve", "--instance", "random:8:5:100", "--solver", "aco",
                     "--seeds", "0", "--out", str(out), "--config", _fast_config(tmp_path)]) == 2
    assert (out / "results.csv").read_text() == csv_text
    assert (out / "results.json").read_text() == json_text


def test_cli_noise_sweep(tmp_path):
    out = str(tmp_path / "runs")
    code = cli.main([
        "noise-sweep", "--instance", "random:8:13:100", "--noise", "bitflip",
        "--levels", "0.01,0.1", "--seeds", "0,1", "--metric", "paper",
        "--out", out, "--config", _fast_config(tmp_path),
    ])
    assert code == 0
    assert os.path.exists(os.path.join(out, "sweep.csv"))


def test_cli_compare(tmp_path):
    out = str(tmp_path / "runs")
    code = cli.main([
        "compare", "--datasets", "random:8:5:100", "--seeds", "0",
        "--metric", "paper", "--out", out, "--config", _fast_config(tmp_path),
    ])
    assert code == 0
    assert os.path.exists(os.path.join(out, "comparison.csv"))


# ---------------------------------------------------------------------------
# atomic result files


def _record(seed):
    return RunRecord("demo", "aco", seed, "none", 0.0, 10.0 + seed, 5, 1.5, (0, 1, 2))


def test_append_refuses_a_foreign_csv_header(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("city,x,y\n1,2,3\n")
    with pytest.raises(ConfigError):
        write_records_csv([_record(0)], path)
    assert path.read_text() == "city,x,y\n1,2,3\n"


def test_append_keeps_existing_bytes(tmp_path):
    path = tmp_path / "results.csv"
    write_records_csv([_record(0)], path)
    write_records_csv([_record(1), _record(2)], path)
    assert path.read_text() == CSV_HEADER + "\n" + "".join(
        _record(seed).csv_row() + "\n" for seed in range(3))


@pytest.mark.parametrize("writer", [write_records_csv, write_records_json])
def test_failed_write_leaves_no_partial_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "results.out"
    writer([_record(0)], path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(bench.os, "replace", fail)
    with pytest.raises(OSError):
        writer([_record(1)], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["results.out"]
    with pytest.raises(OSError):
        writer([_record(1)], tmp_path / "fresh.out")
    assert os.listdir(tmp_path) == ["results.out"]
