"""Golden grid: the harness's output bytes on a fixed set of CLI runs.

One output directory receives a solver comparison on every bundled dataset
plus a random instance, a noise sweep and a noisy qaco-hybrid solve with the
aco-polish refinement.  The SHA-256 over every file written (``results.json``
without its measured ``wall_ms``) must equal a constant, so a refactor of the
harness or a speedup of a solver that changes any result shows here.
"""

import hashlib
import json

from qacotsp import cli

GOLDEN_SHA256 = "64c2f9cfec2d25d53d36e79bd4f47711caba00b7a2e1804bffbacfca4fdef4a7"


def _config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def grid_digest(out) -> str:
    """SHA-256 over the output files by relative path, ``wall_ms`` dropped."""
    digest = hashlib.sha256()
    files = [out / "results.csv", out / "comparison.csv", out / "sweep.csv",
             *sorted((out / "plots").glob("*.svg"))]
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    records = json.loads((out / "results.json").read_text())
    for record in records:
        del record["wall_ms"]
    digest.update(b"results.json\0" + json.dumps(records, sort_keys=True).encode())
    return digest.hexdigest()


def test_golden_grid_digest(tmp_path, data_dir):
    out = tmp_path / "runs"
    datasets = sorted(str(p) for p in data_dir.glob("*.tsp")) + ["random:100:7"]
    assert cli.main([
        "compare", "--datasets", ",".join(datasets), "--seeds", "0,1",
        "--metric", "canonical", "--out", str(out),
        "--config", _config(tmp_path, "compare", {"aco_params": {"iterations": 100}}),
    ]) == 0
    assert cli.main([
        "noise-sweep", "--instance", str(data_dir / "eil51.tsp"), "--noise", "thermal",
        "--levels", "0.05", "--seeds", "0", "--metric", "paper", "--out", str(out),
    ]) == 0
    assert cli.main([
        "solve", "--instance", str(data_dir / "eil51.tsp"), "--solver", "qaco-hybrid",
        "--noise", "bitflip", "--rate", "0.02", "--seeds", "0,1", "--metric", "paper",
        "--out", str(out),
        "--config", _config(tmp_path, "solve", {
            "hybrid": {"refinement": "aco-polish", "polish_iterations": 20}}),
    ]) == 0
    assert grid_digest(out) == GOLDEN_SHA256
