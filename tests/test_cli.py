import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from ellis import cli, symbolic


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "ellis.cli", *args],
        capture_output=True, text=True, check=False,
    )


def test_catalog_stable_order(tmp_path):
    r1 = run_cli(["--out", str(tmp_path / "a"), "catalog"])
    r2 = run_cli(["--out", str(tmp_path / "b"), "catalog"])
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    names = [line.split()[0] for line in r1.stdout.strip().splitlines()]
    assert names == sorted(names)
    assert "square-map" in names and "periodic-stack" in names
    doc = json.loads((tmp_path / "a" / "catalog.json").read_text())
    assert len(doc["entries"]) == 12


def test_run_config_roundtrip(tmp_path):
    config = {
        "seed": 0,
        "model": {"name": "identity", "params": {"n": 4}},
        "pipeline": [
            {"op": "exact_envelope", "params": {}, "expect": {"period": 1}},
            {"op": "idempotents", "params": {}},
        ],
        "output": {"formats": ["json", "text"]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    r1 = run_cli(["--out", str(tmp_path / "r1"), "run", str(cfg)])
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(["--out", str(tmp_path / "r2"), "run", str(cfg)])
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["summary"]["ok"]
    assert report["config"] == config  # reports are re-runnable from the echo
    assert (tmp_path / "r1" / "timings.txt").exists()
    assert (tmp_path / "r1" / "report.txt").exists()


def test_exit_code_verdict_failure(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": {"name": "identity"},
        "pipeline": [{"op": "exact_envelope", "params": {}, "expect": {"period": 99}}],
    }))
    r = run_cli(["--out", str(tmp_path / "o"), "run", str(cfg)])
    assert r.returncode == 2


def test_exit_code_execution_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "pipeline": [{"op": "identity_isolated", "params": {}}],
    }))
    r = run_cli(["--out", str(tmp_path / "o"), "run", str(cfg)])
    assert r.returncode == 1


def test_step_failure_does_not_stop_run(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": {"name": "identity"},
        "pipeline": [
            {"op": "no_such_op", "params": {}},
            {"op": "exact_envelope", "params": {}},
        ],
    }))
    r = run_cli(["--out", str(tmp_path / "o"), "run", str(cfg)])
    assert r.returncode == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["steps"][0]["status"] == "error"
    assert report["steps"][1]["status"] == "ok"


def test_envelope_subcommand(tmp_path):
    r = run_cli(["--out", str(tmp_path), "envelope", "identity", "--param", "n=3"])
    assert r.returncode == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["steps"][1]["result"]["elements"] == ["f^0"]


def test_semigroup_subcommand(tmp_path):
    table = {"size": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
             "identity": 0, "generator": 1}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    r = run_cli(["semigroup", str(path), "idempotents"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"idempotents": [0]}
    r2 = run_cli(["semigroup", str(path), "group-distal"])
    assert json.loads(r2.stdout)["is_group"]


def test_shift_subcommand(tmp_path):
    spec = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]}
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(spec))
    r = run_cli(["--out", str(tmp_path), "--format", "csv", "shift", str(path),
                 "entropy", "--n", "10"])
    assert r.returncode == 0
    csv = (tmp_path / "entropy.csv").read_text()
    # the CSV is written from the printed estimates, not from a second pass
    assert csv == symbolic.entropy_csv(json.loads(r.stdout))
    assert csv.splitlines()[0] == "n,count,log_count_over_n"
    assert csv.splitlines()[1].startswith("1,2,")
    r2 = run_cli(["shift", str(path), "classify"])
    assert json.loads(r2.stdout)["mixing"]


def test_language_rejects_a_negative_length(tmp_path):
    spec = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]}
    report, _ = cli.run_experiment({"pipeline": [
        {"op": "build_subshift", "params": {"spec": spec}},
        {"op": "language", "params": {"n": -1}},
        {"op": "language", "params": {"n": 2}},
    ]})
    steps = report["steps"]
    assert [s["status"] for s in steps] == ["ok", "error", "ok"]
    assert steps[1]["error"].startswith("ShiftSpecError")
    assert steps[2]["result"]["words"] == ["00", "01", "10"]
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(spec))
    r = run_cli(["shift", str(path), "language", "--n", "-1"])
    assert r.returncode != 0 and "ShiftSpecError" in r.stderr


def test_props_subcommand():
    r = run_cli(["props", "identity", "distal-semiflow"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["distal"] and doc["surjective"]
    r2 = run_cli(["props", "irrational-rotation", "--param", "grid=24",
                  "rigidity", "--horizon", "96", "--tau", "0.02"])
    assert json.loads(r2.stdout)["uniformly_rigid"]["verdict"] == "holds"


def test_run_experiment_api_matches_cli(tmp_path):
    config = {
        "model": {"name": "identity", "params": {"n": 3}},
        "pipeline": [{"op": "exact_envelope", "params": {}}],
    }
    report, timings = cli.run_experiment(config)
    assert report["summary"]["ok"] and len(timings) == 1
    written = cli.emit_report(report, timings, tmp_path, ["json"])
    assert Path(written[0]).name == "report.json"


def test_ideal_isomorphism_rejects_out_of_range_ideals(tmp_path):
    # the identity envelope has a single minimal left ideal, so k=1 and
    # i=-1 name no ideal and must not fall back to ideal 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": {"name": "identity", "params": {"n": 3}},
        "pipeline": [
            {"op": "exact_envelope", "params": {}},
            {"op": "ideal_isomorphism", "params": {"i": 0, "k": 1}},
            {"op": "ideal_isomorphism", "params": {"i": -1, "k": 0}},
            {"op": "ideal_isomorphism", "params": {"i": 0, "k": 0}},
        ],
    }))
    r = run_cli(["--out", str(tmp_path / "o"), "run", str(cfg)])
    assert r.returncode == 1
    steps = json.loads((tmp_path / "o" / "report.json").read_text())["steps"]
    assert [s["status"] for s in steps] == ["ok", "error", "error", "ok"]
    assert steps[1]["error"].startswith("InvalidParameterError")
    assert steps[3]["result"]["isomorphic"]


def test_inducibility_rejects_out_of_range_element():
    # element=-1 names no element and must not wrap to the last one
    report, _ = cli.run_experiment({
        "model": {"name": "identity", "params": {"n": 3}},
        "pipeline": [
            {"op": "build_hyper", "params": {"k": 2}},
            {"op": "hyper_envelope", "params": {}},
            {"op": "inducibility", "params": {"element": 0}},
            {"op": "inducibility", "params": {"element": -1}},
            {"op": "inducibility", "params": {"element": 1}},
        ],
    })
    steps = report["steps"]
    assert [s["status"] for s in steps] == ["ok", "ok", "ok", "error", "error"]
    assert all(s["error"].startswith("InvalidParameterError") for s in steps[3:])
    assert list(steps[2]["result"]) == ["f^0"]


def test_verify_factor_uses_the_given_code():
    golden = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]}
    even = {"kind": "labeled-graph", "states": ["A", "B"],
            "edges": [["A", "1", "A"], ["A", "0", "B"], ["B", "0", "A"]]}
    wrong = {"memory": 0, "anticipation": 1, "rule": {"00": "1", "01": "1", "10": "0"}}
    right = {"memory": 0, "anticipation": 1, "rule": {"00": "1", "01": "0", "10": "0"}}
    report, _ = cli.run_experiment({"pipeline": [
        {"op": "build_subshift", "params": {"spec": golden}},
        {"op": "build_subshift", "params": {"spec": even}},
        {"op": "verify_factor", "params": {"n": 6}},
        {"op": "verify_factor", "params": {"n": 6, "code": right}},
        {"op": "verify_factor", "params": {"n": 6, "code": wrong}},
        {"op": "verify_factor", "params": {"n": 6, "code": {**wrong, "rule": {"0": "1"}}}},
    ]})
    steps = report["steps"]
    assert [s["status"] for s in steps[2:5]] == ["ok", "ok", "ok"]
    assert [s["result"]["verified"] for s in steps[2:5]] == [True, True, False]
    assert steps[5]["status"] == "error" and "ShiftSpecError" in steps[5]["error"]


def _jsonable_by_recursion(obj):
    # the per-value conversion that the scalar fast path of cli._jsonable
    # must reproduce
    if isinstance(obj, dict):
        return {str(k): _jsonable_by_recursion(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        return [_jsonable_by_recursion(v) for v in seq]
    if isinstance(obj, np.ndarray):
        return [_jsonable_by_recursion(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _jsonable_by_recursion(float(obj))
    if isinstance(obj, np.bool_):
        return bool(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable_by_recursion(dataclasses.asdict(obj))
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def test_jsonable_fast_path_keeps_every_config_report(tmp_path, monkeypatch):
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    assert len(configs) >= 8
    for path in configs:
        config = json.loads(path.read_text())
        fast = cli.emit_report(*cli.run_experiment(config), tmp_path / path.stem / "fast")
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_jsonable", _jsonable_by_recursion)
            slow = cli.emit_report(*cli.run_experiment(config), tmp_path / path.stem / "slow")
        assert Path(fast[0]).read_bytes() == Path(slow[0]).read_bytes(), path.name


def test_jsonable_converts_nested_values():
    value = {1: [1, "a", None, True, 2.5, float("nan")], "b": (np.int64(3), np.float64(-np.inf)),
             "c": {3, 1, 2}, "f": frozenset({(1, 2), (0, 5)}), "d": np.arange(3), "e": [[np.bool_(True)], []]}
    assert cli._jsonable(value) == _jsonable_by_recursion(value)
