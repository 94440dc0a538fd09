import copy
import csv
import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ellis import cli
from oracles import GOLDEN


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
    # the entropy op is step 1, after build_subshift
    csv = (tmp_path / "step1_entropy.csv").read_text()
    # the CSV is written from the printed estimates, not from a second pass
    est = json.loads(r.stdout)
    assert csv == cli.csv_text(["n", "count", "log_count_over_n"],
                               [[n, c, v] for (n, v), c in zip(est["sequence"], est["counts"])])
    assert csv.splitlines()[0] == "n,count,log_count_over_n"
    assert csv.splitlines()[1].startswith("1,2,")
    r2 = run_cli(["--out", str(tmp_path / "classify"), "shift", str(path), "classify"])
    assert json.loads(r2.stdout)["mixing"]


def test_entropy_csv_of_the_empty_shift_has_empty_log_cells(tmp_path):
    # the report stores log(0)/n = -inf as null
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": "forbidden", "alphabet": ["0", "1"],
                                "forbidden": ["0", "1"]}))
    r = run_cli(["--out", str(tmp_path), "--format", "csv", "shift", str(path),
                 "entropy", "--n", "3"])
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "step1_entropy.csv").read_text() == (
        "n,count,log_count_over_n\n1,0,\n2,0,\n3,0,\n")


def test_hitting_matrix_csv_bytes(tmp_path):
    cfg = tmp_path / "hitting.json"
    cfg.write_text(json.dumps({"pipeline": [
        {"op": "build_subshift", "params": {"spec": GOLDEN}},
        {"op": "hitting_matrix", "params": {"horizon": 3, "cylinder_length": 1}},
        {"op": "load_example", "params": {"name": "identity", "params": {"n": 2}}},
        {"op": "hitting_matrix", "params": {"horizon": 2, "granularity": 0.6}}]}))
    r = run_cli(["--out", str(tmp_path / "o"), "--format", "csv", "run", str(cfg)])
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "o" / "step1_hitting.csv").read_bytes() == (
        b"u,v,n1,n2,n3\n[0],[0],1,1,1\n[0],[1],1,1,1\n[1],[0],1,1,1\n[1],[1],0,1,1\n")
    # a ball label holds a comma, so it is quoted
    assert (tmp_path / "o" / "step3_hitting.csv").read_bytes() == (
        b'u,v,n1,n2\n"B(0,0.6)","B(0,0.6)",1,1\n"B(0,0.6)","B(1,0.6)",0,0\n'
        b'"B(1,0.6)","B(0,0.6)",0,0\n"B(1,0.6)","B(1,0.6)",1,1\n')


def test_every_csv_row_parses_to_the_header_width(tmp_path):
    cfg = tmp_path / "tables.json"
    cfg.write_text(json.dumps({"pipeline": [
        {"op": "build_subshift", "params": {"spec": GOLDEN}},
        {"op": "entropy", "params": {"n_max": 6}},
        {"op": "hitting_matrix", "params": {"horizon": 3, "cylinder_length": 2}},
        {"op": "load_example", "params": {"name": "irrational-rotation", "params": {"grid": 6}}},
        {"op": "hitting_matrix", "params": {"horizon": 4}}]}))
    r = run_cli(["--out", str(tmp_path / "o"), "--format", "csv", "run", str(cfg)])
    assert r.returncode == 0, r.stderr
    written = sorted((tmp_path / "o").glob("*.csv"))
    assert [p.name for p in written] == ["step1_entropy.csv", "step2_hitting.csv",
                                         "step4_hitting.csv"]
    for path in written:
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert rows and all(len(row) == len(header) for row in rows), path.name


Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize("table, message", [
    ({"table": [[0, 1], [2, 0]]}, "TableError: table is not closed"),
    ({"table": [[1, 0], [0, 0]]}, "TableError: 4 associativity violations in a strict table"),
    ({"table": Z3, "identity": 9},
     "TableError: identity 9 is not an element of a 3-element table"),
    ({"table": Z3, "identity": 1}, "TableError: element 1 is not an identity of the table"),
    ({"table": Z3, "identity": 0, "generator": -1},
     "TableError: generator -1 is not an element of a 3-element table"),
])
def test_semigroup_subcommand_refuses_a_bad_table(table, message, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    r = run_cli(["semigroup", str(path), "group-distal"])
    assert r.returncode == 1
    assert r.stdout == "" and r.stderr == message + "\n"


@pytest.mark.parametrize("argv", [["run", "{}"], ["semigroup", "{}", "kernel"],
                                  ["shift", "{}", "entropy"]])
@pytest.mark.parametrize("malformed", [False, True])
def test_subcommands_refuse_a_missing_or_malformed_file(argv, malformed, tmp_path):
    path = tmp_path / "input.json"
    if malformed:
        path.write_text('{"table": [[0]')
    r = run_cli(["--out", str(tmp_path / "o"), *(str(path) if a == "{}" else a for a in argv)])
    assert r.returncode == 1 and r.stdout == ""
    # one line, and no traceback
    if malformed:
        assert r.stderr.startswith("JSONDecodeError: Expecting ',' delimiter")
    else:
        assert r.stderr.startswith("FileNotFoundError: [Errno 2] No such file or directory")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", ["x", 1.5, True, -1, math.nan])
def test_run_refuses_a_bad_seed(seed, tmp_path):
    # unchecked, "x" escaped run_experiment as a ValueError traceback, 1.5
    # and true ran as seed 1, and -1 failed the window_model step in numpy
    config = {"seed": seed, "pipeline": [{"op": "window_model",
                                          "params": {"count": 4, "radius": 3}}]}
    with pytest.raises(cli.spaces.InvalidParameterError, match="seed="):
        cli.run_experiment(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    r = run_cli(["--out", str(tmp_path / "o"), "run", str(path)])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("InvalidParameterError: seed=")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")
    assert not (tmp_path / "o").exists()


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
    r = run_cli(["--out", str(tmp_path / "o"), "shift", str(path), "language", "--n", "-1"])
    assert r.returncode != 0 and "ShiftSpecError" in r.stderr


def test_periodic_spectrum_and_boyle_reject_a_negative_n_max():
    # unchecked, periodic_spectrum(golden, -3) answered {}
    spec = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]}
    report, _ = cli.run_experiment({"pipeline": [
        {"op": "build_subshift", "params": {"spec": spec}},
        {"op": "build_subshift", "params": {"spec": spec}},
        {"op": "periodic_spectrum", "params": {"n_max": -3}},
        {"op": "boyle_precondition", "params": {"n_max": -1}},
        {"op": "periodic_spectrum", "params": {"n_max": 3}},
    ]})
    steps = report["steps"]
    assert [s["status"] for s in steps] == ["ok", "ok", "error", "error", "ok"]
    assert all(s["error"].startswith("ShiftSpecError") for s in steps[2:4])
    assert steps[4]["result"] == {"1": 1, "2": 2, "3": 3}


def test_identity_isolated_rejects_a_negative_tau():
    report, _ = cli.run_experiment({
        "model": {"name": "irrational-rotation", "params": {"grid": 12}},
        "pipeline": [{"op": "exact_envelope"},
                     {"op": "identity_isolated", "params": {"tau": -1.0}},
                     {"op": "identity_isolated", "params": {"tau": math.nan}},
                     {"op": "identity_isolated", "params": {"tau": 0.0}}]})
    steps = report["steps"]
    assert [s["status"] for s in steps] == ["ok", "error", "error", "ok"]
    assert all(s["error"].startswith("InvalidParameterError") for s in steps[1:3])


def test_props_subcommand(tmp_path):
    r = run_cli(["--out", str(tmp_path / "distal"), "props", "identity", "distal-semiflow"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["distal"] and doc["surjective"]
    r2 = run_cli(["--out", str(tmp_path / "rigidity"), "props", "irrational-rotation",
                  "--param", "grid=24", "rigidity", "--horizon", "96", "--tau", "0.02"])
    assert json.loads(r2.stdout)["uniformly_rigid"]["verdict"] == "holds"


def _load(name, **params):
    return {"op": "load_example", "params": {"name": name, "params": params}}


# a subcommand's arguments and the pipeline that `ellis run` is given, for
# each of the 7 `props` choices and the 4 `shift` ops
SUBCOMMAND_CASES = {
    "props-transitivity": (
        ["props", "identity", "--param", "n=5", "transitivity", "--horizon", "20"],
        [_load("identity", n=5), {"op": "classify_transitivity", "params": {"horizon": 20}}]),
    "props-strong-transitivity": (
        ["props", "irrational-rotation", "--param", "grid=12", "strong-transitivity",
         "--horizon", "24"],
        [_load("irrational-rotation", grid=12),
         {"op": "strong_transitivity", "params": {"horizon": 24}}]),
    "props-equicontinuity": (
        ["props", "irrational-rotation", "--param", "grid=12", "equicontinuity",
         "--horizon", "24", "--tau", "0.1"],
        [_load("irrational-rotation", grid=12),
         {"op": "equicontinuity", "params": {"eps_list": [0.1, 0.4], "horizon": 24}}]),
    "props-hyper-equicontinuity": (
        ["props", "irrational-rotation", "--param", "grid=8", "hyper-equicontinuity",
         "--max-card", "2", "--horizon", "16", "--tau", "0.1"],
        [_load("irrational-rotation", grid=8),
         {"op": "hyper_equicontinuity", "params": {"k": 2, "eps_list": [0.1, 0.4],
                                                   "horizon": 16}}]),
    "props-rigidity": (
        ["props", "irrational-rotation", "--param", "grid=12", "rigidity",
         "--horizon", "48", "--tau", "0.02"],
        [_load("irrational-rotation", grid=12),
         {"op": "rigidity_battery", "params": {"horizon": 48, "tau": 0.02}}]),
    "props-recurrence": (
        ["props", "square-map", "--param", "grid=21", "recurrence", "--horizon", "16",
         "--tau", "0.05"],
        [_load("square-map", grid=21),
         {"op": "recurrence_report", "params": {"horizon": 16, "tau": 0.05}}]),
    "props-distal-semiflow": (
        ["props", "periodic-stack", "--param", "n=2", "--param", "truncate=3",
         "distal-semiflow"],
        [_load("periodic-stack", n=2, truncate=3), {"op": "exact_envelope", "params": {}},
         {"op": "distal_semiflow", "params": {}}]),
    "shift-language": (
        ["shift", "SPEC", "language", "--n", "4"],
        [{"op": "build_subshift", "params": {"spec": GOLDEN}},
         {"op": "language", "params": {"n": 4}}]),
    "shift-entropy": (
        ["shift", "SPEC", "entropy", "--n", "6"],
        [{"op": "build_subshift", "params": {"spec": GOLDEN}},
         {"op": "entropy", "params": {"n_max": 6}}]),
    "shift-classify": (
        ["shift", "SPEC", "classify"],
        [{"op": "build_subshift", "params": {"spec": GOLDEN}},
         {"op": "classify_shift", "params": {}}]),
    "shift-periods": (
        ["shift", "SPEC", "periods", "--n", "6"],
        [{"op": "build_subshift", "params": {"spec": GOLDEN}},
         {"op": "periodic_spectrum", "params": {"n_max": 6}}]),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_CASES))
def test_subcommand_prints_the_result_of_its_step_in_run(name, tmp_path, capsys):
    argv, pipeline = SUBCOMMAND_CASES[name]
    spec = tmp_path / "shift.json"
    spec.write_text(json.dumps(GOLDEN))
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    assert cli.main(["--out", str(tmp_path / "sub"), *argv]) == 0
    printed = capsys.readouterr().out
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pipeline": pipeline}))
    assert cli.main(["--out", str(tmp_path / "run"), "run", str(cfg)]) == 0
    capsys.readouterr()
    run, sub = (json.loads((tmp_path / d / "report.json").read_text())["steps"]
                for d in ("run", "sub"))
    assert printed == json.dumps(run[-1]["result"], indent=2, sort_keys=True) + "\n"
    # the subcommand writes the steps of `ellis run` to its own report
    assert sub == run


def test_subcommand_prints_a_step_error_to_stderr(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "props", "no-such-model", "rigidity"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("UnknownExampleError")
    assert json.loads((tmp_path / "report.json").read_text())["summary"]["errors"] == 2


def test_loading_a_model_drops_the_envelope_of_the_previous_one():
    # the semigroup of the periodic stack's envelope (index 7, period 2)
    # used to answer for the rotation's 3-element group
    report, _ = cli.run_experiment({
        "model": {"name": "periodic-stack", "params": {"n": 2, "truncate": 3}},
        "pipeline": [
            {"op": "exact_envelope"}, {"op": "idempotents"}, {"op": "build_hyper"},
            {"op": "hyper_envelope"},
            _load("irrational-rotation", grid=6),
            {"op": "wap_proxy"}, {"op": "idempotents"}, {"op": "inducibility"},
            {"op": "exact_envelope"}, {"op": "idempotents"}, {"op": "is_group_distal"},
            {"op": "kernel_and_groups"}, {"op": "wap_proxy"},
            {"op": "window_model", "params": {"count": 4, "radius": 2}},
            {"op": "identity_isolated"},
        ]})
    steps = report["steps"]
    assert steps[1]["result"] == {"idempotents": [0, 8]}
    for i, what in ((5, "an envelope"), (6, "an envelope"), (7, "a hyper envelope"),
                    (14, "an envelope")):
        assert steps[i]["status"] == "error", i
        assert steps[i]["error"] == f"ValueError: pipeline step needs {what} from an earlier step"
    assert steps[9]["result"] == {"idempotents": [0]}
    assert steps[10]["result"]["is_group"] is True
    assert steps[11]["result"]["kernel"] == [0, 1, 2]
    assert steps[11]["result"]["minimal_left_ideals"] == [[0, 1, 2]]
    assert steps[12]["status"] == "ok"
    assert len(steps[12]["result"]["elements"]) == 3


def test_building_a_hyper_model_drops_the_hyper_envelope():
    report, _ = cli.run_experiment({
        "model": {"name": "identity", "params": {"n": 3}},
        "pipeline": [{"op": "build_hyper", "params": {"k": 2}}, {"op": "hyper_envelope"},
                     {"op": "build_hyper", "params": {"k": 1}}, {"op": "inducibility"}]})
    assert report["steps"][3]["error"].endswith("needs a hyper envelope from an earlier step")


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


# each of these raised a bare IndexError or ValueError, or returned a verdict
BAD_SCAN_STEPS = {
    "equicontinuity-no-eps": ("equicontinuity", {"eps_list": [], "horizon": 10}),
    "hyper-no-eps": ("hyper_equicontinuity", {"k": 2, "eps_list": [], "horizon": 10}),
    "equicontinuity-horizon": ("equicontinuity", {"eps_list": [0.5], "horizon": -3}),
    "hyper-horizon": ("hyper_equicontinuity", {"k": 2, "eps_list": [0.5], "horizon": -3}),
    "recurrence-horizon": ("recurrence_report", {"horizon": -1, "tau": 0.05}),
    "recurrence-tau": ("recurrence_report", {"horizon": 10, "tau": -0.1}),
    "rigidity-horizon": ("rigidity_battery", {"horizon": -2, "tau": 0.05}),
    "transitivity-horizon": ("classify_transitivity", {"horizon": -1}),
    "hitting-matrix-horizon": ("hitting_matrix", {"horizon": -2}),
    "hitting-set-horizon": ("hitting_set", {"u": {"center": 0, "radius": 0.1},
                                            "v": {"center": 1, "radius": 0.1}, "horizon": -5}),
    "strong-transitivity-horizon": ("strong_transitivity", {"horizon": -1}),
    "omega-limit-tol": ("omega_limit", {"x": 0, "horizon": 4, "tol": -0.1}),
    # a config can pass NaN: Python's json reads the literal
    "approx-envelope-nan-tau": ("approx_envelope", {"horizon": 10, "tau": math.nan}),
    "recurrence-nan-tau": ("recurrence_report", {"horizon": 10, "tau": math.nan}),
    "rigidity-nan-tau": ("rigidity_battery", {"horizon": 10, "tau": math.nan}),
    "omega-limit-nan-tol": ("omega_limit", {"x": 0, "horizon": 4, "tol": math.nan}),
    "equicontinuity-nan-eps": ("equicontinuity", {"eps_list": [0.5, math.nan], "horizon": 10}),
    "window-density": ("window_model", {"count": 4, "radius": 3, "density": 1.5}),
    "window-nan-density": ("window_model", {"count": 4, "radius": 3, "density": math.nan}),
    **{f"{name}-granularity-{g}": (op, {"horizon": 4, "granularity": g})
       for name, op in (("transitivity", "classify_transitivity"),
                        ("hitting-matrix", "hitting_matrix"))
       for g in (0, -0.1, math.nan)},
}


@pytest.mark.parametrize("name", sorted(BAD_SCAN_STEPS))
def test_scans_refuse_a_negative_horizon_an_empty_eps_list_and_a_negative_tau(name):
    op, params = BAD_SCAN_STEPS[name]
    report, _ = cli.run_experiment({
        "model": {"name": "irrational-rotation", "params": {"grid": 12}},
        "pipeline": [{"op": op, "params": params}]})
    step = report["steps"][0]
    assert step["status"] == "error"
    assert step["error"].startswith("InvalidParameterError")


# integer parameters: unchecked, power_decomposition with n NaN never
# returned, a NaN count or radius failed inside numpy, 1.5 and True ran as
# given, and max_points 1, 0 or -1 failed with numpy's "low >= high"
BAD_INTEGER_STEPS = {
    **{f"{op}-{key}-{v}": (op, {**params, key: v})
       for op, params, key in (("power_decomposition", {}, "n"),
                               ("window_model", {"count": 4, "radius": 3}, "count"),
                               ("window_model", {"count": 4, "radius": 3}, "radius"))
       for v in (math.nan, 1.5, True)},
    **{f"corpus-max-points-{v}": ("equivalence_corpus", {"count": 4, "max_points": v})
       for v in (1, 0, -1)},
    # a NaN budget turned the refusal off: build_hyper with k 3 answered 298
    # hyperpoints
    **{f"{op}-{key}-{v}": (op, {**params, key: v})
       for op, params, key in (("build_hyper", {"k": 3}, "budget"),
                               ("approx_envelope", {"horizon": 10, "tau": 0.01}, "max_elements"))
       for v in (math.nan, 1.5, True, 0)},
    "corpus-count": ("equivalence_corpus", {"count": -1}),
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGER_STEPS))
def test_integer_parameters_are_refused_as_parameters(name):
    op, params = BAD_INTEGER_STEPS[name]
    report, _ = cli.run_experiment({
        "model": {"name": "irrational-rotation", "params": {"grid": 12}},
        "pipeline": [{"op": "exact_envelope"}, {"op": op, "params": params}]})
    assert report["steps"][0]["status"] == "ok"
    assert report["steps"][1]["error"].startswith("InvalidParameterError")
    assert "is not an integer >=" in report["steps"][1]["error"]


# unchecked, a granularity on a shift and a cylinder length on a model were
# ignored, and a cylinder length of 0 failed with a bare "max() arg is an
# empty sequence"
BAD_COVER_PARAMS = [
    *[("shift", {"granularity": g}) for g in (-1, math.nan, 0.5)],
    *[("shift", {"cylinder_length": n}) for n in (0, -2, 1.5, math.nan)],
    *[("model", {"cylinder_length": n}) for n in (3, 0)],
]


@pytest.mark.parametrize("op", ["hitting_matrix", "classify_transitivity"])
@pytest.mark.parametrize("target,params", BAD_COVER_PARAMS)
def test_cover_ops_refuse_a_parameter_the_target_does_not_read(op, target, params):
    load = ({"op": "build_subshift", "params": {"spec": GOLDEN}} if target == "shift" else
            {"op": "load_example", "params": {"name": "irrational-rotation", "params": {"grid": 12}}})
    report, _ = cli.run_experiment({"pipeline": [
        load, {"op": op, "params": {"horizon": 4, **params}}]})
    assert report["steps"][0]["status"] == "ok"
    assert report["steps"][1]["error"].startswith("InvalidParameterError")


EVERY_OP = json.loads((Path(__file__).resolve().parent.parent / "configs" / "every_op.json")
                      .read_text())

# ops that make what later steps read, from their params alone
SOURCE_OPS = {"load_example", "window_model", "equivalence_corpus", "build_subshift"}

# the ops bound with cli._on: the context slot each reads, the library
# function it calls, and the parameters of the wrapper it replaced
BOUND_OPS = {
    "identity_isolated": ("env", "envelope.identity_isolated", ["tau=None"]),
    "power_decomposition": ("env", "envelope.envelope_power_decomposition", ["n"]),
    "proximal_structure": ("env", "algebra.proximal_structure", []),
    "periodic_elements": ("env", "algebra.periodic_element_analysis", []),
    "wap_proxy": ("env", "properties.wap_proxy_check", []),
    "distal_semiflow": ("env", "properties.distal_semiflow_check", []),
    "entropy": ("shift", "symbolic.entropy_estimates", ["n_max"]),
    "classify_shift": ("shift", "symbolic.classify_sft", []),
    "periodic_spectrum": ("shift", "symbolic.periodic_spectrum", ["n_max"]),
    "recurrence_report": ("model", "properties.recurrence_report", ["horizon", "tau"]),
    "strong_transitivity": ("model", "properties.strong_transitivity_check", ["horizon"]),
    "hyper_equicontinuity": ("model", "properties.hyper_equicontinuity_crosscheck",
                             ["k", "eps_list", "horizon"]),
}
NEEDS = {"env": "an envelope", "shift": "a shift", "model": "a model"}


def test_every_op_config_runs_every_op():
    assert set(cli.OPS) - {s["op"] for s in EVERY_OP["pipeline"]} == set()
    report, _ = cli.run_experiment(EVERY_OP)
    assert report["summary"] == {"ok": True, "errors": 0, "verdict_failures": 0}


@pytest.mark.parametrize("op", sorted(set(cli.OPS) - SOURCE_OPS))
def test_an_op_refuses_a_context_without_what_it_reads(op):
    params = next(s["params"] for s in EVERY_OP["pipeline"] if s["op"] == op)
    report, _ = cli.run_experiment({"pipeline": [{"op": op, "params": params}]})
    what = NEEDS[BOUND_OPS[op][0]] if op in BOUND_OPS else ".+"
    assert re.fullmatch(f"ValueError: pipeline step needs {what} from an earlier step",
                        report["steps"][0]["error"])


def test_the_bound_ops_are_the_pinned_ones():
    assert {op for op, fn in cli.OPS.items()
            if fn.__qualname__ == "_on.<locals>.op"} == set(BOUND_OPS)


@pytest.mark.parametrize("op", sorted(BOUND_OPS))
def test_a_bound_op_calls_its_function_as_its_wrapper_did(op, monkeypatch):
    slot, path, params = BOUND_OPS[op]
    module, name = path.split(".")
    fn = getattr(getattr(cli, module), name)
    signature = list(inspect.signature(fn).parameters.values())[1:]
    assert [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in signature] == params
    # looked up at each call: a function bound to the module attribute
    # later, as a tracer binds its wrappers, is the one called
    calls = []
    monkeypatch.setattr(getattr(cli, module), name,
                        lambda *args, **kwargs: calls.append((args, kwargs)) or "result")
    ctx = cli.StepContext()
    setattr(ctx, slot, "target")
    kwargs = {p.name: i for i, p in enumerate(signature)}
    assert cli.OPS[op](ctx, **kwargs) == "result"
    assert calls == [(("target",), kwargs)]


# every error class the library raises on its own
LIBRARY_ERRORS = {cls.__name__ for cls in (
    cli.spaces.InvalidParameterError, cli.spaces.EnvelopeBudgetError,
    cli.spaces.NegativePowerError, cli.spaces.UnknownExampleError,
    cli.symbolic.ShiftSpecError, cli.symbolic.RuleUndefinedError,
    cli.algebra.TableError, cli.hyperspace.HyperBudgetError)}


def _numeric_leaves(doc, path=()):
    """The paths of the numbers (not bools) nested in ``doc``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []
    return [leaf for key, value in items for leaf in _numeric_leaves(value, (*path, key))]


def _with_leaf(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_every_numeric_parameter_is_read_or_refused():
    # each numeric leaf of every_op.json, set to each bad value in turn: the
    # step that holds it runs after the steps before it, and either answers
    # or fails with one of the library's own errors (a NaN once hung
    # power_decomposition, and 55 leaves failed with bare Python errors)
    bare = []
    for path in _numeric_leaves(EVERY_OP["pipeline"]):
        i = path[0]
        for value in (math.nan, -1, 0, 1.5):
            step = _with_leaf(EVERY_OP["pipeline"][i], path[1:], value)
            report, _ = cli.run_experiment({"seed": 0, "pipeline": [
                *EVERY_OP["pipeline"][:i], step]})
            out = report["steps"][-1]
            if out["status"] == "error" and out["error"].split(":")[0] not in LIBRARY_ERRORS:
                bare.append((step["op"], path[1:], value, out["error"]))
    assert bare == []
