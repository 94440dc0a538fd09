"""Self-test of the benchmark: every workload, at reduced size, passes its checks.

    python3 -m pytest perfbench/test_selftest.py

Each test drives ``run.py`` as the benchmark's caller does, with ``--small``
so that a pass takes well under a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(workload, seed, trace):
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["finite-exact", "sampled", "shift"]


@pytest.mark.parametrize("workload", ["finite-exact", "sampled", "shift"])
def test_reduced_workload_has_no_failed_steps(workload):
    for seed in (0, 1):
        res = result(workload, seed, 0)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert res["metrics"]["ok_step_ratio"]["value"] == 1.0
        assert {m: v["unit"] for m, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", ["finite-exact", "sampled", "shift"])
def test_traced_counts_repeat_and_reports_match(workload):
    # a traced run fails a step when its reports differ from the untraced
    # passes or its work counts change between traced passes
    first, second = result(workload, 3, 1), result(workload, 3, 1)
    assert first["correct"] and second["correct"]
    assert {m: v["unit"] for m, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def counts(res):
        return {m: v["value"] for m, v in res["metrics"].items() if v["unit"] != "s"}

    assert counts(first) == counts(second)
    assert any(v > 0 for v in counts(first).values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "shift", 0, 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
