"""Scaling ladder: one size parameter per layer, per-step time and peak memory.

    python3 perfbench/ladder.py > ladder.json

Run from the repository root, on demand; the gating runs in ``run.py`` never
start it.  Each point runs in a fresh interpreter with the same environment
as the benchmark's workload processes.  The pipeline runs twice there: once
for ``run_experiment``'s own per-step times, and once under ``tracemalloc``
for each step's peak of traced memory.  The process's peak resident set is
reported beside them.

The gating workloads use the rung just below each wall: periodic-union n=8,
square-map grid 1e5, rotation cover 48 and hyperspace k=2.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

from run import machine_info, worker_env
from workloads import config, step

LADDERS = {
    # exact envelope and its algebra; period lcm(1..n)
    "periodic-union": ("n", (6, 7, 8), lambda n: config(0, [
        step("exact_envelope"), step("periodic_elements"),
        step("recurrent_idempotents"), step("kernel_and_groups"),
    ], "periodic-union", n=n)),
    # iterate evaluation and tau-clustering on a sampled interval
    "square-map": ("grid", (1001, 10001, 100001), lambda grid: config(0, [
        step("approx_envelope", horizon=60, tau=0.001), step("minimal_left_ideals"),
    ], "square-map", grid=grid)),
    # ball-cover hitting sets: the default cover has one ball per grid point
    "irrational-rotation": ("cover", (24, 48, 72), lambda cover: config(0, [
        step("classify_transitivity", horizon=64),
    ], "irrational-rotation", grid=cover)),
    # hyperspace cardinality over a sampled base
    "hyperspace": ("k", (1, 2), lambda k: config(0, [
        step("hyper_equicontinuity", k=k, eps_list=[0.5], horizon=40),
    ], "square-map", grid=21)),
}


def run_point(family: str, value: int) -> dict:
    """Run one ladder point in this process."""
    import numpy as np
    from ellis import cli

    cfg = LADDERS[family][2](value)
    report, timings = cli.run_experiment(cfg)
    peaks = []

    def with_peak(fn):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        return measured

    for s in cfg["pipeline"]:
        cli.OPS[s["op"]] = with_peak(cli.OPS[s["op"]])
    tracemalloc.start()
    cli.run_experiment(cfg)
    tracemalloc.stop()
    return {
        "family": family,
        LADDERS[family][0]: value,
        "ok": report["summary"]["ok"],
        "steps": [{"op": s["op"], "seconds": t, "peak_traced_mb": p}
                  for s, t, p in zip(report["steps"], timings, peaks)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", nargs=2, metavar=("FAMILY", "VALUE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(args.point[0], int(args.point[1]))))
        return 0

    root = Path.cwd().resolve()
    points = []
    for family, (param, values, _) in LADDERS.items():
        for value in values:
            proc = subprocess.run(
                [sys.executable, __file__, "--point", family, str(value)],
                cwd=root, env=worker_env(root), capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            point = json.loads(proc.stdout.splitlines()[-1])
            points.append(point)
            for s in point["steps"]:
                print(f"# {family:20s} {param}={value:<7d} {s['op']:24s} "
                      f"{s['seconds']:9.3f} s {s['peak_traced_mb']:9.1f} MB", file=sys.stderr)
    env = machine_info(root, points[0]["numpy"]) if points else {}
    print(json.dumps({"env": env, "ladder": points}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
