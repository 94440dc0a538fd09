"""One workload process: set up, run passes over the pipelines, report JSON.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1.
Modes:

* ``setup``: import ellis and numpy, generate the configs, note when ready,
  then time the speed gauge of ``gauge.py`` once.
* ``measure``: then the gauge, and one cold pass and ``--passes`` - 1 warm
  passes, each followed by the gauge.
* ``trace``: one cold and one warm pass untraced, then traced passes while
  the process's ``--seconds`` last, at least two.

Every gauge runs in a forked child.

A pass runs every pipeline of the workload in turn through
``ellis.cli.run_experiment`` and ``ellis.cli.emit_report``, as ``ellis run``
does, one pipeline at a time.  The last line of standard output is a JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import ellis
from ellis import cli

import workloads

FAILED_STATUSES = ("error", "verdict-fail")


def forked_gauge() -> float:
    """Seconds of one run of ``gauge.gauge()``, timed in a forked child.

    The child has a copy of this process's heap, so the gauge's allocations
    never touch the heap the passes run on: any allocation here changes
    glibc's heap, and with it the cost of the passes.  The parent only makes
    small Python objects, which live in CPython's own arenas.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            gc.disable()          # a full collection would touch the parent's objects
            import gauge
            os.write(write_fd, repr(gauge.gauge()).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        answer = os.read(read_fd, 64)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not answer:
        raise RuntimeError("the gauge failed")
    return float(answer)


def run_pass(configs, out_dir: Path) -> dict:
    """Run every pipeline once; time the pass, then check its outputs."""
    reports = []
    start = time.perf_counter()
    for i, config in enumerate(configs):
        report, timings = cli.run_experiment(config)
        formats = sorted(set(config.get("output", {}).get("formats", ["json"])) | {"json"})
        cli.emit_report(report, timings, out_dir / f"pipeline{i}", formats)
        reports.append(report)
    seconds = time.perf_counter() - start
    digests = [hashlib.sha256((out_dir / f"pipeline{i}" / "report.json").read_bytes()).hexdigest()
               for i in range(len(configs))]
    steps = [[s["status"] for s in r["steps"]] for r in reports]
    return {"seconds": seconds, "digests": digests, "steps": steps}


def check(passes) -> tuple[int, int]:
    """(attempted, failed) steps over all passes.

    A step fails when it errors or misses an ``expect``, and every step of a
    pipeline fails when its ``report.json`` differs from the first pass's.
    """
    reference = passes[0]["digests"]
    attempted = failed = 0
    for p in passes:
        for digest, ref, statuses in zip(p["digests"], reference, p["steps"]):
            attempted += len(statuses)
            if digest != ref:
                failed += len(statuses)
            else:
                failed += sum(s in FAILED_STATUSES for s in statuses)
    return attempted, failed


def measure(configs, passes: int, out_dir: Path) -> dict:
    runs, gauges = [], [forked_gauge()]
    for _ in range(passes):
        runs.append(run_pass(configs, out_dir))
        gauges.append(forked_gauge())
    cold, warm = runs[0], runs[1:]
    attempted, failed = check(runs)
    return {
        "cold_pass_s": cold["seconds"],
        "warm_pass_s": [p["seconds"] for p in warm],
        "gauge_s": gauges,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": cold["digests"],
        "attempted": attempted,
        "failed": failed,
    }


def trace(configs, seconds: float, out_dir: Path) -> dict:
    from tracer import Tracer

    start = time.monotonic()
    cold = run_pass(configs, out_dir)
    warm = run_pass(configs, out_dir)
    tracer = Tracer()
    tracer.install()
    # at least two traced passes, then more while the next should end in time
    traced, times, counts = [], [], []
    while len(traced) < 2 or time.monotonic() - start + traced[-1]["seconds"] <= seconds:
        tracer.reset()
        traced.append(run_pass(configs, out_dir))
        t, c = tracer.snapshot()
        times.append(t)
        counts.append(c)
    attempted, failed = check([cold, warm] + traced)
    if any(c != counts[0] for c in counts):
        failed += 1   # work counts must repeat exactly
        attempted += 1
    names = sorted(set().union(*times))
    return {
        "untraced_pass_s": warm["seconds"],
        "traced_pass_s": [p["seconds"] for p in traced],
        "self_s": {k: float(np.median([t.get(k, 0.0) for t in times])) for k in names},
        "counts": counts[0],
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="traced run's budget")
    parser.add_argument("--passes", type=int, default=2, help="passes of a measuring process")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--out", type=Path, help="directory for report files")
    args = parser.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    if src not in Path(ellis.__file__).resolve().parents:
        raise SystemExit(f"ellis was imported from {ellis.__file__}, not from {src}")
    configs = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    out = {"ready": time.monotonic(), "numpy": np.__version__, "ellis": ellis.__version__}
    if args.mode == "setup":
        out["gauge_s"] = [forked_gauge()]
    elif args.mode == "measure":
        out.update(measure(configs, args.passes, args.out))
    elif args.mode == "trace":
        out.update(trace(configs, args.seconds, args.out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
