"""ellis benchmark: time whole workloads end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload finite-exact --seed 0 --seconds 40 --trace 0

Run from the repository root.  Each workload process is a fresh interpreter
with ``src`` on its path, one thread for BLAS and OpenMP, and the default
allocator environment.  The load is one client in a closed loop: the next
pipeline starts only when the previous one has returned.  An untraced run
starts fresh interpreters in turn for about ``--seconds``: two that only
set up before each one that runs a cold and a warm pass.  Every interpreter
also times a speed gauge, and every time is scaled to a reference host speed
by the gauges next to it.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced process.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a result
was printed, and 1 when no result could be measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("finite-exact", "sampled", "shift")
SETUP_PER_MEASURE = 2      # setup-only interpreters before each measuring one
TIMEOUT_S = 170            # a run must end within 180 s
REFERENCE_GAUGE_S = 0.30   # the gauge's median on a 2-core Xeon VM (Python 3.11, numpy 2.4)

END_TO_END = {             # name -> unit
    "pass_s": "s",
    "cold_pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_step_ratio": "ratio",
}

# Per-layer metrics of the traced run.  ``self_s`` is time inside a layer's
# own code, ``calls`` and the rest are work counts that repeat exactly.
PER_LAYER = [
    "spaces.iterate_images.calls", "spaces.iterate_images.self_s",
    "spaces.image_sup_dist.calls", "spaces.image_sup_dist.self_s",
    "spaces.image_pair_dist.calls", "spaces.image_pair_dist.self_s",
    "spaces.snap_images.calls", "spaces.snap_images.self_s",
    "spaces.point_dist.calls", "spaces.point_dist.self_s",
    "spaces.key_matrix.self_s", "spaces.load_example.self_s", "spaces.self_s",
    "envelope.exact_envelope.self_s", "envelope.table_cells", "envelope.image_bytes",
    "envelope.approx_envelope.self_s", "envelope.stabilization_diagnostic.self_s",
    "envelope.elements", "envelope.theta_check.self_s", "envelope.self_s",
    "algebra.from_envelope.calls", "algebra.from_envelope.self_s",
    "algebra.minimal_left_ideals.calls", "algebra.minimal_left_ideals.self_s",
    "algebra.kernel_and_groups.self_s", "algebra.periodic_element_analysis.self_s",
    "algebra.recurrent_idempotent_check.self_s", "algebra.run_equivalence_corpus.self_s",
    "algebra.semigroup_elements", "algebra.self_s",
    "hyperspace.image_pair_dist.calls", "hyperspace.image_pair_dist.self_s",
    "hyperspace.pairwise_hausdorff.calls", "hyperspace.pairwise_hausdorff.self_s",
    "hyperspace.build_hyper_model.self_s", "hyperspace.hyperpoints", "hyperspace.self_s",
    "properties.hitting_set.calls", "properties.hitting_set.self_s",
    "properties.classify_transitivity.self_s", "properties.equicontinuity_scan.self_s",
    "properties.full_distance_matrix.self_s", "properties.rigidity_battery.self_s",
    "properties.recurrence_report.self_s", "properties.self_s",
    "symbolic.cylinder_hitting.calls", "symbolic.cylinder_hitting.self_s",
    "symbolic.words.calls", "symbolic.words.self_s", "symbolic.word_in_language.calls",
    "symbolic.word_in_language.self_s",
    "symbolic.verify_factor.self_s", "symbolic.periodic_spectrum.self_s", "symbolic.self_s",
    "cli.run_experiment.self_s", "cli.emit_report.self_s", "cli.report_bytes",
    "trace_overhead_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


class RunError(RuntimeError):
    """A workload process failed, so there is no result to print."""


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    return env


def spawn(args, root: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; (spawn time, its JSON result)."""
    cmd = [sys.executable, str(WORKER)] + args
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def high_percentile(samples):
    """(percent, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def machine_info(root: Path, numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    # a benchmark checkout need not be a git repository: the digest of the
    # sources identifies the code either way
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == root:   # not an enclosing repository
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy_version}


def run_traced(common, seconds, root, out_dir, deadline):
    _, res = spawn(["--mode", "trace", "--out", str(out_dir), "--seconds", str(seconds)]
                   + common, root, deadline)
    counts, self_s = res["counts"], res["self_s"]
    values = {name: self_s.get(name, 0.0) if name.endswith("_s") else counts.get(name, 0)
              for name in PER_LAYER}
    traced = statistics.median(res["traced_pass_s"])
    values["trace_overhead_s"] = traced - res["untraced_pass_s"]
    print(f"# traced passes: {len(res['traced_pass_s'])}, median {traced:.4f} s; "
          f"untraced pass {res['untraced_pass_s']:.4f} s")
    for name in sorted(set(self_s) | set(counts)):
        if name not in values:
            print(f"#   {name} = {self_s.get(name, counts.get(name))}")
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return metrics, res["attempted"], res["failed"], res["numpy"]


def run_untraced(common, seconds, root, out_dir, deadline):
    # The speed of the host drifts by tens of percent over minutes, more than
    # a median over one run can average away.  So every interpreter times a
    # fixed gauge once it is ready and after each pass, and every time is
    # scaled by REFERENCE_GAUGE_S over the mean of the gauges next to it: a
    # setup time by the gauge after it, a pass by the gauges before and after
    # it.  Between measuring interpreters, cheap setup-only ones add samples
    # of setup_s.  The first measuring interpreter runs a cold and a warm
    # pass; later ones run as many of the two as should end within
    # ``seconds``.
    setups, colds, warm, gauges, rss, runs = [], [], [], [], [], []
    scaled = {"setup_s": [], "cold_pass_s": [], "pass_s": []}

    def scale(g):
        return REFERENCE_GAUGE_S / statistics.mean(g)

    start, cost = time.monotonic(), None
    while True:
        passes = 2
        if cost is not None:
            left = seconds - (time.monotonic() - start)
            passes = sum(c <= left for c in cost)
            if passes < 1:
                break
        began = time.monotonic()
        for _ in range(SETUP_PER_MEASURE):
            started, res = spawn(["--mode", "setup"] + common, root, deadline)
            setups.append(res["ready"] - started)
            gauges.extend(res["gauge_s"])
            scaled["setup_s"].append(setups[-1] * scale(res["gauge_s"]))
        started, res = spawn(["--mode", "measure", "--passes", str(passes), "--out", str(out_dir)]
                             + common, root, deadline)
        g = res["gauge_s"]        # g[i] ran right before pass i, g[i + 1] right after it
        times = [res["cold_pass_s"]] + res["warm_pass_s"]
        setups.append(res["ready"] - started)
        scaled["setup_s"].append(setups[-1] * scale(g[:1]))
        colds.append(times[0])
        scaled["cold_pass_s"].append(times[0] * scale(g[0:2]))
        warm.extend(times[1:])
        scaled["pass_s"].extend(t * scale(g[i:i + 2]) for i, t in enumerate(times) if i)
        gauges.extend(g)
        if passes == 2:           # peak memory over a cold and a warm pass
            rss.append(res["peak_rss_mb"])
        runs.append(res)
        # what the next interpreter should take with one pass, and with two
        cold = res["ready"] - began + g[0] + times[0] + g[1]
        cost = (cold, cold + times[-1] + g[-1])
    attempted = sum(r["attempted"] for r in runs)
    # reports must also be identical across interpreters
    failed = sum(r["attempted"] if r["digests"] != runs[0]["digests"] else r["failed"]
                 for r in runs)
    ratio = (attempted - failed) / attempted
    values = {name: statistics.median(samples) for name, samples in scaled.items()}
    values.update(peak_rss_mb=statistics.median(rss), ok_step_ratio=ratio)
    for name, samples in (("cold passes", colds), ("warm passes", warm), ("setups", setups),
                          ("gauges", gauges)):
        print(f"# {name} (s): " + " ".join(f"{x:.3f}" for x in samples))
    print(f"# unscaled medians: pass_s {statistics.median(warm):.4f} s, cold_pass_s "
          f"{statistics.median(colds):.4f} s, setup_s {statistics.median(setups):.4f} s; "
          f"the times below are at a gauge of {REFERENCE_GAUGE_S} s")
    pct = high_percentile(scaled["pass_s"])
    print(f"# pass_s: median of {len(warm)} warm passes; "
          + (f"p{pct[0]:.0f} = {pct[1]:.4f} s" if pct else "no percentile has ten samples beyond it"))
    print(f"# setup_s: median of {len(setups)} fresh interpreters; cold_pass_s: median of "
          f"{len(colds)}; peak_rss_mb: median of {len(rss)}")
    print(f"# failed_step_ratio = {failed}/{attempted} = {1.0 - ratio:.6f} ratio")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return metrics, attempted, failed, runs[0]["numpy"]


def run(workload: str, seed: int, seconds: float, traced: bool, small: bool,
        root: Path, out_dir: Path) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    measure = run_traced if traced else run_untraced
    metrics, attempted, failed, numpy_version = measure(common, seconds, root, out_dir, deadline)
    print("# env " + json.dumps(machine_info(root, numpy_version), sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload:13s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    scratch = root / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="reports-", dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small,
                     root, out_dir)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass          # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
