"""Config-driven experiment runner and subcommand CLI.

Reports are deterministic: wall-clock timings are written to a separate
file so the JSON report is byte-identical across reruns of the same config.
Exit codes: 0 all checks held, 2 verdict failures (an ``expect`` block or an
internal cross-check failed), 1 execution error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import algebra, envelope, hyperspace, properties, spaces, symbolic


_SCALARS = frozenset({str, int, bool, type(None)})


def _jsonable(obj):
    kind = type(obj)
    if kind in _SCALARS or kind is float and math.isfinite(obj):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        if all(type(v) in _SCALARS for v in seq):
            return seq
        return [_jsonable(v) for v in seq]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _jsonable(float(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dig(doc, path: str):
    cur = doc
    for part in path.split("."):
        if isinstance(cur, list):
            cur = cur[int(part)]
        else:
            cur = cur[part]
    return cur


class StepContext:
    def __init__(self, seed=0):
        self.seed = seed
        self.model = None
        self.env = None
        self.hyper = None
        self.hyper_env = None
        self.shift = None
        self.shift_other = None

    def load(self, model):
        """Make ``model`` current and drop the envelopes and hyper model built
        from the previous one."""
        self.model, self.env, self.hyper, self.hyper_env = model, None, None, None
        return model


def _require(value, what):
    if value is None:
        raise ValueError(f"pipeline step needs {what} from an earlier step")
    return value


def _on(slot, module, name):
    """The op that calls ``module.name`` on the context's ``slot`` with the
    step's params.  The function is looked up at each call, so a wrapper
    bound to the module attribute after import is the one called."""
    needs = {"env": "an envelope", "shift": "a shift", "model": "a model"}[slot]

    def op(ctx, **params):
        return getattr(module, name)(_require(getattr(ctx, slot), needs), **params)
    return op


def _target(ctx):
    """The shift when a shift and no model is loaded, else the model."""
    target = ctx.shift if ctx.shift is not None and ctx.model is None else ctx.model
    return _require(target, "a model or shift")


def _op_load_example(ctx, name, params=None):
    model = ctx.load(spaces.load_example(name, **(params or {})))
    return {"model": model.name, "points": model.n_points,
            "kind": model.kind, "invertible": model.invertible}


def _op_window_model(ctx, count=64, radius=64, seed=None, density=0.5):
    model = ctx.load(spaces.sample_window_model(
        count=count, radius=radius, seed=ctx.seed if seed is None else seed,
        density=density))
    return {"model": model.name, "points": model.n_points}


def _op_exact_envelope(ctx):
    ctx.env = envelope.exact_envelope(_require(ctx.model, "a model"))
    return {"elements": ctx.env.element_names(), "index": ctx.env.index,
            "period": ctx.env.period}


def _op_approx_envelope(ctx, horizon, tau, power_range="two-sided",
                        close_table=True, max_elements=None):
    ctx.env = envelope.approx_envelope(
        _require(ctx.model, "a model"), horizon, tau, power_range,
        close_table=close_table, max_elements=max_elements)
    return {
        "elements": ctx.env.element_names(),
        "limit_elements": [ctx.env.elements[i].name for i in ctx.env.limit_elements],
        "stabilized": ctx.env.stabilized,
        "max_snap_error": ctx.env.max_snap_error,
    }


def _op_envelope_export(ctx):
    return _require(ctx.env, "an envelope").to_json()


def _op_envelope_table(ctx):
    return {"text": _require(ctx.env, "an envelope").render_table()}


def _op_stabilization(ctx, horizons, tau, power_range="two-sided"):
    return envelope.stabilization_diagnostic(
        _require(ctx.model, "a model"), horizons, tau, power_range, ctx.env)


def _op_idempotents(ctx):
    return {"idempotents": algebra.idempotents(_require(ctx.env, "an envelope").semigroup)}


def _op_minimal_left_ideals(ctx):
    return {"ideals": algebra.minimal_left_ideals(_require(ctx.env, "an envelope").semigroup)}


def _op_kernel_and_groups(ctx):
    dec = algebra.kernel_and_groups(_require(ctx.env, "an envelope").semigroup)
    return {
        "minimal_left_ideals": dec.minimal_left_ideals,
        "idempotents_per_ideal": dec.idempotents_per_ideal,
        "kernel": dec.kernel,
        "partition_ok": dec.partition_ok,
        "groups_ok": dec.groups_ok,
    }


def _op_ideal_isomorphism(ctx, i=0, k=1):
    s = _require(ctx.env, "an envelope").semigroup
    ideals = algebra.minimal_left_ideals(s)
    i, k = (spaces.check_index(v, len(ideals), f"ideal index {n}")
            for n, v in (("i", i), ("k", k)))
    return algebra.ideal_isomorphism_check(s, ideals[i], ideals[k])


def _op_is_group_distal(ctx):
    return algebra.is_group_distal(_require(ctx.env, "an envelope").semigroup)


def _op_recurrent_idempotents(ctx):
    return algebra.recurrent_idempotent_check(_require(ctx.env, "an envelope"))


def _op_equivalence_corpus(ctx, count=500, max_points=8, seed=None):
    return algebra.run_equivalence_corpus(
        count=count, max_points=max_points,
        seed=ctx.seed if seed is None else seed)


def _op_build_hyper(ctx, k=2, budget=250_000):
    ctx.hyper = hyperspace.build_hyper_model(_require(ctx.model, "a model"), k, budget=budget)
    ctx.hyper_env = None
    return {"hyperpoints": ctx.hyper.n_points, "max_cardinality": k}


def _op_hyper_export(ctx):
    return _require(ctx.hyper, "a hyper model").to_json()


def _op_hitting_matrix(ctx, horizon, cylinder_length=None, granularity=None):
    """Membership matrix of every N(U, V) over the cover, CSV-friendly; a
    shift's cover is its cylinders up to length 2 by default."""
    target = _target(ctx)
    if cylinder_length is None and isinstance(target, symbolic.Subshift):
        cylinder_length = 2
    sets = properties.transitivity_cover(target, cylinder_length, granularity)
    hits = properties.hitting_tensor(target, sets, horizon)
    rows = [{"u": u.label(), "v": v.label(), "membership": hits[1:, i, j].astype(int).tolist()}
            for i, u in enumerate(sets) for j, v in enumerate(sets)]
    return {"horizon": horizon, "pairs": rows}


def _op_hyper_envelope(ctx, horizon=None, tau=None, power_range="two-sided"):
    hyper = _require(ctx.hyper, "a hyper model")
    if horizon is None:
        ctx.hyper_env = envelope.exact_envelope(hyper)
    else:
        ctx.hyper_env = envelope.approx_envelope(hyper, horizon, tau, power_range)
    return {"elements": ctx.hyper_env.element_names()}


def _op_theta_check(ctx):
    return envelope.theta_check(_require(ctx.env, "a base envelope"),
                                _require(ctx.hyper_env, "a hyper envelope"))


def _op_inducibility(ctx, element=None):
    henv = _require(ctx.hyper_env, "a hyper envelope")
    names = henv.element_names()
    targets = range(len(names))
    if element is not None:
        targets = [spaces.check_index(element, len(names), "element")]
    return {names[idx]: envelope.inducibility_check(henv, idx) for idx in targets}


def _op_build_subshift(ctx, spec):
    ctx.shift_other = ctx.shift
    ctx.shift = symbolic.build_subshift(spec)
    return {"alphabet": list(ctx.shift.alphabet), "kind": ctx.shift.kind}


def _op_language(ctx, n):
    return {"n": n, "words": sorted(symbolic.language(_require(ctx.shift, "a shift"), n))}


def _op_boyle(ctx, n_max):
    return symbolic.boyle_precondition(
        _require(ctx.shift_other, "a first shift"),
        _require(ctx.shift, "a second shift"), n_max)


def _op_verify_factor(ctx, n, code=None):
    """Check a sliding-block code ``{memory, anticipation, rule}`` from the
    previous shift onto the current one; the golden-mean to even-shift code
    by default."""
    dom = _require(ctx.shift_other, "the domain shift")
    cod = _require(ctx.shift, "the codomain shift")
    if code is None:
        blk = symbolic.golden_to_even_code()
    else:
        blk = symbolic.SlidingBlockCode(**code)
    return {"n": n, "verified": symbolic.verify_factor(blk, dom, cod, n)}


def _op_classify_transitivity(ctx, horizon, cylinder_length=None, granularity=None):
    out = properties.classify_transitivity(
        _target(ctx), horizon, cylinder_length=cylinder_length, granularity=granularity)
    return {
        "verdicts": out["verdicts"],
        "chain_ok": out["chain_ok"],
    }


def _op_equicontinuity(ctx, eps_list, horizon):
    out = properties.equicontinuity_scan(_require(ctx.model, "a model"), eps_list, horizon)
    slim = {str(e): {"ae": v["ae"], "count": len(v["equicontinuity_points"])}
            for e, v in out["per_epsilon"].items()}
    return {"ae": out["ae"], "sensitive": out["sensitive"], "per_epsilon": slim}


def _op_rigidity(ctx, horizon, tau):
    out = properties.rigidity_battery(_require(ctx.model, "a model"), horizon, tau)
    return {
        "weakly_rigid": out["weakly_rigid"],
        "rigid": out["rigid"],
        "uniformly_rigid": out["uniformly_rigid"],
        "chain_ok": out["chain_ok"],
    }


def _op_hitting_set(ctx, u, v, horizon):
    target = _target(ctx)
    if not isinstance(target, symbolic.Subshift):   # balls on a model, words on a shift
        u, v = (properties.ball(s["center"], s["radius"]) for s in (u, v))
    return {"times": properties.hitting_set(target, u, v, horizon)}


def _op_omega_limit(ctx, x, horizon, tol):
    return {"omega": sorted(spaces.omega_limit_estimate(
        _require(ctx.model, "a model"), x, horizon, tol))}


def _op_orbit_segment(ctx, x, n_from, n_to):
    return {"orbit": spaces.orbit_segment(_require(ctx.model, "a model"), x, n_from, n_to)}


def _op_model_export(ctx):
    return _require(ctx.model, "a model").to_json()


OPS = {
    "load_example": _op_load_example,
    "window_model": _op_window_model,
    "exact_envelope": _op_exact_envelope,
    "approx_envelope": _op_approx_envelope,
    "envelope_export": _op_envelope_export,
    "envelope_table": _op_envelope_table,
    "identity_isolated": _on("env", envelope, "identity_isolated"),
    "stabilization_diagnostic": _op_stabilization,
    "power_decomposition": _on("env", envelope, "envelope_power_decomposition"),
    "idempotents": _op_idempotents,
    "minimal_left_ideals": _op_minimal_left_ideals,
    "kernel_and_groups": _op_kernel_and_groups,
    "ideal_isomorphism": _op_ideal_isomorphism,
    "is_group_distal": _op_is_group_distal,
    "proximal_structure": _on("env", algebra, "proximal_structure"),
    "periodic_elements": _on("env", algebra, "periodic_element_analysis"),
    "recurrent_idempotents": _op_recurrent_idempotents,
    "equivalence_corpus": _op_equivalence_corpus,
    "build_hyper": _op_build_hyper,
    "hyper_export": _op_hyper_export,
    "hitting_matrix": _op_hitting_matrix,
    "hyper_envelope": _op_hyper_envelope,
    "theta_check": _op_theta_check,
    "inducibility": _op_inducibility,
    "hyper_equicontinuity": _on("model", properties, "hyper_equicontinuity_crosscheck"),
    "build_subshift": _op_build_subshift,
    "language": _op_language,
    "entropy": _on("shift", symbolic, "entropy_estimates"),
    "classify_shift": _on("shift", symbolic, "classify_sft"),
    "periodic_spectrum": _on("shift", symbolic, "periodic_spectrum"),
    "boyle_precondition": _op_boyle,
    "verify_factor": _op_verify_factor,
    "classify_transitivity": _op_classify_transitivity,
    "strong_transitivity": _on("model", properties, "strong_transitivity_check"),
    "equicontinuity": _op_equicontinuity,
    "rigidity_battery": _op_rigidity,
    "recurrence_report": _on("model", properties, "recurrence_report"),
    "wap_proxy": _on("env", properties, "wap_proxy_check"),
    "distal_semiflow": _on("env", properties, "distal_semiflow_check"),
    "hitting_set": _op_hitting_set,
    "omega_limit": _op_omega_limit,
    "orbit_segment": _op_orbit_segment,
    "model_export": _op_model_export,
}


def run_experiment(config: dict) -> tuple[dict, list[float]]:
    """Execute a declarative pipeline; returns (report, per-step timings).  A
    ``seed`` that is not an integer >= 0 is refused before any step runs."""
    ctx = StepContext(seed=spaces.check_int(config.get("seed", 0), 0, "seed"))
    steps_out = []
    timings = []
    if "model" in config:
        spec = config["model"]
        ctx.load(spaces.load_example(spec["name"], **spec.get("params", {})))
    verdict_failures = 0
    errors = 0
    for step in config.get("pipeline", []):
        op = step.get("op")
        params = step.get("params", {})
        entry = {"op": op, "params": params}
        t0 = time.monotonic()
        if op not in OPS:
            entry["status"] = "error"
            entry["error"] = f"unknown op {op!r}"
            errors += 1
        else:
            try:
                result = _jsonable(OPS[op](ctx, **params))
                entry["result"] = result
                entry["status"] = "ok"
                for path, expected in step.get("expect", {}).items():
                    try:
                        actual = _dig(result, path)
                    except (KeyError, IndexError, TypeError):
                        actual = None
                    if _jsonable(actual) != expected:
                        entry["status"] = "verdict-fail"
                        entry.setdefault("failed_expectations", []).append(
                            {"path": path, "expected": expected, "actual": _jsonable(actual)}
                        )
                        verdict_failures += 1
            except Exception as exc:  # recorded, run continues
                entry["status"] = "error"
                entry["error"] = f"{type(exc).__name__}: {exc}"
                errors += 1
        timings.append(time.monotonic() - t0)
        steps_out.append(entry)
    report = {
        "schema": "ellis.report/1",
        "version": __version__,
        "config": config,
        "steps": steps_out,
        "summary": {
            "ok": errors == 0 and verdict_failures == 0,
            "errors": errors,
            "verdict_failures": verdict_failures,
        },
    }
    return report, timings


def csv_text(header, rows) -> str:
    """A CSV table, quoted as RFC 4180 asks (only cells that need it) with
    ``\\n`` line ends, floats to 12 decimals; None, which is how a report
    stores -inf, is an empty cell."""
    def cell(v):
        return "" if v is None else f"{v:.12f}" if isinstance(v, float) else str(v)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(map(cell, row) for row in [header, *rows])
    return out.getvalue()


def emit_report(report: dict, timings, out_dir, formats=("json",)) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, text):
        (out / name).write_text(text)
        written.append(str(out / name))

    if "json" in formats:
        write("report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    if "csv" in formats:
        for i, step in enumerate(report["steps"]):
            res = step.get("result") or {}
            if step["op"] == "entropy" and "sequence" in res:
                write(f"step{i}_entropy.csv", csv_text(
                    ["n", "count", "log_count_over_n"],
                    [[n, c, v] for (n, v), c in zip(res["sequence"], res["counts"])]))
            if step["op"] == "hitting_matrix" and "pairs" in res:
                write(f"step{i}_hitting.csv", csv_text(
                    ["u", "v", *(f"n{n}" for n in range(1, res["horizon"] + 1))],
                    [[row["u"], row["v"], *row["membership"]] for row in res["pairs"]]))
    if "text" in formats:
        lines = [f"ellis report ({report['version']})"]
        for step in report["steps"]:
            lines.append(f"- {step['op']}: {step['status']}")
            res = step.get("result") or {}
            if "text" in res:
                lines.append(res["text"])
        write("report.txt", "\n".join(lines) + "\n")
    (out / "timings.txt").write_text(
        "".join(f"step{i}\t{t:.6f}s\n" for i, t in enumerate(timings)))
    return written


def _parse_params(pairs):
    out = {}
    for pair in pairs or []:
        key, _, val = pair.partition("=")
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def _step(op, **params) -> dict:
    return {"op": op, "params": params}


def _pipeline(args, spec=None) -> list:
    """The pipeline of an ``envelope``, ``shift`` (of the shift ``spec``) or
    ``props`` subcommand."""
    if args.command == "shift":
        step = {"language": _step("language", n=args.n),
                "entropy": _step("entropy", n_max=args.n),
                "classify": _step("classify_shift"),
                "periods": _step("periodic_spectrum", n_max=args.n)}[args.op]
        return [_step("build_subshift", spec=spec), step]
    load = _step("load_example", name=args.model, params=_parse_params(args.param))
    if args.command == "envelope":
        if args.horizon is None:
            env = _step("exact_envelope")
        else:
            env = _step("approx_envelope", horizon=args.horizon, tau=args.tau,
                        power_range="two-sided" if args.two_sided else "forward")
        return [load, env, _step("envelope_table")]
    h, tau, eps = args.horizon, args.tau, [args.tau, 4 * args.tau]
    return [load, *{
        "transitivity": [_step("classify_transitivity", horizon=h)],
        "strong-transitivity": [_step("strong_transitivity", horizon=h)],
        "equicontinuity": [_step("equicontinuity", eps_list=eps, horizon=h)],
        "hyper-equicontinuity": [_step("hyper_equicontinuity", k=args.max_card,
                                       eps_list=eps, horizon=h)],
        "rigidity": [_step("rigidity_battery", horizon=h, tau=tau)],
        "recurrence": [_step("recurrence_report", horizon=h, tau=tau)],
        "distal-semiflow": [_step("exact_envelope"), _step("distal_semiflow")],
    }[args.prop]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ellis",
                                     description="computational topological dynamics")
    parser.add_argument("--out", default="ellis-out")
    parser.add_argument("--format", default="json", choices=["json", "csv", "text"])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the model catalog")

    p_run = sub.add_parser("run", help="run a declarative experiment config")
    p_run.add_argument("config")

    p_env = sub.add_parser("envelope", help="envelope of a catalog model")
    p_env.add_argument("model")
    p_env.add_argument("--param", action="append", default=[])
    p_env.add_argument("--horizon", type=int, default=None)
    p_env.add_argument("--tau", type=float, default=1e-3)
    p_env.add_argument("--two-sided", action="store_true", default=True)
    p_env.add_argument("--forward", dest="two_sided", action="store_false")

    p_sg = sub.add_parser("semigroup", help="analyze a composition table")
    p_sg.add_argument("table")
    p_sg.add_argument("analysis", choices=[
        "idempotents", "ideals", "kernel", "group-distal"])

    p_sh = sub.add_parser("shift", help="shift-space operations")
    p_sh.add_argument("spec")
    p_sh.add_argument("op", choices=["language", "entropy", "classify", "periods"])
    p_sh.add_argument("--n", type=int, default=8)

    p_pr = sub.add_parser("props", help="property checkers on a catalog model")
    p_pr.add_argument("model")
    p_pr.add_argument("prop", choices=[
        "transitivity", "strong-transitivity", "equicontinuity",
        "hyper-equicontinuity", "rigidity", "recurrence", "distal-semiflow"])
    p_pr.add_argument("--param", action="append", default=[])
    p_pr.add_argument("--horizon", type=int, default=128)
    p_pr.add_argument("--tau", type=float, default=0.05)
    p_pr.add_argument("--max-card", type=int, default=2)

    args = parser.parse_args(argv)
    # run, semigroup and shift read one JSON file; a missing or malformed
    # one is refused with one stderr line, as a bad table is
    doc, arg = None, {"run": "config", "semigroup": "table", "shift": "spec"}.get(args.command)
    if arg is not None:
        try:
            doc = json.loads(Path(getattr(args, arg)).read_text())
        except (OSError, ValueError) as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1

    if args.command == "catalog":
        report = {
            "schema": "ellis.catalog/1",
            "version": __version__,
            "entries": spaces.list_catalog(),
        }
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "catalog.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        for entry in report["entries"]:
            print(f"{entry['name']:32s} {json.dumps(entry['params'], sort_keys=True)}")
        return 0

    if args.command == "run":
        try:
            report, timings = run_experiment(doc)
        except spaces.InvalidParameterError as exc:   # a bad seed or top-level model
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        formats = set(doc.get("output", {}).get("formats", [args.format]))
        formats.add("json")
        emit_report(report, timings, args.out, sorted(formats))
        print(json.dumps(report["summary"], sort_keys=True))
        if report["summary"]["errors"]:
            return 1
        if report["summary"]["verdict_failures"]:
            return 2
        return 0

    if args.command == "semigroup":
        try:
            sg = algebra.FiniteSemigroup.from_json(doc)
        except (ValueError, KeyError, spaces.EnvelopeBudgetError) as exc:   # a bad table
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if args.analysis == "idempotents":
            result = {"idempotents": algebra.idempotents(sg)}
        elif args.analysis == "ideals":
            result = {"ideals": [list(i) for i in algebra.minimal_left_ideals(sg)]}
        elif args.analysis == "kernel":
            dec = algebra.kernel_and_groups(sg)
            result = {"kernel": list(dec.kernel), "partition_ok": dec.partition_ok}
        else:
            result = algebra.is_group_distal(sg)
        print(json.dumps(_jsonable(result), indent=2, sort_keys=True))
        return 0

    # envelope, shift and props: one pipeline through the op dispatch
    report, timings = run_experiment({"pipeline": _pipeline(args, doc)})
    emit_report(report, timings, args.out, [args.format, "json"])
    if args.command == "envelope":
        print(json.dumps(report["summary"], sort_keys=True))
        return 0 if report["summary"]["ok"] else 1
    # shift and props print the last step's result, or the first error
    failed = [s for s in report["steps"] if s["status"] == "error"]
    if failed:
        print(failed[0]["error"], file=sys.stderr)
        return 1
    print(json.dumps(report["steps"][-1]["result"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
