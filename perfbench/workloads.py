"""Workload definitions: experiment configs generated from a seed.

Each workload is a list of ``ellis run`` configs, one per carrier family.
The seed becomes each config's ``seed``, which drives the equivalence corpus
and the sampled shift window; model sizes are fixed so that every ``expect``
block can pin exact numbers (index, period, element counts, verdicts).
``small=True`` shrinks every size for the self-test, with its own pins.

This module imports nothing from ``ellis``: the configs are plain data.
"""

from __future__ import annotations


def step(op, expect=None, **params):
    out = {"op": op, "params": params}
    if expect:
        out["expect"] = expect
    return out


def length(path, n, last):
    """Pin a list result to exactly ``n`` entries ending in ``last``."""
    return {f"{path}.{n - 1}": last, f"{path}.{n}": None}


def config(seed, pipeline, model=None, **params):
    cfg = {"seed": seed}
    if model is not None:
        cfg["model"] = {"name": model, "params": params}
    cfg["pipeline"] = pipeline
    cfg["output"] = {"formats": ["json"]}
    return cfg


def finite_exact(seed, small=False):
    """Big exact tables: envelope and algebra, plus ball-cover hitting sets."""
    n = 4 if small else 8
    period = 12 if small else 840        # lcm(1..n)
    size = 201 + period                  # index 201 comes from truncate=100
    corpus = 50 if small else 500
    grid = 16 if small else 48
    ball_radius = "0.785398" if small else "0.523599"   # default cover granularity
    levels = 2 if small else 3
    stack_period = 2 ** levels
    return [
        config(seed, [
            step("exact_envelope", {"index": 201, "period": period,
                                    **length("elements", size, f"f^{size - 1}")}),
            step("periodic_elements", {"common_period": period, "count": period,
                                       "count_bound_ok": True}),
            step("recurrent_idempotents", {"all_required_recurrent": True}),
            step("kernel_and_groups", {"partition_ok": True, "groups_ok": True,
                                       **length("kernel", period, size - 1),
                                       **length("minimal_left_ideals", 1, list(range(201, size)))}),
        ], "periodic-union", n=n),
        config(seed, [
            step("equivalence_corpus", {"ok": True, "count": corpus, "violations": []},
                 count=corpus, max_points=8),
        ]),
        config(seed, [
            step("classify_transitivity", {"verdicts.transitive.verdict": "holds",
                                           "verdicts.weakly_mixing.verdict": "fails",
                                           "verdicts.mixing.verdict": "fails",
                                           "chain_ok": True,
                                           **length("verdicts.transitive.params.sets", grid,
                                                    f"B({grid - 1},{ball_radius})")},
                 horizon=64),
            step("rigidity_battery", {"uniformly_rigid.verdict": "holds",
                                      "rigid.witnesses": [8, 16, 24, 32], "chain_ok": True},
                 horizon=512, tau=0.02),
            step("hyper_equicontinuity", {"agree": True, "base_ae": True, "hyper_ae": True},
                 k=2, eps_list=[0.5], horizon=80),
        ], "irrational-rotation", grid=grid),
        config(seed, [
            step("exact_envelope", {"index": 0, "period": stack_period}),
            step("build_hyper", {"hyperpoints": 325 if small else 2145}, k=2),
            step("hyper_envelope", length("elements", stack_period, f"f^{stack_period - 1}")),
            step("theta_check", {"well_defined": True, "surjective_onto_observed": True,
                                 "injective": True, "homomorphism_violations": []}),
        ], "dyadic-circle-stack", levels=levels, mult=2),
    ]


def sampled(seed, small=False):
    """Sampled interval maps: iterate evaluation, tau-clustering, snapped closure."""
    sq_elements, sq_last, sq_ideals = (27, "f^-14", [[25], [26]]) if small else (35, "f^20", [[29], [34]])
    nc_elements, nc_last = (21, "f^-12") if small else (23, "f^12")
    hyper_grid = 11 if small else 21
    rec_grid = 41 if small else 401
    return [
        config(seed, [
            step("approx_envelope", {"stabilized": True,
                                     **length("elements", sq_elements, sq_last),
                                     **length("limit_elements", 2, sq_last)},
                 horizon=60, tau=0.001),
            step("minimal_left_ideals", {"ideals": sq_ideals}),
            step("stabilization_diagnostic", {"counts.2": sq_elements, "verdict": "stabilizing"},
                 horizons=[15, 30, 60], tau=0.001),
        ], "square-map", grid=1001 if small else 100001),
        config(seed, [
            step("approx_envelope", {"stabilized": True,
                                     **length("elements", nc_elements, nc_last),
                                     **length("limit_elements", 4, nc_last)},
                 horizon=80, tau=0.001),
            step("periodic_elements", {"common_period": 2, "count": 4, "count_bound_ok": True}),
            step("kernel_and_groups", {"partition_ok": True, "groups_ok": True,
                                       **length("kernel", 4, nc_elements - 1)}),
        ], "neg-cube", grid=2001 if small else 20001),
        config(seed, [
            step("hyper_equicontinuity", {"agree": True, "base_ae": True, "hyper_ae": True},
                 k=2, eps_list=[0.5], horizon=40),
        ], "square-map", grid=hyper_grid),
        config(seed, [
            step("recurrence_report", {
                "points.0.recurrent": True,
                f"points.{rec_grid // 2}.recurrent": False,
                f"points.{rec_grid // 2}.nonwandering": False,
                **length("points", rec_grid, {"point": rec_grid - 1, "recurrent": True,
                                              "nonwandering": True,
                                              "essentially_nonwandering": True,
                                              "almost_periodic_gap": 1}),
            }, horizon=64, tau=0.01),
        ], "square-map", grid=rec_grid),
    ]


def shift(seed, small=False):
    """Shift spaces and the window carrier: cylinder hitting sets, exact shifts."""
    cyl = 3 if small else 4
    count = 200 if small else 2000
    horizons = [50, 100, 200] if small else [100, 500, 1000, 2000]
    full_shift = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": []}
    golden = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]}
    even = {"kind": "labeled-graph", "states": ["A", "B"],
            "edges": [["A", "1", "A"], ["A", "0", "B"], ["B", "0", "A"]]}
    n_entropy = 12 if small else 24
    n_spectrum = 8 if small else 16
    mixing = {"verdicts.transitive.verdict": "holds", "verdicts.weakly_mixing.verdict": "holds",
              "verdicts.mixing.verdict": "holds", "chain_ok": True}
    return [
        config(seed, [
            step("build_subshift", spec=full_shift),
            step("classify_transitivity", {**mixing, **length(
                "verdicts.transitive.params.sets", 2 ** (cyl + 1) - 2, "[" + "1" * cyl + "]")},
                 horizon=50, cylinder_length=cyl),
            step("window_model", {"points": count}, count=count, radius=count + 1),
            step("approx_envelope", length("elements", 2 * count + 1, f"f^-{count}"),
                 horizon=count, tau=0.4, close_table=False),
            step("stabilization_diagnostic", {"counts": [2 * h + 1 for h in horizons],
                                              "verdict": "growing"},
                 horizons=horizons, tau=0.4),
        ]),
        config(seed, [
            step("build_subshift", spec=golden),
            step("entropy", {f"counts.{n_entropy - 1}": 377 if small else 121393},
                 n_max=n_entropy),
            step("build_subshift", spec=even),
            step("verify_factor", {"verified": True}, n=10 if small else 20),
            step("periodic_spectrum", {str(n_spectrum): 40 if small else 2160},
                 n_max=n_spectrum),
            step("classify_transitivity", {**mixing, **length(
                "verdicts.transitive.params.sets", 13, "[111]")},
                 horizon=50, cylinder_length=3),
            step("boyle_precondition", {"per_divides": True, "hypotheses_hold": False},
                 n_max=10),
        ]),
    ]


WORKLOADS = {"finite-exact": finite_exact, "sampled": sampled, "shift": shift}
