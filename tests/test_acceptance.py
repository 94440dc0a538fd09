"""Acceptance suite.

One test per criterion; each prints a PASS line once all its assertions
held, with the tolerance and horizon parameters pinned here.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from ellis import algebra, cli, envelope, hyperspace, properties, spaces, symbolic

import oracles

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_square_map_reproduction():
    t0 = time.monotonic()
    model = spaces.load_example("square-map", grid=1001)
    env = envelope.approx_envelope(model, 60, 1e-3, "two-sided")
    assert env.stabilized

    lims = env.limit_elements
    assert len(lims) == 2
    pts = model.points
    g1 = np.where(pts < 1.0, 0.0, 1.0)
    g2 = np.where(pts > 0.0, 1.0, 0.0)
    dist = {i: (np.abs(np.asarray(env.elements[i].images).ravel() - g1).max(),
                np.abs(np.asarray(env.elements[i].images).ravel() - g2).max())
            for i in lims}
    fwd = min(lims, key=lambda i: dist[i][0])
    back = min(lims, key=lambda i: dist[i][1])
    assert fwd != back
    assert dist[fwd][0] < 1e-3    # matches g1 pointwise within tau
    assert dist[back][1] < 1e-3   # matches g2 pointwise within tau

    t = env.table
    assert t[fwd, fwd] == fwd and t[back, back] == back        # idempotent
    f1 = env.exponent_map[1]
    assert t[f1, fwd] == fwd and t[f1, back] == back           # f o g_i = g_i
    assert t[fwd, back] == back and t[back, fwd] == fwd        # cross absorption

    sg = env.semigroup
    ideals = algebra.minimal_left_ideals(sg)
    assert ideals == [(fwd,), (back,)] or ideals == [(back,), (fwd,)]
    iso = algebra.ideal_isomorphism_check(sg, ideals[0], ideals[1])
    assert iso["isomorphic"]
    assert {iso["pairing"]["u"], iso["pairing"]["v"]} == {fwd, back}

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(1, f"2 limit maps, products and ideals exact, {elapsed:.2f}s")


def test_criterion_2_neg_cube_reproduction():
    t0 = time.monotonic()
    model = spaces.load_example("neg-cube", grid=2001)
    env = envelope.approx_envelope(model, 80, 1e-3, "two-sided")
    assert env.stabilized
    lims = env.limit_elements
    assert len(lims) == 4

    pts = model.points
    formulas = {
        "g": np.where(np.abs(pts) < 1.0, 0.0, np.where(pts >= 1.0, 1.0, -1.0)),
        "h": np.where(np.abs(pts) < 1.0, 0.0, np.where(pts <= -1.0, 1.0, -1.0)),
        "m": np.where(pts == 0.0, 0.0, np.where(pts > 0, 1.0, -1.0)),
        "n": np.where(pts == 0.0, 0.0, np.where(pts < 0, 1.0, -1.0)),
    }
    label = {}
    for i in lims:
        vals = np.asarray(env.elements[i].images).ravel()
        best = min(formulas, key=lambda k: np.abs(vals - formulas[k]).max())
        assert np.abs(vals - formulas[best]).max() <= 1e-3
        label[best] = i
    assert set(label) == {"g", "h", "m", "n"}  # a bijection onto the formulas

    el = dict(label)
    el["f"] = env.exponent_map[1]
    t = env.table
    expected = [
        ("m", "m", "m"), ("n", "n", "m"), ("m", "g", "g"), ("g", "m", "m"),
        ("n", "g", "h"), ("g", "n", "n"), ("h", "h", "g"), ("h", "n", "m"),
        ("m", "h", "h"), ("h", "g", "h"), ("g", "g", "g"), ("f", "g", "h"),
        ("f", "h", "g"), ("f", "m", "n"), ("f", "n", "m"), ("g", "h", "h"),
    ]
    for a, b, c in expected:
        assert t[el[a], el[b]] == el[c], (a, b, c)

    elapsed = time.monotonic() - t0
    assert elapsed < 20.0
    _report(2, f"4 limit maps, all 16 products exact, {elapsed:.2f}s")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_criterion_3_periodic_family(n):
    model = spaces.load_example("periodic-stack", n=n, truncate=100)
    env = envelope.exact_envelope(model)
    sg = env.semigroup
    gen = env.generator_index
    t = env.table

    analysis = algebra.periodic_element_analysis(env)
    idem = set(algebra.idempotents(sg))
    candidates = [p for p in analysis["periodic_elements"] if p in idem]
    assert len(candidates) == 1
    p = candidates[0]
    cur = p
    for _ in range(n):
        cur = int(t[gen, cur])
    assert cur == p                                      # f^n . p = p
    assert analysis["least_periods"][p] == n             # least period exactly n

    orbit = {p}
    cur = p
    while True:
        cur = int(t[gen, cur])
        if cur == p:
            break
        orbit.add(cur)
    assert len(orbit) == n
    ideals = [set(i) for i in algebra.minimal_left_ideals(sg)]
    assert orbit in ideals                               # the orbit is a minimal ideal

    assert analysis["count"] <= 2 * n
    assert analysis["all_periods_equal"]
    _report(3, f"n={n}: idempotent of least period {n}, orbit = {n}-element ideal")


def test_criterion_4_golden_and_even():
    t0 = time.monotonic()
    golden = symbolic.build_subshift(oracles.GOLDEN)
    even = symbolic.build_subshift(oracles.EVEN)

    est = symbolic.entropy_estimates(golden, 24)
    assert abs(est["spectral"] - est["ratio_estimate"]) <= 1e-6
    assert abs(est["spectral"] - 0.4812118) <= 1e-3
    assert abs(est["ratio_estimate"] - 0.4812118) <= 1e-3

    # even-shift block counts against the forbidden-family enumeration
    import itertools
    for length in range(1, 17):
        family = ["1" + "0" * (2 * k + 1) + "1" for k in range(length // 2 + 1)]
        brute = {w for w in ("".join(b) for b in itertools.product("01", repeat=length))
                 if not any(f in w for f in family)}
        assert symbolic.language(even, length) == brute

    code = symbolic.golden_to_even_code()
    for length in range(2, 17):
        assert symbolic.verify_factor(code, golden, even, length)

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(4, f"entropy to 1e-6, even-shift counts and factor code to n=16, {elapsed:.2f}s")


def test_criterion_5_two_shift_diagnostics():
    two_shift = symbolic.build_subshift(oracles.FULL2)
    out = properties.classify_transitivity(two_shift, 50, cylinder_length=3)
    assert out["verdicts"]["mixing"].verdict == "holds"

    model = spaces.sample_window_model(count=2000, radius=2001, seed=11)
    env = envelope.approx_envelope(model, 2000, 0.4, "two-sided", close_table=False)
    iso = envelope.identity_isolated(env)
    assert iso["isolated"]

    diag = envelope.stabilization_diagnostic(model, [100, 500, 1000, 2000], 0.4)
    assert diag["verdict"] == "growing"
    assert diag["counts"] == sorted(set(diag["counts"]))
    _report(5, f"mixing cylinders, isolated identity, counts {diag['counts']}")


def test_criterion_6_equivalence_corpus():
    rep = algebra.run_equivalence_corpus(count=500, max_points=8, seed=7)
    assert rep["count"] == 500
    assert rep["ok"], rep["violations"]
    _report(6, "500 random models, zero violations across (a)-(f)")


def test_criterion_7_rigidity_battery():
    m = spaces.load_example("dyadic-circle-stack-inward", levels=8, mult=1)
    fine = properties.rigidity_battery(m, 512, 0.02)
    assert fine["rigid"].verdict == "holds"
    w = fine["rigid"].witnesses[0]
    assert w & (w - 1) == 0                     # witness is a power of two
    coarse = properties.rigidity_battery(m, 512, 0.5)
    assert coarse["uniformly_rigid"].verdict == "fails"
    assert fine["chain_ok"] and coarse["chain_ok"]

    rot = spaces.load_example("irrational-rotation", grid=34)
    rb = properties.rigidity_battery(rot, 512, 0.02)
    assert rb["uniformly_rigid"].verdict == "holds"

    cases = {
        "square-map": {"grid": 201}, "neg-cube": {"grid": 201}, "identity": {},
        "irrational-rotation": {"grid": 34}, "double-circle-rotation": {"grid": 24},
        "dyadic-circle-stack": {"levels": 4, "mult": 4},
        "dyadic-circle-stack-inward": {"levels": 5, "mult": 2},
        "triadic-circle-stack": {"levels": 2, "mult": 2},
        "periodic-stack": {"n": 3, "truncate": 20},
        "periodic-union": {"n": 2, "truncate": 15},
        "isolated-ones-subshift": {"truncate": 8},
        "annulus-skew": {"radial": 3, "grid": 18},
    }
    horizon, tau = 128, 0.02
    for name, params in cases.items():
        model = spaces.load_example(name, **params)
        bat = properties.rigidity_battery(model, horizon, tau)
        assert bat["chain_ok"], name
        rng = "two-sided" if model.invertible else "forward"
        e = envelope.approx_envelope(model, horizon, tau, rng, close_table=False)
        iso = envelope.identity_isolated(e)
        assert (bat["weakly_rigid"].verdict == "holds") == (not iso["isolated"]), name
    _report(7, f"rigid witness {w}, uniform fails at 0.5, agreement on 12 catalog models")


def test_criterion_8_hyperspace_suite():
    sq = spaces.load_example("square-map", grid=21)
    cross = properties.hyper_equicontinuity_crosscheck(sq, 2, [0.5], 40)
    assert cross["agree"] and cross["base_ae"]
    rot = spaces.load_example("irrational-rotation", grid=36)
    cross2 = properties.hyper_equicontinuity_crosscheck(rot, 2, [0.5], 80)
    assert cross2["agree"] and cross2["base_ae"]

    finite_models = {
        "identity": {"n": 5},
        "irrational-rotation": {"grid": 12},
        "double-circle-rotation": {"grid": 8},
        "dyadic-circle-stack": {"levels": 3, "mult": 2},
        "dyadic-circle-stack-inward": {"levels": 3, "mult": 2},
        "triadic-circle-stack": {"levels": 2, "mult": 1},
        "periodic-stack": {"n": 2, "truncate": 6},
        "periodic-union": {"n": 2, "truncate": 5},
        "isolated-ones-subshift": {"truncate": 6},
    }
    for name, params in finite_models.items():
        model = spaces.load_example(name, **params)
        base_env = envelope.exact_envelope(model)
        hyper = hyperspace.build_hyper_model(model, 2)
        hyper_env = envelope.exact_envelope(hyper)
        rep = envelope.theta_check(base_env, hyper_env)
        assert rep["well_defined"], name
        assert not rep["homomorphism_violations"], name

    sq11 = spaces.load_example("square-map", grid=11)
    hyper11 = hyperspace.build_hyper_model(sq11, 2)
    henv = envelope.approx_envelope(hyper11, 40, 0.05, "two-sided")
    targets = [henv.exponent_map[1]] + henv.limit_elements
    for idx in targets:
        rep = envelope.inducibility_check(henv, idx)
        assert rep["singletons_ok"] and rep["monotone_ok"] and rep["minimal_ok"]
    _report(8, "AE crosschecks agree, theta clean on 9 models, inducibility holds")


def test_criterion_9_report_determinism(tmp_path):
    configs = sorted(CONFIG_DIR.glob("criterion*.json"))
    assert len(configs) >= 8
    for cfg_path in configs:
        config = json.loads(cfg_path.read_text())
        r1, t1 = cli.run_experiment(config)
        r2, t2 = cli.run_experiment(config)
        assert r1["summary"]["ok"], (cfg_path.name, r1["summary"], [
            s for s in r1["steps"] if s["status"] != "ok"])
        out1 = tmp_path / cfg_path.stem / "a"
        out2 = tmp_path / cfg_path.stem / "b"
        cli.emit_report(r1, t1, out1, ["json"])
        cli.emit_report(r2, t2, out2, ["json"])
        b1 = (out1 / "report.json").read_bytes()
        b2 = (out2 / "report.json").read_bytes()
        assert b1 == b2, cfg_path.name
    _report(9, f"{len(configs)} configs byte-identical across reruns")
