import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellis import algebra, cli, envelope, properties, spaces, symbolic
from ellis.hyperspace import build_hyper_model
from ellis.properties import (
    OpenSet,
    ball,
    classify_transitivity,
    distal_semiflow_check,
    equicontinuity_scan,
    hitting_set,
    hitting_tensor,
    hyper_equicontinuity_crosscheck,
    orbit_closure_equicontinuity,
    recurrence_report,
    rigidity_battery,
    strong_transitivity_check,
    wap_proxy_check,
)


def finite(table, inverse=None):
    n = len(table)
    coords = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    return spaces.FiniteModel(
        "m", {}, coords,
        lambda a, b, c=coords: np.abs(c[np.asarray(a)] - c[np.asarray(b)]),
        table, inverse, "interval")


# -- hitting sets ---------------------------------------------------------------


def loop_hitting_set(target, u, v, horizon):
    # oracle on a model: one iterate at a time, the images of U's points
    # tested against V (by id for a point set, by image_point_dist to the
    # centre for a ball); on a shift space hitting_set, whose tensor
    # tests/test_symbolic.py checks against the per-pair cylinder walk
    if isinstance(target, symbolic.Subshift):
        return hitting_set(target, u, v, horizon)
    model = target
    iu = u.resolve(model)
    iv = None
    if v.kind == "points":
        if not isinstance(model, spaces.FiniteModel):
            raise spaces.InvalidParameterError("explicit point sets need a finite-exact model")
        iv = v.resolve(model)
    out = []
    for n in range(1, horizon + 1):
        sub = model.apply_to_indices(model.iterate_images(n), iu)
        if iv is not None:
            hit = np.isin(sub, iv)
        else:
            hit = model.image_point_dist(sub, v.center) < v.radius
        if hit.any():
            out.append(n)
    return out


def test_hitting_identity():
    ident = spaces.load_example("identity", n=5)
    u = ball(2, 0.05)
    assert hitting_set(ident, u, u, 10) == list(range(1, 11))


def test_hitting_two_shift_cylinders():
    # oracle: for the full shift any non-overlapping placement is realizable
    full2 = symbolic.full_shift(2)
    assert hitting_set(full2, "1", "0", 10) == list(range(1, 11))


def test_hitting_disjoint_invariant_circles():
    dc = spaces.load_example("double-circle-rotation", grid=12)
    u = ball(0, 0.1)          # on circle r=1
    v = ball(12, 0.1)         # on circle r=2
    assert hitting_set(dc, u, v, 30) == []


def test_empty_open_set_rejected():
    ident = spaces.load_example("identity", n=5)
    with pytest.raises(spaces.InvalidParameterError):
        ball(0, -1.0).resolve(ident)


def test_open_sets_refuse_point_ids_outside_the_sample():
    # -1 named point N - 1, so a point set {-1} hit like point 5 of grid 6,
    # and N failed with a bare IndexError; 2.5 was truncated to point 2
    rot = spaces.load_example("irrational-rotation", grid=6)
    for bad in (-1, 6, 2.5):
        refused = rf"={bad} is not an integer in \[0, 6\)"
        for s in (ball(bad, 0.1), OpenSet("points", points=(0, bad))):
            with pytest.raises(spaces.InvalidParameterError, match=refused):
                s.resolve(rot)
        with pytest.raises(spaces.InvalidParameterError):
            hitting_set(rot, OpenSet("points", points=(bad,)), ball(0, 0.1), 4)
        with pytest.raises(spaces.InvalidParameterError):
            hitting_set(rot, ball(0, 0.1), ball(bad, 0.1), 4)
    assert ball(5, 0.1).resolve(rot).tolist() == [5]
    assert OpenSet("points", points=(5, 0)).resolve(rot).tolist() == [0, 5]
    assert hitting_set(rot, OpenSet("points", points=(5,)), ball(0, 0.1), 6) == \
        loop_hitting_set(rot, OpenSet("points", points=(5,)), ball(0, 0.1), 6)


# -- transitivity ------------------------------------------------------------------


def test_classify_two_shift_mixing():
    out = classify_transitivity(symbolic.full_shift(2), 50, cylinder_length=3)
    assert out["verdicts"]["mixing"].verdict == "holds"
    assert out["verdicts"]["weakly_mixing"].verdict == "holds"
    assert out["verdicts"]["transitive"].verdict == "holds"
    assert out["chain_ok"]


def test_classify_golden_mean_mixing():
    out = classify_transitivity(symbolic.golden_mean_shift(), 50, cylinder_length=3)
    assert out["verdicts"]["mixing"].verdict == "holds"


def test_classify_identity_not_transitive():
    ident = spaces.load_example("identity", n=5)
    out = classify_transitivity(ident, 20)
    assert out["verdicts"]["transitive"].verdict == "fails"
    assert out["verdicts"]["mixing"].verdict == "fails"
    assert out["chain_ok"]


def test_classify_rotation_transitive_not_mixing():
    rot = spaces.load_example("irrational-rotation", grid=24)
    out = classify_transitivity(rot, 96)
    assert out["verdicts"]["transitive"].verdict == "holds"
    assert out["verdicts"]["mixing"].verdict == "fails"
    assert out["chain_ok"]


def _reference_has_run(ns, run):
    if not ns:
        return False
    streak, prev = 1, None
    for n in ns:
        streak = streak + 1 if prev is not None and n == prev + 1 else 1
        if streak >= run:
            return True
        prev = n
    return False


def reference_classify_transitivity(target, horizon, cover=None, cylinder_length=3,
                                    thick_run=10, granularity=None):
    """The loop-based classifier: one ``loop_hitting_set`` per pair and a
    Python scan per verdict.  Returns its output and the first disjoint mask
    pair."""
    if isinstance(target, symbolic.Subshift):
        words = [w for L in range(1, cylinder_length + 1) for w in sorted(target.words(L))]
        sets = [properties.cylinder(w) for w in words]
    else:
        sets = cover if cover is not None else properties.default_cover(target, granularity)
    labels = [s.label() for s in sets]
    hits = {}
    for i, u in enumerate(sets):
        for j, v in enumerate(sets):
            hits[(i, j)] = loop_hitting_set(target, u, v, horizon)
    run = min(thick_run, max(2, horizon // 4))
    empty = [(labels[i], labels[j]) for (i, j), ns in hits.items() if not ns]
    transitive = not empty
    thick_fail = [(labels[i], labels[j]) for (i, j), ns in hits.items()
                  if not _reference_has_run(ns, run)]
    masks = {k: np.zeros(horizon + 1, dtype=bool) for k in hits}
    for k, ns in hits.items():
        masks[k][ns] = True
    pair_fail = []
    keys = list(hits)
    for a in keys:
        for b in keys:
            if not (masks[a] & masks[b]).any():
                pair_fail.append((a, b))
                break
        if pair_fail:
            break
    weakly = transitive and not thick_fail and not pair_fail
    tails = {}
    for k, ns in hits.items():
        n0 = None
        have = set(ns)
        for start in range(1, horizon + 1):
            if all(m in have for m in range(start, horizon + 1)):
                n0 = start
                break
        tails[k] = n0
    mixing = transitive and all(n0 is not None for n0 in tails.values())
    verdicts = {
        "transitive": properties.PropertyVerdict(
            "transitive", "holds" if transitive else "fails", horizon,
            {"sets": labels}, witnesses=[] if empty else [min(ns) for ns in hits.values()][:4],
            counterexamples=empty[:4]),
        "weakly_mixing": properties.PropertyVerdict(
            "weakly_mixing", "holds" if weakly else "fails", horizon,
            {"thick_run": run}, counterexamples=(thick_fail + pair_fail)[:4]),
        "mixing": properties.PropertyVerdict(
            "mixing", "holds" if mixing else "fails", horizon,
            {}, witnesses=[max(n for n in tails.values() if n is not None)] if mixing else []),
    }
    chain_ok = (not mixing or weakly) and (not weakly or transitive)
    return {"verdicts": verdicts, "chain_ok": chain_ok, "tails": tails}, pair_fail


REFERENCE_CASES = [
    ("identity", lambda: spaces.load_example("identity", n=5), 20, {}),
    ("rotation", lambda: spaces.load_example("irrational-rotation", grid=24), 96, {}),
    ("rotation-thin-runs", lambda: spaces.load_example("irrational-rotation", grid=12), 30,
     {"thick_run": 1}),
    # one-step rotation: every hitting set is periodic runs of five hits
    ("rotation-runs-of-five", lambda: spaces.load_example(
        "irrational-rotation", alpha="1/12", grid=12), 40, {"thick_run": 6}),
    ("reducible-sft", lambda: symbolic.build_subshift(
        {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["10"]}), 20,
     {"cylinder_length": 3}),
    ("two-shift", lambda: symbolic.full_shift(2), 50, {"cylinder_length": 3}),
]


@pytest.mark.parametrize("build,horizon,kwargs", [c[1:] for c in REFERENCE_CASES],
                         ids=[c[0] for c in REFERENCE_CASES])
def test_classify_transitivity_matches_loop_reference(build, horizon, kwargs):
    target = build()
    got = classify_transitivity(target, horizon, **kwargs)
    want, want_pair = reference_classify_transitivity(target, horizon, **kwargs)
    def dump(out):
        # json.dumps rejects numpy scalars, so this also pins plain Python types
        return json.dumps({k: v.to_json() for k, v in out["verdicts"].items()})

    assert dump(got) == dump(want)
    assert got["chain_ok"] == want["chain_ok"]
    assert got["tails"] == want["tails"]
    assert all(t is None or type(t) is int for t in got["tails"].values())
    k = len(got["verdicts"]["transitive"].params["sets"])
    sets = properties.transitivity_cover(target, kwargs.get("cylinder_length", 3))
    masks = hitting_tensor(target, sets, horizon).reshape(horizon + 1, k * k).T
    pair = properties._first_disjoint_pair(masks)
    keys = list(got["tails"])
    assert ([] if pair is None else [(keys[pair[0]], keys[pair[1]])]) == want_pair


@pytest.mark.parametrize("model,shift", [
    ({"name": "irrational-rotation", "params": {"grid": 12}}, None),
    ({"name": "double-circle-rotation", "params": {"grid": 6}}, None),
    (None, {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]}),
])
def test_hitting_matrix_rows_match_hitting_set(model, shift):
    horizon = 12
    config = {"pipeline": [{"op": "hitting_matrix", "params": {"horizon": horizon}}]}
    if model is not None:
        config["model"] = model
        target = spaces.load_example(model["name"], **model["params"])
    else:
        config["pipeline"].insert(0, {"op": "build_subshift", "params": {"spec": shift}})
        target = symbolic.build_subshift(shift)
    report, _ = cli.run_experiment(config)
    rows = report["steps"][-1]["result"]["pairs"]
    sets = properties.transitivity_cover(target, 2)
    expected = []
    for u in sets:
        for v in sets:
            ns = set(loop_hitting_set(target, u, v, horizon))
            expected.append({"u": u.label(), "v": v.label(),
                             "membership": [int(n in ns) for n in range(1, horizon + 1)]})
    assert rows == expected


def assert_tensor_matches_hitting_set(target, sets, horizon):
    hits = hitting_tensor(target, sets, horizon)
    assert hits.shape == (horizon + 1, len(sets), len(sets))
    assert not hits[0].any()
    for i, u in enumerate(sets):
        for j, v in enumerate(sets):
            ns = loop_hitting_set(target, u, v, horizon)
            assert np.nonzero(hits[:, i, j])[0].tolist() == ns
            assert hitting_set(target, u, v, horizon) == ns


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hitting_tensor_matches_hitting_set_on_finite_models(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    coords = rng.random(n)
    model = spaces.FiniteModel(
        "m", {}, coords, lambda a, b: np.abs(coords[np.asarray(a)] - coords[np.asarray(b)]),
        rng.integers(0, n, n), None, "interval")
    sets = []
    for _ in range(int(rng.integers(1, 6))):
        if rng.random() < 0.5:
            sets.append(ball(int(rng.integers(0, n)), float(rng.uniform(0.01, 0.6))))
        else:
            pts = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            sets.append(OpenSet("points", points=tuple(int(p) for p in pts)))
    assert_tensor_matches_hitting_set(model, sets, int(rng.integers(0, 12)))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                          st.sampled_from([0.02, 0.05, 0.1, 0.3])), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=10))
def test_hitting_tensor_matches_hitting_set_on_sampled_model(balls, horizon):
    model = spaces.load_example("square-map", grid=41)
    assert_tensor_matches_hitting_set(model, [ball(c, r) for c, r in balls], horizon)


@given(st.integers(min_value=0, max_value=2**16),
       st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                          st.sampled_from([0.1, 0.3, 0.6, 1.0])), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=10))
def test_hitting_tensor_matches_hitting_set_on_window_model(seed, balls, horizon):
    model = spaces.sample_window_model(count=12, radius=4, seed=seed)
    assert_tensor_matches_hitting_set(model, [ball(c, r) for c, r in balls], horizon)


def test_hitting_tensor_rejects_point_sets_without_point_ids():
    model = spaces.load_example("square-map", grid=11)
    sets = [ball(0, 0.1), OpenSet("points", points=(1, 2))]
    with pytest.raises(spaces.InvalidParameterError):
        hitting_set(model, sets[0], sets[1], 3)
    with pytest.raises(spaces.InvalidParameterError):
        hitting_tensor(model, sets, 3)
    with pytest.raises(spaces.InvalidParameterError):
        loop_hitting_set(model, sets[0], sets[1], 3)


@pytest.mark.parametrize("model", [
    spaces.load_example("irrational-rotation", grid=48),
    build_hyper_model(spaces.load_example("irrational-rotation", grid=8), 2)],
    ids=["rotation-48", "rotation-8-hyper-2"])
def test_finite_hitting_tensor_resolves_each_set_once(model, monkeypatch):
    # a finite carrier's V_n is the transpose of U gathered at f^n: no
    # image_point_dist, and each ball resolved once, not once for U by
    # OpenSet.resolve and again for V by image_point_dist from the identity
    horizon = 6
    cover = properties.default_cover(model)
    expected = [[loop_hitting_set(model, u, v, horizon) for v in cover] for u in cover]
    strong = strong_transitivity_check(model, horizon)
    monkeypatch.setattr(spaces.FiniteModel, "image_point_dist",
                        lambda *a: pytest.fail("image_point_dist on a finite carrier"))
    resolved, helper = [], []
    real_resolve, real_helper = OpenSet.resolve, properties._cover_membership
    monkeypatch.setattr(OpenSet, "resolve", lambda s, m: resolved.append(s) or real_resolve(s, m))
    monkeypatch.setattr(properties, "_cover_membership",
                        lambda m, sets: helper.append(len(sets)) or real_helper(m, sets))
    hits = hitting_tensor(model, cover, horizon)
    assert [[(np.flatnonzero(hits[1:, i, j]) + 1).tolist() for j in range(len(cover))]
            for i in range(len(cover))] == expected
    assert len(resolved) == len(cover) and helper == [len(cover)]
    assert properties.default_cover(model) == cover and helper == [len(cover)] * 2
    assert strong_transitivity_check(model, horizon) == strong
    assert helper == [len(cover)] * 4      # its default cover, then its membership


def test_hitting_scans_refuse_a_negative_horizon_before_allocating(monkeypatch):
    # unchecked, hitting_set at -5 returned [], hitting_tensor at -2 failed
    # with numpy's "negative dimensions are not allowed", and strong
    # transitivity at -1 answered verdict fails, counterexamples [0, 1, 2, 3]
    # and minimal false for a minimal rotation
    rot = spaces.load_example("irrational-rotation", grid=12)
    cover = properties.default_cover(rot)
    golden = symbolic.golden_mean_shift()
    monkeypatch.setattr(properties, "_cover_membership", lambda *a: pytest.fail("allocated"))
    monkeypatch.setattr(envelope, "check_cells", lambda *a: pytest.fail("budgeted"))
    for call in (lambda: hitting_set(rot, ball(0, 0.1), ball(1, 0.1), -5),
                 lambda: hitting_set(golden, "0", "1", -5),
                 lambda: hitting_tensor(rot, cover, -2),
                 lambda: strong_transitivity_check(rot, -1)):
        with pytest.raises(spaces.InvalidParameterError, match="horizon=-. is negative"):
            call()


# -- strong transitivity --------------------------------------------------------------


def set_bfs_strong_transitivity(model, horizon):
    # oracle: a set BFS over preimage lists from each point, and each point's
    # forward orbit for minimality
    set_idx = [frozenset(int(i) for i in s.resolve(model))
               for s in properties.default_cover(model)]
    n = model.n_points
    pre = [[] for _ in range(n)]
    for x in range(n):
        pre[int(model.map_table[x])].append(x)
    failures = []
    for x in range(n):
        seen = {x}
        frontier = {x}
        for _ in range(horizon):
            frontier = {p for y in frontier for p in pre[y]} - seen
            if not frontier:
                break
            seen |= frontier
        if any(not (seen & s) for s in set_idx):
            failures.append(x)
    minimal = None
    if model.invertible:
        fails_fwd = []
        for x in range(n):
            orbit, cur = {x}, x
            for _ in range(min(horizon, n)):
                cur = int(model.map_table[cur])
                orbit.add(cur)
            if any(not (orbit & s) for s in set_idx):
                fails_fwd.append(x)
        minimal = not fails_fwd
    return ("fails" if failures else "holds", failures[:4], minimal,
            None if minimal is None else (not failures) == minimal)


def strong_transitivity_summary(model, horizon):
    out = strong_transitivity_check(model, horizon)
    verdict = out["strongly_transitive"]
    return verdict.verdict, verdict.counterexamples, out["minimal"], out["agrees_with_minimality"]


@given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
    st.one_of(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
              st.permutations(list(range(n)))),
    st.integers(min_value=0, max_value=2 * n + 1))))
def test_strong_transitivity_matches_the_set_bfs_on_random_maps(case):
    table, horizon = case
    inverse = np.argsort(table) if sorted(table) == list(range(len(table))) else None
    model = finite(table, inverse)
    assert strong_transitivity_summary(model, horizon) == \
        set_bfs_strong_transitivity(model, horizon)


def test_strong_transitivity_cycle_and_square():
    cyc = finite([1, 2, 0], [2, 0, 1])
    out = strong_transitivity_check(cyc, 10)
    assert out["strongly_transitive"].verdict == "holds"
    assert out["minimal"] and out["agrees_with_minimality"]

    sq = spaces.snap_to_finite(spaces.load_example("square-map", grid=51))
    out2 = strong_transitivity_check(sq, 60)
    assert out2["strongly_transitive"].verdict == "fails"
    assert strong_transitivity_summary(sq, 60) == set_bfs_strong_transitivity(sq, 60)


def test_one_point_model_is_covered_by_its_resolution_ball():
    # diameter 0 made the default granularity 0, and the ball d < 0 empty
    one = spaces.load_example("identity", n=1)
    assert classify_transitivity(one, 5)["verdicts"]["transitive"].verdict == "holds"
    assert strong_transitivity_check(one, 5)["strongly_transitive"].verdict == "holds"


def test_strong_transitivity_equals_minimality_on_invertible():
    rng = np.random.default_rng(9)
    rot = spaces.load_example("irrational-rotation", grid=18)
    out = strong_transitivity_check(rot, 40)
    assert out["strongly_transitive"].verdict == "holds" and out["minimal"]
    for _ in range(10):
        n = int(rng.integers(3, 9))
        perm = rng.permutation(n)
        model = finite(perm, np.argsort(perm))
        rep = strong_transitivity_check(model, 2 * n)
        assert rep["agrees_with_minimality"]


# -- equicontinuity --------------------------------------------------------------------


def test_rotation_equicontinuous_everywhere():
    rot = spaces.load_example("irrational-rotation", grid=36)
    out = equicontinuity_scan(rot, [0.25, 0.5], 100)
    assert len(out["per_epsilon"][0.25]["equicontinuity_points"]) == 36
    assert out["ae"] and not out["sensitive"]


def test_two_shift_window_sensitive():
    win = spaces.sample_window_model(count=120, radius=48, seed=3)
    out = equicontinuity_scan(win, [0.25, 0.49], 96)
    assert out["per_epsilon"][0.25]["equicontinuity_points"] == []
    assert out["sensitive"] and not out["ae"]


def test_square_map_ae_with_interior_points():
    sq = spaces.load_example("square-map", grid=21)
    out = equicontinuity_scan(sq, [0.5], 40)
    pts = out["per_epsilon"][0.5]["equicontinuity_points"]
    assert 20 not in pts          # x = 1 is not an equicontinuity point
    assert set(range(15)) <= set(pts)
    assert out["ae"]


def test_hyper_crosscheck_square_and_rotation():
    sq = spaces.load_example("square-map", grid=21)
    out = hyper_equicontinuity_crosscheck(sq, 2, [0.5], 40)
    assert out["base_ae"] and out["hyper_ae"] and out["agree"]
    rot = spaces.load_example("irrational-rotation", grid=36)
    out2 = hyper_equicontinuity_crosscheck(rot, 2, [0.5], 80)
    assert out2["base_ae"] and out2["hyper_ae"] and out2["agree"]


def test_radial_slice_not_equicontinuous_in_orbit_closure():
    # base stack is locally benign but the full radial slice fails inside its
    # own induced orbit closure
    stack = spaces.load_example("dyadic-circle-stack", levels=5, mult=16)
    base = equicontinuity_scan(stack, [0.5], 64)
    assert base["ae"]
    g = 2 ** 5 * 16
    members = [0] + [1 + j * g for j in range(6)]  # center plus one point per circle
    rep = orbit_closure_equicontinuity(stack, members, 0.5, 64)
    assert not rep["equicontinuous"]
    assert rep["orbit_size"] == 32


def test_orbit_closure_refuses_an_empty_set_ids_outside_and_a_negative_horizon():
    # unchecked, [-1] started from the last point and the empty set was
    # answered with equicontinuous: true
    stack = spaces.load_example("periodic-stack", n=3, truncate=12)
    n = stack.n_points
    for bad in (-1, n, 2.5):
        with pytest.raises(spaces.InvalidParameterError, match=rf"point={bad} is not an integer"):
            orbit_closure_equicontinuity(stack, [0, bad], 0.5, 8)
    with pytest.raises(spaces.InvalidParameterError, match="nonempty"):
        orbit_closure_equicontinuity(stack, [], 0.5, 8)
    with pytest.raises(spaces.InvalidParameterError, match="horizon=-1 is negative"):
        orbit_closure_equicontinuity(stack, [0], 0.5, -1)
    assert orbit_closure_equicontinuity(stack, [n - 1, 0], 0.5, 8) == \
        orbit_closure_equicontinuity(stack, np.array([0, n - 1, 0]), 0.5, 8)


def dense_distance_matrix(model):
    # reference: one point_dist call per row, as the matrix was filled before
    # carriers answered whole rows
    n = model.n_points
    return np.stack([model.point_dist(np.full(n, i), np.arange(n)) for i in range(n)])


# -- the dense oracle: the scan as it read one N x N distance matrix -------------------


def dense_neighbor_pairs(model, dist):
    """(point, mate) index arrays, row-major: each point's nearest other
    points (ties included), none when that distance is not finite; a lone
    point is its own neighbor."""
    n = model.n_points
    if n == 1:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    xs, ys = [], []
    for rows in spaces.row_blocks(n, n):
        block = dist[rows]
        block[np.arange(len(rows)), rows] = np.inf
        nn = block.min(axis=1)
        r, mates = np.nonzero(block <= (nn * (1 + 1e-12))[:, None])
        keep = np.isfinite(nn)[r]
        xs.append(rows[r[keep]])
        ys.append(mates[keep])
    return (np.concatenate(xs).astype(np.int64, copy=False),
            np.concatenate(ys).astype(np.int64, copy=False))


def dense_pair_sup_divergence(model, xs, ys, horizon, dist):
    # a finite carrier's image pairs read from the distance matrix
    sup = np.zeros(len(xs))
    for n in range(properties._last_time(model, horizon) + 1):
        imgs = model.iterate_images(n)
        a = model.apply_to_indices(imgs, xs)
        b = model.apply_to_indices(imgs, ys)
        d = dist[a, b] if isinstance(model, spaces.FiniteModel) else model.image_pair_dist(a, b)
        sup = np.maximum(sup, d)
    return sup


def dense_equicontinuity_scan(model, eps_list, horizon, dist=None):
    eps_list = sorted(eps_list)
    g = model.granularity
    dist = properties.full_distance_matrix(model) if dist is None else dist
    xs, ys = dense_neighbor_pairs(model, dist)
    rows, first = np.unique(xs, return_index=True)
    isolated = np.zeros(model.n_points, dtype=bool)
    isolated[rows] = dist[rows, ys[first]] > g
    keep = ~isolated[xs]
    xs, ys = xs[keep], ys[keep]
    sup = dense_pair_sup_divergence(model, xs, ys, horizon, dist)
    worst = np.zeros(model.n_points)
    np.maximum.at(worst, xs, sup)
    result = {}
    for eps in eps_list:
        passing = worst < eps
        eq_points = np.flatnonzero(passing).tolist()
        dense = bool(eq_points) and bool(
            (np.min(dist, axis=1, where=passing, initial=np.inf) <= g).all())
        result[eps] = {"equicontinuity_points": eq_points, "ae": dense}
    sensitive = not result[eps_list[0]]["equicontinuity_points"]
    return {
        "per_epsilon": result,
        "ae": all(result[e]["ae"] for e in eps_list),
        "sensitive": sensitive,
        "sensitivity_constant": float(worst.min()) if sensitive else None,
        "horizon": horizon,
        "granularity": g,
    }


def dense_recurrence_report(model, horizon, tau):
    # the tau-balls of one distance matrix, their pairs in blocks of at most N
    r = properties._point_return_matrix(model, horizon, tau)
    n_pts = model.n_points
    ball = properties.full_distance_matrix(model) <= tau
    counts = ball.sum(axis=1)
    ends = np.cumsum(counts)
    ident = model.iterate_images(0)
    hit = np.zeros((horizon + 1, n_pts), dtype=bool)
    lo = 0
    while lo < n_pts:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + n_pts, "right")))
        xs, ys = np.nonzero(ball[lo:hi])
        xs += lo
        at_x = model.apply_to_indices(ident, xs)
        for n in range(1, horizon + 1):
            sub = model.apply_to_indices(model.iterate_images(n), ys)
            hit[n, xs[model.image_pair_dist(sub, at_x) <= tau]] = True
        lo = hi
    nonwandering = hit[1:].any(axis=0)
    returns = r[1:].sum(axis=0)
    times = np.arange(horizon + 1)[:, None]
    latest = np.maximum.accumulate(np.where(r, times, 0), axis=0)
    gaps = np.where(r[1:], times[1:] - latest[:-1], 0).max(axis=0, initial=0)
    points = [{
        "point": x,
        "recurrent": bool(returns[x] >= 2),
        "nonwandering": bool(nonwandering[x]),
        "essentially_nonwandering": bool(hit[horizon, x]),
        "almost_periodic_gap": int(gaps[x]) if returns[x] >= 2 else None,
    } for x in range(n_pts)]
    return {"horizon": horizon, "tau": tau, "points": points}


def matrix_model(dist):
    # a finite model whose distances are the entries of a given matrix
    d = np.asarray(dist, dtype=float)
    return spaces.FiniteModel("m", {}, None, lambda a, b: d[np.asarray(a), np.asarray(b)],
                              list(range(len(d))), None, "matrix")


def assert_scan_matches_dense(model, radius):
    # the streamed pairs, first mates, packed ball and counts against the matrix
    dist = properties.full_distance_matrix(model)
    xs, ys, first, ball, counts = properties._distance_scan(model, radius)
    assert_same_pairs((xs, ys), dense_neighbor_pairs(model, dist))
    rows, lead = np.unique(xs, return_index=True)
    want = np.full(model.n_points, np.inf)
    want[rows] = dist[rows, ys[lead]]
    assert first.tobytes() == want.tobytes()
    assert np.array_equal(ball, np.packbits(dist <= radius, axis=1))
    assert np.array_equal(counts, (dist <= radius).sum(axis=1))


HYPER_CATALOG = [
    ("square-map", {"grid": 21}, 2, 40),
    ("square-map", {"grid": 9}, 3, 20),
    ("irrational-rotation", {"grid": 36}, 2, 80),
    ("double-circle-rotation", {"grid": 12}, 2, 40),
    ("dyadic-circle-stack", {"levels": 3, "mult": 2}, 2, 64),
    ("periodic-stack", {"n": 2, "truncate": 6}, 2, 30),
    ("annulus-skew", {"radial": 1, "grid": 8}, 2, 30),
]


@pytest.mark.parametrize("name,params,k,horizon", HYPER_CATALOG,
                         ids=[f"{c[0]}-k{c[2]}" for c in HYPER_CATALOG])
def test_hyper_equicontinuity_scan_matches_dense_reference(name, params, k, horizon):
    hyper = build_hyper_model(spaces.load_example(name, **params), k)
    dense = dense_distance_matrix(hyper)
    assert np.array_equal(properties.full_distance_matrix(hyper), dense)
    eps = [hyper.diameter / 8, hyper.diameter / 4]
    assert equicontinuity_scan(hyper, eps, horizon) == \
        dense_equicontinuity_scan(hyper, eps, horizon, dense)


@pytest.mark.parametrize("name,params", [
    ("annulus-skew", {}),                # 31,878 hyperpoints: 8.1 GB
    ("square-map", {"grid": 301}),       # 45,451 hyperpoints: 16.5 GB
])
def test_hyper_distance_matrix_over_budget_is_refused_at_once(name, params):
    base = spaces.load_example(name, **params)
    start = time.perf_counter()
    with pytest.raises(envelope.EnvelopeBudgetError, match="distance matrix"):
        hyper_equicontinuity_crosscheck(base, 2, [0.5], 40)
    assert time.perf_counter() - start < 1.0


def reference_neighbor_pairs(model, dist):
    # the scan before row blocks: a shifted N x N copy of the matrix and one
    # np.nonzero per row
    n = model.n_points
    out = []
    big = dist + np.eye(n) * (dist.max() + 1.0)
    nn = big.min(axis=1)
    for i in range(n):
        if not math.isfinite(nn[i]):
            out.append((i, []))
            continue
        mates = np.nonzero(big[i] <= nn[i] * (1 + 1e-12))[0]
        out.append((i, [int(m) for m in mates]))
    return out


def as_pair_arrays(per_row):
    # (point, mate) arrays, row-major, from per-row mate lists
    return (np.asarray([i for i, mates in per_row for _ in mates], dtype=np.int64),
            np.asarray([m for _, mates in per_row for m in mates], dtype=np.int64))


def assert_same_pairs(got, want):
    assert all(a.dtype == np.int64 for a in got)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


NEIGHBOR_CARRIERS = {
    "rotation": lambda: spaces.load_example("irrational-rotation", grid=36),
    "window": lambda: spaces.sample_window_model(count=60, radius=4, seed=5),
    "hyper-rotation": lambda: build_hyper_model(
        spaces.load_example("irrational-rotation", grid=16), 2),
    "hyper-square": lambda: build_hyper_model(spaces.load_example("square-map", grid=9), 2),
    # over BLOCK_CELLS cells: rows come in blocks
    "hyper-rotation-blocks": lambda: build_hyper_model(
        spaces.load_example("irrational-rotation", grid=48), 2),
}


@pytest.mark.parametrize("name", sorted(NEIGHBOR_CARRIERS))
def test_neighbor_pairs_match_per_row_scan(name):
    model = NEIGHBOR_CARRIERS[name]()
    dist = properties.full_distance_matrix(model)
    assert_same_pairs(properties._distance_scan(model, model.granularity)[:2],
                      as_pair_arrays(reference_neighbor_pairs(model, dist)))
    assert_scan_matches_dense(model, model.granularity)


@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
    st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))))
def test_neighbor_pairs_match_per_row_scan_on_random_finite_models(model_data):
    # coordinates on a coarse grid, so points coincide and distances tie
    table, coords = model_data
    c = np.asarray(coords, dtype=float) / 4
    model = spaces.FiniteModel("m", {}, c, lambda a, b: np.abs(c[np.asarray(a)] - c[np.asarray(b)]),
                               table, None, "interval")
    dist = properties.full_distance_matrix(model)
    assert_same_pairs(properties._distance_scan(model, 0.25)[:2],
                      as_pair_arrays(reference_neighbor_pairs(model, dist)))
    assert_scan_matches_dense(model, 0.25)


@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
    st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))),
    st.integers(min_value=0, max_value=30))
def test_equicontinuity_scan_matches_the_dense_oracle_on_random_finite_models(model_data, horizon):
    # tied coordinates, lone points (n = 1) and maps with tails
    table, coords = model_data
    c = np.asarray(coords, dtype=float) / 4
    model = spaces.FiniteModel("m", {}, c, lambda a, b: np.abs(c[np.asarray(a)] - c[np.asarray(b)]),
                               table, None, "interval")
    eps = [0.1, 0.3, 0.6]
    assert equicontinuity_scan(model, eps, horizon) == dense_equicontinuity_scan(model, eps, horizon)


NON_FINITE = [[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]]


def test_neighbor_pairs_leave_non_finite_rows_empty():
    model = matrix_model(NON_FINITE)
    assert_same_pairs(properties._distance_scan(model, 1.0)[:2],
                      as_pair_arrays([(0, [1]), (1, [0]), (2, [])]))
    assert_scan_matches_dense(model, 1.0)
    assert equicontinuity_scan(model, [0.5], 5) == dense_equicontinuity_scan(model, [0.5], 5)


def test_equicontinuity_skip_reads_the_first_mate_not_the_nearest_distance():
    # resolution 1/16, granularity 1/4: point 0 has the tied mates 1 (at
    # 1/4 + 1e-13, first in column order) and 2 (at 1/4), so it is isolated
    # at cover scale although its nearest distance is the granularity
    c = np.array([0.5, 0.25 - 1e-13, 0.75, 1.0, 1.0625])
    model = spaces.FiniteModel("m", {}, c, lambda a, b: np.abs(c[np.asarray(a)] - c[np.asarray(b)]),
                               [0, 1, 3, 3, 4], None, "interval")
    assert model.granularity == 0.25
    xs, ys, first, _, _ = properties._distance_scan(model, model.granularity)
    assert_same_pairs((xs, ys), (np.array([0, 0, 1, 2, 2, 3, 4]), np.array([1, 2, 0, 0, 3, 4, 3])))
    assert first[0] > model.granularity
    assert_scan_matches_dense(model, model.granularity)
    got = equicontinuity_scan(model, [0.3], 4)
    assert got["per_epsilon"][0.3]["equicontinuity_points"] == [0, 1, 3, 4]
    assert got == dense_equicontinuity_scan(model, [0.3], 4)


def test_equicontinuity_scan_holds_about_one_distance_matrix():
    # 1176 hyperpoints: the matrix is 10.6 MB; a shifted copy beside it in the
    # neighbour scan and a column copy in the density test took the peak to 23 MB
    hyper = build_hyper_model(spaces.load_example("irrational-rotation", grid=48), 2)
    tracemalloc.start()
    try:
        rep = equicontinuity_scan(hyper, [0.5], 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ae"]
    assert peak < 16 * 2 ** 20


def test_streamed_scans_hold_no_distance_matrix():
    # 1176 hyperpoints: one N x N float64 matrix is 10.6 MB, the packed ball
    # 173 KB; the hyperspace's base tables hold 48 x (48 + 1176) floats
    hyper = build_hyper_model(spaces.load_example("irrational-rotation", grid=48), 2)
    for scan, args in ((equicontinuity_scan, ([0.5], 80)), (recurrence_report, (40, 0.05))):
        tracemalloc.start()
        try:
            scan(hyper, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, scan.__name__


def loop_pair_sup_divergence(model, xs, ys, horizon):
    # oracle: every iterate's pairs through image_pair_dist, with no fold
    sup = np.zeros(len(xs))
    for n in range(horizon + 1):
        imgs = model.iterate_images(n)
        sup = np.maximum(sup, model.image_pair_dist(model.apply_to_indices(imgs, xs),
                                                    model.apply_to_indices(imgs, ys)))
    return sup


# every catalog model with an exact map table, hyperspaces of some, and a
# sampled model, which keeps the image_pair_dist path
DIVERGENCE_CASES = {
    "identity": lambda: spaces.load_example("identity", n=5),
    "rotation-48": lambda: spaces.load_example("irrational-rotation", grid=48),
    "double-circle": lambda: spaces.load_example("double-circle-rotation", grid=8),
    "dyadic-stack": lambda: spaces.load_example("dyadic-circle-stack", levels=3, mult=2),
    "dyadic-inward": lambda: spaces.load_example("dyadic-circle-stack-inward", levels=3, mult=2),
    "triadic-stack": lambda: spaces.load_example("triadic-circle-stack", levels=2, mult=1),
    "periodic-stack": lambda: spaces.load_example("periodic-stack", n=2, truncate=6),
    "periodic-union": lambda: spaces.load_example("periodic-union", n=3, truncate=4),
    "isolated-ones": lambda: spaces.load_example("isolated-ones-subshift", truncate=6),
    "hyper-rotation-24": lambda: build_hyper_model(
        spaces.load_example("irrational-rotation", grid=24), 2),
    "hyper-periodic-union": lambda: build_hyper_model(
        spaces.load_example("periodic-union", n=3, truncate=1), 2),
    "hyper-isolated-ones": lambda: build_hyper_model(
        spaces.load_example("isolated-ones-subshift", truncate=4), 3),
    "square-map": lambda: spaces.load_example("square-map", grid=101),
}


@pytest.mark.parametrize("name", sorted(DIVERGENCE_CASES))
def test_divergence_from_the_distance_matrix_is_bitwise_the_pair_path(name):
    # the pair path of every carrier against the matrix reads of the dense scan
    model = DIVERGENCE_CASES[name]()
    dist = properties.full_distance_matrix(model)
    n = model.n_points
    rng = np.random.default_rng(n)
    xs, ys = dense_neighbor_pairs(model, dist)
    xs = np.concatenate([xs, rng.integers(0, n, 200)])
    ys = np.concatenate([ys, rng.integers(0, n, 200)])
    got = properties._pair_sup_divergence(model, xs, ys, 40)
    assert got.tobytes() == dense_pair_sup_divergence(model, xs, ys, 40, dist).tobytes()
    assert got.tobytes() == loop_pair_sup_divergence(model, xs, ys, 40).tobytes()


@given(st.integers(min_value=1, max_value=30).flatmap(lambda n: st.one_of(
    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
    st.permutations(list(range(n))))))
def test_divergence_from_the_distance_matrix_on_random_maps(table):
    model = finite(table)
    dist = properties.full_distance_matrix(model)
    n = model.n_points
    xs, ys = np.divmod(np.arange(n * n, dtype=np.int64), n)
    got = properties._pair_sup_divergence(model, xs, ys, 2 * n)
    assert got.tobytes() == dense_pair_sup_divergence(model, xs, ys, 2 * n, dist).tobytes()
    assert got.tobytes() == loop_pair_sup_divergence(model, xs, ys, 2 * n).tobytes()


# -- rigidity ---------------------------------------------------------------------------


def test_rigidity_rotation_uniform():
    rot = spaces.load_example("irrational-rotation", grid=34)
    out = rigidity_battery(rot, 512, 0.02)
    assert out["uniformly_rigid"].verdict == "holds"
    assert out["full_return_times"][0] == 34
    assert out["chain_ok"]


def test_rigidity_dyadic_inward_rigid_not_uniform():
    m = spaces.load_example("dyadic-circle-stack-inward")  # levels 8
    out = rigidity_battery(m, 512, 0.02)
    assert out["rigid"].verdict == "holds"
    witness = out["rigid"].witnesses[0]
    assert witness & (witness - 1) == 0  # a power of two
    out5 = rigidity_battery(m, 512, 0.5)
    assert out5["uniformly_rigid"].verdict == "fails"
    assert out5["chain_ok"] and out["chain_ok"]


def test_rigidity_two_shift_not_weakly():
    win = spaces.sample_window_model(count=200, radius=160, seed=1)
    out = rigidity_battery(win, 150, 0.4)
    assert out["weakly_rigid"].verdict == "fails"
    assert out["rigid"].verdict == "fails"


def test_rigidity_witness_monotone_in_horizon():
    rot = spaces.load_example("irrational-rotation", grid=34)
    small = rigidity_battery(rot, 140, 0.02)
    large = rigidity_battery(rot, 512, 0.02)
    assert small["rigid"].verdict == "holds"
    assert large["rigid"].witnesses[0] == small["rigid"].witnesses[0]


def test_weak_rigidity_matches_identity_isolation_on_catalog():
    cases = {
        "square-map": {"grid": 201},
        "neg-cube": {"grid": 201},
        "identity": {},
        "irrational-rotation": {"grid": 34},
        "double-circle-rotation": {"grid": 24},
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
        bat = rigidity_battery(model, horizon, tau)
        rng = "two-sided" if model.invertible else "forward"
        env = envelope.approx_envelope(model, horizon, tau, rng, close_table=False)
        iso = envelope.identity_isolated(env)
        assert (bat["weakly_rigid"].verdict == "holds") == (not iso["isolated"]), name
        assert bat["chain_ok"], name


def test_not_isolated_implies_all_points_recurrent():
    for name, params in (
        ("irrational-rotation", {"grid": 18}),
        ("dyadic-circle-stack", {"levels": 3, "mult": 4}),
        ("identity", {"n": 4}),
    ):
        model = spaces.load_example(name, **params)
        env = envelope.approx_envelope(model, 64, 0.02, "two-sided", close_table=False)
        assert not envelope.identity_isolated(env)["isolated"]
        rep = recurrence_report(model, 64, 0.02)
        assert all(p["recurrent"] for p in rep["points"])


# -- recurrence --------------------------------------------------------------------------


def test_recurrence_identity():
    ident = spaces.load_example("identity", n=4)
    rep = recurrence_report(ident, 10, 0.01)
    for p in rep["points"]:
        assert p["recurrent"] and p["nonwandering"] and p["essentially_nonwandering"]
        assert p["almost_periodic_gap"] == 1


def test_recurrence_square_interior_not_recurrent():
    sq = spaces.load_example("square-map", grid=41)
    rep = recurrence_report(sq, 60, 0.01)
    interior = rep["points"][20]  # x = 0.5
    assert not interior["recurrent"]
    ends = (rep["points"][0], rep["points"][40])
    assert all(p["recurrent"] for p in ends)


def test_recurrence_periodic_stack():
    st = spaces.load_example("periodic-stack", n=3, truncate=8)
    rep = recurrence_report(st, 40, 0.05)
    for entry in rep["points"]:
        k = st.point_data(entry["point"])["k"]
        if k == "inf":
            assert entry["recurrent"] and entry["nonwandering"]
            assert entry["almost_periodic_gap"] == 3
        elif abs(k) <= 4:
            assert not entry["nonwandering"]


def reference_recurrence_report(model, horizon, tau):
    # the per-point loop: one image_point_dist call per point and iterate
    r = properties._point_return_matrix(model, horizon, tau)
    dist = dense_distance_matrix(model)
    points = []
    for x in range(model.n_points):
        returns = [int(n) for n in range(1, horizon + 1) if r[n, x]]
        recurrent = len(returns) >= 2
        ball_idx = np.nonzero(dist[x] <= tau)[0]
        hit_ns = []
        for n in range(1, horizon + 1):
            sub = model.apply_to_indices(model.iterate_images(n), ball_idx)
            if (model.image_point_dist(sub, x) <= tau).any():
                hit_ns.append(n)
        essentially = False
        if hit_ns:
            have = set(hit_ns)
            for start in range(1, horizon + 1):
                if all(m in have for m in range(start, horizon + 1)):
                    essentially = True
                    break
        gaps = None
        if returns:
            seq = [0] + returns
            gaps = max(b - a for a, b in zip(seq, seq[1:]))
        points.append({
            "point": x,
            "recurrent": recurrent,
            "nonwandering": bool(hit_ns),
            "essentially_nonwandering": essentially,
            "almost_periodic_gap": gaps if recurrent else None,
        })
    return {"horizon": horizon, "tau": tau, "points": points}


RECURRENCE_CARRIERS = {
    "finite": lambda: spaces.load_example("periodic-stack", n=3, truncate=6),
    "finite-random": lambda: finite([3, 0, 0, 5, 2, 4, 6, 6]),
    "sampled": lambda: spaces.load_example("square-map", grid=41),
    "neg-cube": lambda: spaces.load_example("neg-cube", grid=31),
    "finite-hyper": lambda: build_hyper_model(
        spaces.load_example("dyadic-circle-stack", levels=2, mult=1), 2),
    "sampled-hyper": lambda: build_hyper_model(spaces.load_example("square-map", grid=9), 2),
    "window": lambda: spaces.sample_window_model(count=24, radius=6, seed=2),
}


@pytest.fixture(scope="module", params=sorted(RECURRENCE_CARRIERS))
def recurrence_model(request):
    return RECURRENCE_CARRIERS[request.param]()


@given(st.integers(min_value=0, max_value=24),
       st.sampled_from([0.0, 0.01, 0.05, 0.13, 0.3, 0.5, 1.0]))
def test_recurrence_report_matches_per_point_loop(recurrence_model, horizon, tau):
    got = recurrence_report(recurrence_model, horizon, tau)
    # json.dumps rejects numpy scalars, so this also pins plain Python types
    assert json.dumps(got) == json.dumps(reference_recurrence_report(recurrence_model, horizon, tau))


STREAMED_RECURRENCE = {
    "square-map-401": (lambda: spaces.load_example("square-map", grid=401), 64, 0.01),
    "window-400": (lambda: spaces.sample_window_model(count=400, radius=400, seed=3), 3, 0.4),
    "rotation-48": (lambda: spaces.load_example("irrational-rotation", grid=48), 40, 0.2),
}


@pytest.mark.parametrize("name", sorted(STREAMED_RECURRENCE))
def test_streamed_recurrence_matches_the_dense_ball(name):
    build, horizon, tau = STREAMED_RECURRENCE[name]
    model = build()
    assert json.dumps(recurrence_report(model, horizon, tau)) == \
        json.dumps(dense_recurrence_report(model, horizon, tau))


def test_recurrence_ball_pairs_are_compared_in_bounded_blocks():
    # at tau 0.4 a window sample of 400 points has about 20k ball pairs, each
    # image 805 symbols wide: all pairs in one call held about 65 MB of
    # temporaries, blocks of at most 400 pairs hold under 3 MB
    model = spaces.sample_window_model(count=400, radius=400, seed=3)
    tracemalloc.start()
    try:
        recurrence_report(model, 3, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# -- WAP proxy and semiflows -------------------------------------------------------------


def test_wap_proxy_rotation_and_isolated_ones():
    rot = spaces.load_example("irrational-rotation", grid=36)
    rep = wap_proxy_check(envelope.exact_envelope(rot))
    assert rep["all_elements_continuous"]

    iso = spaces.load_example("isolated-ones-subshift", truncate=8)
    rep2 = wap_proxy_check(envelope.exact_envelope(iso))
    assert rep2["all_elements_continuous"]


@pytest.mark.parametrize("name,params", [
    ("periodic-union", {"n": 2}),
    ("dyadic-circle-stack", {"levels": 3, "mult": 2}),
    ("isolated-ones-subshift", {"truncate": 6}),
])
def test_wap_proxy_matrix_reads_are_the_pair_path(monkeypatch, name, params):
    # a finite carrier reads its image pairs from the distance matrix; with
    # the finite branch off, the same check goes through image_pair_dist
    env = envelope.exact_envelope(spaces.load_example(name, **params))
    got = wap_proxy_check(env)
    monkeypatch.setattr(properties, "FiniteModel", type("NoFiniteBranch", (), {}))
    assert json.dumps(got) == json.dumps(wap_proxy_check(env))


def test_wap_proxy_square_map_limit_discontinuous():
    sq = spaces.load_example("square-map", grid=101)
    env = envelope.approx_envelope(sq, 40, 1e-2, "two-sided")
    rep = wap_proxy_check(env)
    assert not rep["all_elements_continuous"]
    flagged = {e["element"] for e in rep["elements"]
               if e["adherence"] and not e["continuous"]}
    limit_names = {env.elements[i].name for i in env.limit_elements}
    assert flagged == limit_names


def test_distal_semiflow_check():
    perm = finite([1, 2, 3, 4, 0], [4, 0, 1, 2, 3])
    rep = distal_semiflow_check(envelope.exact_envelope(perm))
    assert rep["distal"] and rep["pointwise_almost_periodic"] and rep["surjective"]

    const = finite([0, 0])
    rep2 = distal_semiflow_check(envelope.exact_envelope(const))
    assert not rep2["distal"]
    assert rep2["consequences_hold"]  # vacuous

    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        perm_t = rng.permutation(n)
        rep3 = distal_semiflow_check(envelope.exact_envelope(finite(perm_t, np.argsort(perm_t))))
        assert rep3["distal"] and rep3["consequences_hold"]


def distal_by_every_map(model):
    # oracle: distal when every envelope map f^k is injective
    env = envelope.exact_envelope(model)
    return all(len(set(int(v) for v in el.images)) == model.n_points for el in env.elements)


@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)))
def test_distal_semiflow_check_matches_every_map_injective(table):
    model = finite(table)
    rep = distal_semiflow_check(envelope.exact_envelope(model))
    assert rep["distal"] == distal_by_every_map(model)
    assert rep["consequences_hold"]


def test_distal_semiflow_check_reuses_the_envelope_of_its_model():
    # a corpus of random maps: the envelope of the model is read, not built
    # again; pointwise almost periodicity is every point returning to itself
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        table = rng.permutation(n) if rng.random() < 0.5 else rng.integers(0, n, n)
        model = finite(table)
        env = envelope.exact_envelope(model)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(envelope, "exact_envelope", lambda m: pytest.fail("envelope built again"))
            rep = distal_semiflow_check(env)
        returns = [any(model.iterate_images(k)[x] == x for k in range(1, n + 1)) for x in range(n)]
        assert rep["pointwise_almost_periodic"] == all(returns)
        assert rep["surjective"] == (sorted(table.tolist()) == list(range(n)))
    # an approximate envelope is refused, not replaced by an exact one
    approx = envelope.approx_envelope(finite([1, 2, 0, 0]), 4, 0.1, "forward")
    with pytest.raises(spaces.InvalidParameterError, match="needs an exact envelope"):
        distal_semiflow_check(approx)


def test_distal_semiflow_reads_no_envelope_map(monkeypatch):
    # periodic-union n = 12 has index 201 and period 27720: its maps would
    # hold 439,923,276 cells, so the answer must come from f^index alone
    monkeypatch.setattr(envelope.ExactEnvelope, "elements", property(lambda self: pytest.fail()))
    rep = distal_semiflow_check(envelope.exact_envelope(
        spaces.load_example("periodic-union", n=12)))
    assert rep == {"distal": False, "pointwise_almost_periodic": False, "surjective": False,
                   "consequences_hold": True}


def test_distal_model_envelope_group_and_equicontinuous():
    for name, params in (
        ("irrational-rotation", {"grid": 18}),
        ("double-circle-rotation", {"grid": 12}),
        ("dyadic-circle-stack", {"levels": 3, "mult": 8}),
    ):
        model = spaces.load_example(name, **params)
        env = envelope.exact_envelope(model)
        assert algebra.is_group_distal(env.semigroup)["is_group"]
        scan = equicontinuity_scan(model, [model.diameter / 4], 64)
        eps = model.diameter / 4
        assert len(scan["per_epsilon"][eps]["equicontinuity_points"]) == model.n_points


def test_hitting_tensor_is_refused_over_the_cell_budget():
    # 3000 balls after the cover fallback: at horizon 40 the tensor would hold
    # 41 * 3000**2 booleans, and its K x N products ran out of memory; the
    # K**2 pair keys are not built before the refusal either
    rot = spaces.load_example("irrational-rotation", grid=3000)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(envelope.EnvelopeBudgetError, match="3000 sets at horizon 40"):
            classify_transitivity(rot, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10.0
    assert peak < 16 * 2 ** 20


# -- finite carriers scanned per cycle ------------------------------------------------


def full_walk(fn, *args):
    """``fn(*args)`` with every scan walking each time up to its horizon:
    the oracle of the scans that stop at index + period."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(properties, "_last_time", lambda model, horizon: horizon)
        return fn(*args)


@st.composite
def folded_cases(draw):
    # a random finite map on n <= 12 points (tails, a permutation or the
    # identity) and a horizon below, at or above index + period
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["tails", "permutation", "identity"]))
    if kind == "tails":
        table = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    elif kind == "permutation":
        table = draw(st.permutations(list(range(n))))
    else:
        table = list(range(n))
    model = finite(table, np.argsort(table) if kind != "tails" else None)
    last = model.index + model.period
    horizon = draw(st.sampled_from([max(1, last - 1), last, last + 1, 3 * last + 2])
                   | st.integers(min_value=1, max_value=4 * last + 5))
    return model, horizon


@given(folded_cases(), st.data())
def test_folded_scans_equal_the_full_horizon_walk(case, data):
    model, horizon = case
    n = model.n_points
    tau = data.draw(st.sampled_from([0.0, 0.5 / max(1, n - 1), 1.5 / max(1, n - 1), 0.5]))
    cover = properties.default_cover(model)
    points = [OpenSet("points", points=tuple(data.draw(st.sets(
        st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3)))) for _ in range(2)]
    for sets in (cover, points):
        got = hitting_tensor(model, sets, horizon)
        assert got.tobytes() == full_walk(hitting_tensor, model, sets, horizon).tobytes()
    got = properties._point_return_matrix(model, horizon, tau)
    assert got.tobytes() == full_walk(properties._point_return_matrix, model, horizon, tau).tobytes()
    assert json.dumps(recurrence_report(model, horizon, tau)) == \
        json.dumps(full_walk(recurrence_report, model, horizon, tau))
    assert rigidity_battery(model, horizon, max(tau, 1e-9)) == \
        full_walk(rigidity_battery, model, horizon, max(tau, 1e-9))
    xs, ys = np.divmod(np.arange(n * n, dtype=np.int64), n)
    got = properties._pair_sup_divergence(model, xs, ys, horizon)
    assert got.tobytes() == \
        full_walk(properties._pair_sup_divergence, model, xs, ys, horizon).tobytes()
    assert strong_transitivity_check(model, horizon) == \
        full_walk(strong_transitivity_check, model, horizon)
    assert classify_transitivity(model, horizon) == full_walk(classify_transitivity, model, horizon)


@given(folded_cases())
def test_folded_scans_evaluate_each_distinct_map_once(case):
    model, horizon = case
    seen = []
    real = model.iterate_images
    model.iterate_images = lambda n: seen.append(n) or real(n)
    hitting_tensor(model, properties.default_cover(model), horizon)
    properties._point_return_matrix(model, horizon, 0.1)
    assert max(seen) <= model.index + model.period


def test_rigidity_at_a_long_horizon_walks_one_period():
    # rotation grid 48 has index 0 and period 8
    model = spaces.load_example("irrational-rotation", grid=48)
    seen = set()
    real = model.iterate_images
    model.iterate_images = lambda n: seen.add(n) or real(n)
    rep = rigidity_battery(model, 100_000, 0.02)
    assert rep["rigid"].witnesses == [8, 16, 24, 32] and rep["uniformly_rigid"].verdict == "holds"
    assert len(rep["full_return_times"]) == 12_500
    assert max(seen) <= model.index + model.period


def test_distal_semiflow_reads_the_pair_count_of_the_envelope():
    # the corpus asks proximal_structure and then distal_semiflow_check for the
    # same envelope: f^index is walked once, and distality stays from the fibres
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        table = rng.permutation(n) if rng.random() < 0.5 else rng.integers(0, n, n)
        model = finite(table)
        env = envelope.exact_envelope(model)
        pairs = algebra.proximal_structure(env)["pair_count"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "iterate_images", lambda k: pytest.fail("f^index walked again"))
            mp.setattr(algebra, "proximal_structure", lambda e: pytest.fail())
            rep = distal_semiflow_check(env)
        assert rep["distal"] == (pairs == 0) == distal_by_every_map(model)
