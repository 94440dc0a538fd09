import itertools
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellis import algebra, envelope, hyperspace, properties, spaces
from ellis.envelope import (
    approx_envelope,
    envelope_phase_model,
    envelope_power_decomposition,
    exact_envelope,
    identity_isolated,
    inducibility_check,
    stabilization_diagnostic,
    theta_check,
)


def finite(table, inverse=None, name="m"):
    n = len(table)
    coords = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    return spaces.FiniteModel(
        name, {}, coords,
        lambda a, b, c=coords: np.abs(c[np.asarray(a)] - c[np.asarray(b)]),
        table, inverse, "interval")


# -- exact envelopes -----------------------------------------------------------


def test_constant_map_envelope():
    env = exact_envelope(finite([0, 0, 0]))
    assert env.element_names() == ["f^0", "f^1"]
    assert env.index == 1 and env.period == 1
    sg = algebra.from_envelope(env)
    assert algebra.idempotents(sg) == [0, 1]  # e and the constant map


def test_three_cycle_envelope_is_group():
    env = exact_envelope(finite([1, 2, 0], [2, 0, 1]))
    assert env.index == 0 and env.period == 3
    assert env.is_group
    sg = algebra.from_envelope(env)
    assert algebra.idempotents(sg) == [0]


def test_preperiodic_map_envelope():
    # oracle: direct iteration of [1,2,3,2] finds f^4 = f^2
    table = [1, 2, 3, 2]
    maps = [list(range(4))]
    while True:
        maps.append([table[i] for i in maps[-1]])
        if maps[-1] in maps[:-1]:
            idx = maps.index(maps[-1])
            period = len(maps) - 1 - idx
            break
    assert (idx, period) == (2, 2)
    env = exact_envelope(finite(table))
    assert (env.index, env.period) == (2, 2)
    assert len(env.elements) == 4
    sg = algebra.from_envelope(env)
    cycle_idems = [u for u in algebra.idempotents(sg) if u >= env.index]
    assert len(cycle_idems) == 1


def test_exact_table_associative_exhaustively():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        env = exact_envelope(finite(rng.integers(0, n, n)))
        sg = algebra.from_envelope(env)
        assert sg.associativity_violations == 0
        assert len(algebra.idempotents(sg)) >= 1  # an idempotent always exists


def brute_monoid(table):
    # independent oracle: iterate f until a map repeats; the product of
    # f^i and f^j is found by composing the two maps and looking it up
    n = len(table)
    maps = [tuple(range(n))]
    while True:
        nxt = tuple(table[v] for v in maps[-1])
        if nxt in maps:
            break
        maps.append(nxt)
    index = maps.index(nxt)
    prod = [[maps.index(tuple(a[v] for v in b)) for b in maps] for a in maps]
    return index, len(maps) - index, maps, prod


maps_up_to_9 = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.one_of(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
        st.permutations(list(range(n)))))


@given(maps_up_to_9)
def test_exact_envelope_matches_iteration_until_repeat(table):
    index, period, maps, prod = brute_monoid(table)
    env = exact_envelope(finite(table))
    assert (env.index, env.period) == (index, period)
    assert [tuple(e.images.tolist()) for e in env.elements] == maps
    assert env.table.tolist() == prod
    assert [env.fold(i + j) for i in range(len(maps)) for j in range(len(maps))] == \
        [v for row in prod for v in row]


def test_exact_envelope_budget_refuses_before_allocating():
    ok = exact_envelope(spaces.load_example("periodic-union", n=8))
    assert (ok.index, ok.period) == (201, 840)
    big = spaces.load_example("periodic-union", n=11)   # index 201, period 27720
    start = time.perf_counter()
    with pytest.raises(envelope.EnvelopeBudgetError, match="27921 elements"):
        exact_envelope(big)
    assert time.perf_counter() - start < 1.0
    # the maps count too: a 1000-cycle beside 200,000 fixed points
    table = np.arange(201_000)
    table[:1000] = np.roll(np.arange(1000), -1)
    with pytest.raises(envelope.EnvelopeBudgetError, match="1000 elements over 201000 points"):
        exact_envelope(finite(table))


def test_invertible_envelope_is_cyclic_group():
    rot = spaces.load_example("irrational-rotation", grid=12)
    env = exact_envelope(rot)
    assert env.index == 0 and env.period == 12
    gd = algebra.is_group_distal(algebra.from_envelope(env))
    assert gd["is_group"] and gd["unique_idempotent_is_identity"]


# -- approximate envelopes -------------------------------------------------------


@pytest.fixture(scope="module")
def square_env():
    model = spaces.load_example("square-map")
    return model, approx_envelope(model, 60, 1e-3, "two-sided")


def test_square_map_limits(square_env):
    model, env = square_env
    assert env.stabilized
    lims = env.limit_elements
    assert len(lims) == 2
    pts = model.points
    g1 = np.where(pts < 1.0, 0.0, 1.0)
    g2 = np.where(pts > 0.0, 1.0, 0.0)
    values = {i: np.asarray(env.elements[i].images).ravel() for i in lims}
    d_to = {i: (np.abs(v - g1).max(), np.abs(v - g2).max()) for i, v in values.items()}
    fwd = min(lims, key=lambda i: d_to[i][0])
    back = min(lims, key=lambda i: d_to[i][1])
    assert fwd != back
    assert d_to[fwd][0] < 1e-3 and d_to[back][1] < 1e-3


def test_square_map_product_table(square_env):
    # the prescribed products: both limits idempotent, f fixes them, and they
    # absorb each other crosswise
    _, env = square_env
    a, b = env.limit_elements
    f1 = env.element_of_exponent(1)
    t = env.table
    assert t[a, a] == a and t[b, b] == b
    assert t[f1, a] == a and t[f1, b] == b
    assert t[a, b] == b and t[b, a] == a
    assert env.max_snap_error <= env.tau


def test_identity_model_envelope():
    model = spaces.load_example("identity", n=4)
    env = approx_envelope(model, 16, 0.01, "two-sided")
    assert len(env.elements) == 1
    iso = identity_isolated(env)
    assert not iso["isolated"] and iso["witness"] == 1


def test_identity_isolated_on_rotation():
    rot = spaces.load_example("irrational-rotation", grid=34)
    env = approx_envelope(rot, 128, 0.01, "two-sided", close_table=False)
    iso = identity_isolated(env)
    assert not iso["isolated"]
    assert iso["witness"] == 34  # the convergent denominator


def test_identity_isolated_on_window_model():
    model = spaces.sample_window_model(count=300, radius=220, seed=2)
    env = approx_envelope(model, 200, 0.4, "two-sided", close_table=False)
    assert identity_isolated(env)["isolated"]


def test_window_tau_boundary_is_inclusive():
    # x_0 = x_1 = 1 and zero elsewhere: sigma(x) first differs from x at
    # position -1, so sup d(f^0, f^1) = 1/2 sits exactly on tau = 1/2
    bits = np.zeros((1, 7), dtype=np.uint8)
    bits[0, 3] = bits[0, 4] = 1
    model = spaces.WindowSampleModel("w", {}, bits, 3, 5)
    assert model.image_sup_dist(model.iterate_images(0), model.iterate_images(1)) == 0.5
    env = approx_envelope(model, 1, 0.5, "forward", close_table=False)
    assert env.element_names() == ["f^0"]
    assert properties.rigidity_battery(model, 1, 0.5)["full_return_times"] == [1]
    env_below = approx_envelope(model, 1, 0.25, "forward", close_table=False)
    assert env_below.element_names() == ["f^0", "f^1"]


def test_window_envelope_growth_and_budget():
    model = spaces.sample_window_model(count=40, radius=24, seed=6)
    diag = stabilization_diagnostic(model, [4, 8, 16], 0.4)
    assert diag["verdict"] == "growing"
    env = approx_envelope(model, 6, 0.4, "two-sided", max_elements=20)
    assert not env.stabilized  # composition closure runs out of budget


def test_stabilization_square_and_identity():
    sq = spaces.load_example("square-map")
    diag = stabilization_diagnostic(sq, [10, 20, 40, 60], 1e-3)
    assert diag["verdict"] == "stabilizing"
    assert diag["counts"][-1] == diag["counts"][-2]
    ident = spaces.load_example("identity")
    d2 = stabilization_diagnostic(ident, [4, 8], 0.01)
    assert d2["counts"] == [1, 1] and d2["verdict"] == "stabilizing"


def test_neg_cube_envelope_structure():
    model = spaces.load_example("neg-cube", grid=401)
    env = approx_envelope(model, 60, 1e-3, "two-sided")
    assert len(env.limit_elements) == 4
    sg = algebra.from_envelope(env)
    ideals = algebra.minimal_left_ideals(sg)
    assert sorted(len(i) for i in ideals) == [2, 2]


def test_periodic_union_lcm_structure():
    # union of stacks 1..3: the cycle part has period lcm(1,2,3) = 6 and its
    # orbit is the unique minimal ideal
    m = spaces.load_example("periodic-union", n=3, truncate=20)
    env = exact_envelope(m)
    assert env.period == 6
    sg = algebra.from_envelope(env)
    pe = algebra.periodic_element_analysis(env)
    assert pe["common_period"] == 6 and pe["count"] == 6
    assert pe["count_bound_ok"] and pe["all_periods_equal"]
    ideals = algebra.minimal_left_ideals(sg)
    assert [len(i) for i in ideals] == [6]
    dec = algebra.kernel_and_groups(sg)
    assert len(dec.kernel) == 6 and dec.partition_ok and dec.groups_ok


def test_annulus_skew_envelope_does_not_stabilize():
    # the skew's rotation never returns on the drifting radii, so the
    # envelope keeps growing; no expected-envelope fixture exists for it
    ann = spaces.load_example("annulus-skew", radial=4, grid=24)
    env = approx_envelope(ann, 24, 0.05, "two-sided", max_elements=80)
    assert not env.stabilized
    diag = stabilization_diagnostic(ann, [8, 16, 24], 0.05)
    assert diag["verdict"] == "growing"


def test_two_sided_requires_inverse():
    stack = spaces.load_example("periodic-stack", n=2, truncate=5)
    with pytest.raises(spaces.NegativePowerError):
        approx_envelope(stack, 10, 0.05, "two-sided")
    env = approx_envelope(stack, 30, 0.05, "forward")
    assert env.stabilized


def per_horizon_counts(model, horizons, tau, power_range):
    # oracle: one envelope from scratch per horizon
    return [len(approx_envelope(model, h, tau, power_range, close_table=False).elements)
            for h in horizons]


@pytest.mark.parametrize("model, horizons, tau, power_range", [
    (spaces.load_example("square-map", grid=1001), [10, 20, 40, 60], 1e-3, "two-sided"),
    (spaces.load_example("neg-cube", grid=401), [5, 15, 15, 60], 1e-3, "two-sided"),
    (spaces.load_example("neg-cube", grid=401), [3, 30], 1e-3, "forward"),
    (spaces.sample_window_model(count=40, radius=24, seed=6), [4, 8, 16], 0.4, "two-sided"),
    (spaces.load_example("annulus-skew", radial=4, grid=24), [8, 16, 24], 0.05, "two-sided"),
], ids=["square-map", "neg-cube", "neg-cube-forward", "window", "annulus-skew"])
def test_stabilization_counts_match_per_horizon_envelopes(model, horizons, tau, power_range):
    diag = stabilization_diagnostic(model, horizons, tau, power_range)
    assert diag["counts"] == per_horizon_counts(model, horizons, tau, power_range)


def test_stabilization_validates_horizons():
    sq = spaces.load_example("square-map", grid=11)
    assert stabilization_diagnostic(sq, [], 0.05) == {
        "horizons": [], "counts": [], "verdict": "inconclusive"}
    for bad in ([0, 4], [8, 4], [-2]):
        with pytest.raises(spaces.InvalidParameterError):
            stabilization_diagnostic(sq, bad, 0.05)


# -- power decomposition ---------------------------------------------------------


def brute_power_decomposition(table, n):
    # oracle: explicit iterate sets composed by hand
    size = len(table)

    def compose(f, g):
        return tuple(f[g[i]] for i in range(size))

    ident = tuple(range(size))
    f = tuple(table)

    def envelope_of(gen):
        maps = {ident}
        cur = ident
        while True:
            cur = compose(gen, cur)
            if cur in maps:
                break
            maps.add(cur)
        return maps

    fn = ident
    for _ in range(n):
        fn = compose(f, fn)
    env_fn = envelope_of(fn)
    union = set()
    shift = ident
    for _ in range(n):
        union |= {compose(shift, g) for g in env_fn}
        shift = compose(f, shift)
    return union == envelope_of(f)


def test_power_decomposition_examples():
    cyc = finite([1, 2, 0], [2, 0, 1])
    rep = envelope_power_decomposition(cyc, 3)
    assert rep["equal"]
    const = finite([0, 0])
    assert envelope_power_decomposition(const, 2)["equal"]
    rng = np.random.default_rng(11)
    for _ in range(25):
        table = rng.integers(0, 6, 6)
        model = finite(table)
        for n in (2, 3):
            assert envelope_power_decomposition(model, n)["equal"] == \
                brute_power_decomposition([int(v) for v in table], n)
            assert envelope_power_decomposition(model, n)["equal"]


# -- hyperspace interplay ----------------------------------------------------------


def test_theta_trivial_on_identity():
    ident = spaces.load_example("identity", n=4)
    base_env = exact_envelope(ident)
    hyper = hyperspace.build_hyper_model(ident, 2)
    hyper_env = exact_envelope(hyper)
    rep = theta_check(base_env, hyper_env, hyper)
    assert rep["well_defined"] and rep["surjective_onto_observed"]
    assert not rep["homomorphism_violations"]


def test_theta_on_isolated_ones_injective():
    model = spaces.load_example("isolated-ones-subshift", truncate=6)
    base_env = exact_envelope(model)
    hyper = hyperspace.build_hyper_model(model, 2)
    hyper_env = exact_envelope(hyper)
    rep = theta_check(base_env, hyper_env, hyper)
    assert rep["well_defined"] and rep["injective"]
    assert not rep["homomorphism_violations"]


def test_theta_square_map_limits_cover_base_limits():
    # two-sided approximate envelopes on the 11-grid and its pair hyperspace
    sq = spaces.load_example("square-map", grid=11)
    hyper = hyperspace.build_hyper_model(sq, 2)
    base_env = approx_envelope(sq, 40, 0.05, "two-sided")
    hyper_env = approx_envelope(hyper, 40, 0.05, "two-sided")
    rep = theta_check(base_env, hyper_env, hyper)
    assert rep["well_defined"]
    assert rep["surjective_onto_observed"]
    assert not rep["homomorphism_violations"]
    base_limits = set(base_env.limit_elements)
    imaged = {rep["theta"][i] for i in hyper_env.limit_elements}
    assert base_limits <= imaged


def test_inducibility_of_induced_map_and_limits():
    sq = spaces.load_example("square-map", grid=11)
    hyper = hyperspace.build_hyper_model(sq, 2)
    hyper_env = approx_envelope(hyper, 40, 0.05, "two-sided")
    f1 = hyper_env.element_of_exponent(1)
    rep = inducibility_check(hyper_env, hyper, f1)
    assert rep["singletons_ok"] and rep["monotone_ok"] and rep["minimal_ok"]
    for i in hyper_env.limit_elements:
        rep = inducibility_check(hyper_env, hyper, i)
        assert rep["singletons_ok"] and rep["monotone_ok"] and rep["minimal_ok"]


def test_inducibility_detects_singleton_escape():
    ident = spaces.load_example("identity", n=3)
    hyper = hyperspace.build_hyper_model(ident, 2)
    env = exact_envelope(hyper)
    # forge an element sending a singleton to a pair
    forged = envelope.MapSample("forged", np.full(hyper.n_points, hyper.n_points - 1,
                                                  dtype=np.int64), 0)
    env.elements.append(forged)
    rep = inducibility_check(env, hyper, len(env.elements) - 1)
    assert not rep["singletons_ok"]


# θ restricts raw singleton rows: on every carrier the hyper envelope at k = 2
# is the base envelope carried over, including sampled bases clustered at tau
# below the snap scale (half a grid step is 0.05 on the 21-grids)
THETA_CASES = {
    "identity": ({"n": 5}, None),
    "irrational-rotation": ({"grid": 12}, None),
    "double-circle-rotation": ({"grid": 8}, None),
    "dyadic-circle-stack": ({"levels": 3, "mult": 2}, None),
    "dyadic-circle-stack-inward": ({"levels": 3, "mult": 2}, None),
    "triadic-circle-stack": ({"levels": 2, "mult": 1}, None),
    "periodic-stack": ({"n": 2, "truncate": 6}, None),
    "periodic-union": ({"n": 2, "truncate": 5}, None),
    "isolated-ones-subshift": ({"truncate": 6}, None),
    "square-map": ({"grid": 21}, (40, 0.01)),
    "neg-cube": ({"grid": 21}, (40, 0.01)),
    "annulus-skew": ({"radial": 1, "grid": 6}, (6, 0.05)),
}


def test_theta_cases_cover_the_catalog():
    assert set(THETA_CASES) == set(spaces.CATALOG)


@pytest.mark.parametrize("name", sorted(THETA_CASES))
def test_theta_is_the_identity_on_every_catalog_model(name):
    params, clustering = THETA_CASES[name]
    model = spaces.load_example(name, **params)
    hyper = hyperspace.build_hyper_model(model, 2)
    if clustering is None:
        base_env, hyper_env = exact_envelope(model), exact_envelope(hyper)
    else:
        horizon, tau = clustering
        base_env = approx_envelope(model, horizon, tau, "two-sided")
        hyper_env = approx_envelope(hyper, horizon, tau, "two-sided")
    assert hyper_env.element_names() == base_env.element_names()
    rep = theta_check(base_env, hyper_env, hyper)
    assert rep["theta"] == list(range(len(base_env.elements)))
    assert rep["well_defined"] and rep["injective"] and rep["surjective_onto_observed"]
    assert rep["homomorphism_violations"] == []


def set_based_inducibility(hyper_env, hyper, element_index):
    # oracle: the member sets of every image, compared set by set over every
    # enumerated inclusion A < B and every other envelope element
    index = {p: i for i, p in enumerate(hyper.hyperpoints)}

    def image_sets(el):
        snapped, _ = hyper.snap_images(el.images)
        return snapped, [set(hyper.hyperpoints[int(h)]) for h in snapped]

    snapped, members = image_sets(hyper_env.elements[element_index])
    singles_ok = all(len(members[index[(x,)]]) == 1 for x in range(hyper.base.n_points))
    monotone_ok = all(members[index[a]] <= members[bi]
                      for bi, b in enumerate(hyper.hyperpoints)
                      for j in range(1, len(b)) for a in itertools.combinations(b, j))
    minimal_ok, dominated_by = True, None
    for j, other in enumerate(hyper_env.elements):
        if j == element_index:
            continue
        o_snapped, o_members = image_sets(other)
        if np.array_equal(o_snapped, snapped):
            continue
        if all(o <= m for o, m in zip(o_members, members)):
            minimal_ok, dominated_by = False, j
            break
    return {"singletons_ok": singles_ok, "monotone_ok": monotone_ok,
            "minimal_ok": minimal_ok, "dominated_by": dominated_by}


def test_inducibility_matches_set_oracle_on_square_map():
    sq = spaces.load_example("square-map", grid=11)
    hyper = hyperspace.build_hyper_model(sq, 2)
    hyper_env = approx_envelope(hyper, 40, 0.05, "two-sided")
    # forged elements: raw rows of random hyperpoints, which break singletons,
    # monotonicity and minimality in turn
    rng = np.random.default_rng(3)
    ident = hyper.iterate_images(0)
    for _ in range(6):
        hyper_env.elements.append(envelope.MapSample(
            "forged", ident[rng.integers(0, hyper.n_points, hyper.n_points)], 0))
    hyper_env.elements.append(envelope.MapSample("constant", ident[[11] * hyper.n_points], 0))
    # {x} -> {x, 0} and pairs fixed: pointwise above the identity, so not minimal
    grown = ident.copy()
    grown[:11, 1] = 0.0
    hyper_env.elements.append(envelope.MapSample("grown", grown, 0))
    for i in range(len(hyper_env.elements)):
        assert inducibility_check(hyper_env, hyper, i) == \
            set_based_inducibility(hyper_env, hyper, i), i


def test_inducibility_matches_set_oracle_on_forged_finite_elements():
    ident = spaces.load_example("identity", n=5)
    hyper = hyperspace.build_hyper_model(ident, 3)
    env = exact_envelope(hyper)
    rng = np.random.default_rng(4)
    for _ in range(8):
        env.elements.append(envelope.MapSample(
            "forged", rng.integers(0, hyper.n_points, hyper.n_points), 0))
    # singletons fixed, every larger set sent to {0}: not monotone
    ids = np.arange(hyper.n_points)
    env.elements.append(envelope.MapSample("collapse", np.where(ids < 5, ids, 0), 0))
    # A -> A + {0} where that fits: pointwise above the identity, so not minimal
    grown = hyper.members.copy()
    grown[grown[:, 2] == grown[:, 0], 2] = 0
    env.elements.append(envelope.MapSample("grown", hyper.hyper_ids(grown), 0))
    # the map induced by x -> min(x, 2) passes all three conditions
    induced = hyper.hyper_ids(np.minimum(hyper.members, 2))
    env.elements.append(envelope.MapSample("induced", induced, 0))
    results = [inducibility_check(env, hyper, i) for i in range(len(env.elements))]
    assert results == [set_based_inducibility(env, hyper, i) for i in range(len(env.elements))]
    assert [list(r.values()) for r in results[-3:]] == [
        [True, False, True, None], [False, False, False, 0], [True, True, True, None]]


def test_envelope_phase_model_square():
    # iterating left multiplication on the envelope: the forward limit sends
    # every iterate to the forward-limit element and fixes both limits
    sq = spaces.load_example("square-map", grid=201)
    env = approx_envelope(sq, 40, 1e-3, "two-sided")
    phase = envelope_phase_model(env)
    assert phase.n_points == len(env.elements)
    env2 = exact_envelope(phase)
    assert env2.period == 1
    h = env2.elements[env2.index].images  # the unique cycle idempotent
    fwd, back = env.limit_elements
    if env.table[env.element_of_exponent(1), fwd] != fwd:
        fwd, back = back, fwd
    assert int(h[env.identity_index]) == fwd   # h(f^n) = forward limit
    assert int(h[fwd]) == fwd and int(h[back]) == back


def test_envelope_export_roundtrip(square_env):
    _, env = square_env
    doc = env.to_json()
    assert doc["schema"] == "ellis.envelope/1"
    assert len(doc["elements"]) == len(env.elements)
    assert doc["table"] is not None
    text = env.render_table()
    assert "f^0" in text.splitlines()[0]
