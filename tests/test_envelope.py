import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellis import algebra, cli, envelope, hyperspace, properties, spaces
from ellis.envelope import (
    approx_envelope,
    envelope_power_decomposition,
    exact_envelope,
    identity_isolated,
    inducibility_check,
    stabilization_diagnostic,
    theta_check,
)

from oracles import envelope_phase_model


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
    sg = env.semigroup
    assert algebra.idempotents(sg) == [0, 1]  # e and the constant map


def test_three_cycle_envelope_is_group():
    env = exact_envelope(finite([1, 2, 0], [2, 0, 1]))
    assert env.index == 0 and env.period == 3
    assert env.is_group
    sg = env.semigroup
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
    sg = env.semigroup
    cycle_idems = [u for u in algebra.idempotents(sg) if u >= env.index]
    assert len(cycle_idems) == 1


def test_exact_table_associative_exhaustively():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        env = exact_envelope(finite(rng.integers(0, n, n)))
        # the generic semigroup scans all size**3 triples of a table this small
        sg = algebra.FiniteSemigroup(env.table, source="exact")
        assert sg.size <= 64 and sg.associativity_violations == 0
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
    assert [env.model.fold(i + j) for i in range(len(maps)) for j in range(len(maps))] == \
        [v for row in prod for v in row]


def test_exact_envelope_budget_refuses_before_allocating():
    ok = exact_envelope(spaces.load_example("periodic-union", n=8))
    assert (ok.index, ok.period) == (201, 840)
    # the envelope itself is index and period; only reading its element
    # images or its table allocates, and each is refused over the budget
    big = exact_envelope(spaces.load_example("periodic-union", n=11))
    assert (big.index, big.period) == (201, 27720)
    assert len(big.element_names()) == 27921
    for read in ("table", "elements"):
        start = time.perf_counter()
        with pytest.raises(envelope.EnvelopeBudgetError, match="27921 elements"):
            getattr(big, read)
        assert time.perf_counter() - start < 1.0
    # the maps count on their own: a 1000-cycle beside 200,000 fixed points
    table = np.arange(201_000)
    table[:1000] = np.roll(np.arange(1000), -1)
    wide = exact_envelope(finite(table))
    assert wide.table.shape == (1000, 1000)
    start = time.perf_counter()
    with pytest.raises(envelope.EnvelopeBudgetError, match="1000 elements over 201000 points"):
        wide.elements
    assert time.perf_counter() - start < 1.0


def test_invertible_envelope_is_cyclic_group():
    rot = spaces.load_example("irrational-rotation", grid=12)
    env = exact_envelope(rot)
    assert env.index == 0 and env.period == 12
    gd = algebra.is_group_distal(env.semigroup)
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
    f1 = env.exponent_map[1]
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


def test_window_snap_is_refused_over_the_cell_budget():
    # at tau >= 1 every iterate is one limit cluster, whose square snaps:
    # 40 rows close, 2000 rows would need 2000 * 2000 * 133 cells
    small = approx_envelope(spaces.sample_window_model(count=40), 8, 1.0)
    assert small.stabilized and small.limit_elements == [0] and small.table.tolist() == [[0]]
    big = spaces.sample_window_model(count=2000)
    start = time.perf_counter()
    with pytest.raises(envelope.EnvelopeBudgetError, match="snapping 2000 window rows"):
        approx_envelope(big, 8, 1.0)
    assert time.perf_counter() - start < 1.0


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
    sg = env.semigroup
    ideals = algebra.minimal_left_ideals(sg)
    assert sorted(len(i) for i in ideals) == [2, 2]


def test_periodic_union_lcm_structure():
    # union of stacks 1..3: the cycle part has period lcm(1,2,3) = 6 and its
    # orbit is the unique minimal ideal
    m = spaces.load_example("periodic-union", n=3, truncate=20)
    env = exact_envelope(m)
    assert env.period == 6
    sg = env.semigroup
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
    oracle = per_horizon_counts(model, horizons, tau, power_range)
    diag = stabilization_diagnostic(model, horizons, tau, power_range)
    assert diag["counts"] == oracle
    # a closed envelope at a longer horizon is read, not clustered again: it
    # counts the main-loop clusters only, not the iterates past its horizon
    # nor the composites (origin 0) that its table closure appended
    env = approx_envelope(model, horizons[-1] + 4, tau, power_range, max_elements=80)
    assert stabilization_diagnostic(model, horizons, tau, power_range, env) == diag


def test_stabilization_reads_only_a_matching_envelope(monkeypatch):
    model = spaces.sample_window_model(count=12, radius=6, seed=1)
    env = approx_envelope(model, 12, 0.5, "forward")
    # the closure appended a composite of origin 0, which no horizon counts
    assert [e.provenance for e in env.elements[env.main_count:]] == ["composite"]
    counts = per_horizon_counts(model, [4, 12], 0.5, "forward")
    assert [sum(abs(e.origin) <= h for e in env.elements) for h in (4, 12)] != counts
    calls = []
    real = envelope.approx_envelope
    monkeypatch.setattr(envelope, "approx_envelope",
                        lambda *a, **kw: calls.append(a[1:4]) or real(*a, **kw))
    assert stabilization_diagnostic(model, [4, 12], 0.5, "forward", env)["counts"] == counts
    assert calls == []
    twin = spaces.sample_window_model(count=12, radius=6, seed=1)
    for other_model, horizons, tau, power_range, other_env in [
            (model, [4, 12], 0.3, "forward", env),       # tau
            (model, [4, 12], 0.5, "two-sided", env),     # power range
            (twin, [4, 12], 0.5, "forward", env),        # model object
            (model, [4, 13], 0.5, "forward", env),       # horizon
            (model, [4, 12], 0.5, "forward", None)]:
        calls.clear()
        diag = stabilization_diagnostic(other_model, horizons, tau, power_range, other_env)
        assert calls == [(horizons[-1], tau, power_range)]
        assert diag["counts"] == per_horizon_counts(other_model, horizons, tau, power_range)
    calls.clear()
    stack = spaces.load_example("periodic-stack", n=2, truncate=5)
    stabilization_diagnostic(stack, [4], 0.05, "forward", exact_envelope(stack))
    assert calls == [(4, 0.05, "forward")]


def test_stabilization_validates_horizons():
    sq = spaces.load_example("square-map", grid=11)
    assert stabilization_diagnostic(sq, [], 0.05) == {
        "horizons": [], "counts": [], "verdict": "inconclusive"}
    for bad in ([0, 4], [8, 4], [-2]):
        with pytest.raises(spaces.InvalidParameterError):
            stabilization_diagnostic(sq, bad, 0.05)


# -- the cluster index against the per-element scan --------------------------


class LoopIndex:
    """Oracle: the scan the cluster index replaced.  Each representative is
    compared in element order, on a 1-in-64 probe gathered afresh and then
    at full resolution."""

    def __init__(self, model, tau):
        self.model, self.tau = model, tau
        self.keys, self.reps = {}, []

    def find(self, images, key):
        if key is not None:
            return self.keys.get(key.tobytes())
        model = self.model
        probe = np.arange(0, model.n_points, 64)
        head = model.apply_to_indices(images, probe)
        for i, rep in enumerate(self.reps):
            if (model.image_sup_dist(model.apply_to_indices(rep, probe), head) <= self.tau
                    and model.image_sup_dist(rep, images) <= self.tau):
                return i
        return None

    def add(self, images, key, exponent=None):
        if key is not None:
            self.keys[key.tobytes()] = len(self.reps)
        self.reps.append(images)
        return len(self.reps) - 1

    def replace(self, i, images):
        self.reps[i] = images


class NoSwapIndex(envelope._ClusterIndex):
    """A cluster index that keeps a limit's first representative."""

    def replace(self, i, images):
        pass


def clustering(env):
    return {
        "names": env.element_names(),
        "origins": [e.origin for e in env.elements],
        "exponents": [e.exponents for e in env.elements],
        "provenance": [(e.provenance, e.is_limit, e.tail_count) for e in env.elements],
        "exponent_map": env.exponent_map,
        "table": None if env.table is None else env.table.tolist(),
        "stabilized": env.stabilized,
        "max_snap_error": env.max_snap_error,
    }


def envelope_with(index_class, model, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_ClusterIndex", index_class)
        return approx_envelope(model, *args, **kwargs)


def check_index_against_scan(model, horizon, tau, power_range, close_table):
    env = approx_envelope(model, horizon, tau, power_range, close_table=close_table)
    oracle = envelope_with(LoopIndex, model, horizon, tau, power_range, close_table=close_table)
    assert clustering(env) == clustering(oracle)
    for a, b in zip(env.elements, oracle.elements):
        assert np.array_equal(a.images, b.images)


taus = st.sampled_from([3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1])
interval_cases = st.tuples(
    st.sampled_from(["square-map", "neg-cube"]), st.integers(min_value=65, max_value=20001),
).map(lambda c: spaces.load_example(c[0], grid=c[1]))
annulus_cases = st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=2, max_value=40),
).map(lambda c: spaces.load_example("annulus-skew", radial=c[0], grid=c[1]))
hyper_cases = st.tuples(
    st.sampled_from(["square-map", "neg-cube"]), st.integers(min_value=5, max_value=21),
).map(lambda c: hyperspace.build_hyper_model(spaces.load_example(c[0], grid=c[1]), 2))


@st.composite
def finite_cases(draw):
    # tau at or over the resolution: no cluster keys, ids go through the probe
    n = draw(st.integers(min_value=2, max_value=400))
    if draw(st.booleans()):
        table = draw(st.permutations(list(range(n))))
        model = finite(table, np.argsort(table))
    else:
        model = finite(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                     min_size=n, max_size=n)))
    return model, model.resolution * draw(st.sampled_from([1.0, 2.5, 10.0, 40.0]))


@given(st.one_of(st.tuples(st.one_of(interval_cases, annulus_cases, hyper_cases), taus),
                 finite_cases()),
       st.integers(min_value=2, max_value=40), st.booleans(), st.booleans())
def test_cluster_index_matches_the_scan(case, horizon, two_sided, close_table):
    model, tau = case
    assert model.cluster_key(model.iterate_images(0), tau) is None
    power_range = "two-sided" if two_sided and model.invertible else "forward"
    check_index_against_scan(model, horizon, tau, power_range, close_table)


def test_cluster_index_matches_the_scan_across_a_limit_swap():
    # a limit's representative is swapped for its deepest iterate after the
    # main loop; the closure here clusters differently if the probe block
    # misses the swap
    model = spaces.load_example("square-map", grid=10001)
    env = approx_envelope(model, 10, 0.03)
    assert any(e.is_limit and max(e.exponents, key=abs) != e.origin for e in env.elements)
    assert clustering(envelope_with(NoSwapIndex, model, 10, 0.03)) != clustering(env)
    for close_table in (True, False):
        check_index_against_scan(model, 10, 0.03, "two-sided", close_table)


@pytest.mark.parametrize("collide", [False, True])
def test_keyed_cluster_index_matches_the_scan_and_keeps_no_key_bytes(monkeypatch, collide):
    window = spaces.sample_window_model(count=60, radius=30, seed=4)
    ids = finite(np.random.default_rng(2).integers(0, 40, 40))
    cases = [(window, 0.4), (window, 2.0 ** -6), (ids, ids.resolution / 2)]
    if collide:
        # every key hashes alike: the compared symbols alone decide
        monkeypatch.setattr(envelope.zlib, "crc32", lambda key: 0)
    for model, tau in cases:
        assert model.cluster_key(model.iterate_images(0), tau) is not None
        args = (model, 40, tau, "two-sided" if model.invertible else "forward")
        close = model is not window
        assert clustering(approx_envelope(*args, close_table=close)) == \
            clustering(envelope_with(LoopIndex, *args, close_table=close))
    index = envelope._ClusterIndex(window, 0.4)
    for n in range(-50, 51):
        images = window.iterate_images(n)
        key = window.cluster_key(images, 0.4)
        if index.find(images, key) is None:
            index.add(images, key)
    # the dict holds hashes and cluster indices, no key bytes
    assert all(type(h) is int for h in index.keys)
    assert sorted(i for ids in index.keys.values() for i in ids) == list(range(len(index.reps)))


def test_cluster_index_tau_is_inclusive():
    # integer coordinates, so f and f^2 of x -> x + 1 lie exactly tau = 1 and
    # 2 from the identity, on the probe as everywhere else
    n = 200
    coords = np.arange(n, dtype=float)
    model = spaces.FiniteModel("step", {}, coords,
                               lambda a, b: np.abs(coords[np.asarray(a)] - coords[np.asarray(b)]),
                               np.minimum(np.arange(n) + 1, n - 1))
    env = approx_envelope(model, 4, 1.0, "forward", close_table=False)
    assert [e.exponents for e in env.elements] == [[0, 1], [2, 3], [4]]
    check_index_against_scan(model, 4, 1.0, "forward", True)


def test_cluster_index_adds_witness_columns():
    # square-map 20001 at tau 1e-3 fails full checks at points the initial
    # probe, every isqrt(N)-th point, never reads
    model = spaces.load_example("square-map", grid=20001)
    index = envelope._ClusterIndex(model, 1e-3)
    initial = range(0, model.n_points, max(64, math.isqrt(model.n_points)))
    assert np.array_equal(index.probe, initial)
    for n in range(-20, 21):
        images = model.iterate_images(n)
        if index.find(images, None) is None:
            index.add(images, None)
    assert len(index.probe) > len(initial)
    for i in range(len(index.reps)):
        gathered = model.apply_to_indices(index.rep_images(i), index.probe)
        known = index.known[i]
        assert np.array_equal(index.rows[i][known], gathered[known])
    check_index_against_scan(model, 20, 1e-3, "two-sided", True)


def test_neg_cube_step_clusters_as_the_pow_step():
    # x * x * x and x ** 3 differ by at most 1 ulp on the grid; the clusters
    # of the catalog model are those of the old pow step
    grid = 20001
    model = spaces.load_example("neg-cube", grid=grid)
    x = model.points
    step = model._step_raw(x)
    np.testing.assert_array_max_ulp(step, -(x ** 3), 1)
    assert (step != -(x ** 3)).any()       # at 5118 of the points with glibc pow
    pow_model = spaces._interval_model("neg-cube", {"grid": grid}, -1.0, 1.0, grid,
                                       fwd=lambda x: -(x ** 3), inv=lambda x: -np.cbrt(x))
    env, oracle = (approx_envelope(m, 80, 1e-3) for m in (model, pow_model))
    assert clustering(env) == clustering(oracle)


# -- cold representatives against the index that holds every image ----------


class HoldingIndex:
    """Oracle: the cluster index whose every representative holds its
    images, so that a witness column is gathered for all of them and no
    full test reads the iterate cache.  Keyed carriers are not taken."""

    def __init__(self, model, tau):
        self.model, self.tau = model, tau
        self.reps = []
        self.probe = np.arange(0, model.n_points, max(64, math.isqrt(model.n_points)))
        self.rows = None

    def find(self, images, key):
        assert key is None
        head = self.model.apply_to_indices(images, self.probe)
        lo = 0
        while lo < len(self.reps):
            hi = min(len(self.reps), lo + max(1, spaces.SUP_CHUNK // len(self.probe)))
            near = lo + np.flatnonzero(self._probe_dist(self.rows[lo:hi], head) <= self.tau)
            while len(near):
                witness = self._witness(self.reps[near[0]], images)
                if witness is None:
                    return int(near[0])
                head = self._add_column(witness, head, images)
                near = near[1:]
                if len(near):
                    near = near[self._probe_dist(self.rows[near, -1:], head[-1:]) <= self.tau]
            lo = hi
        return None

    def add(self, images, key, exponent=None):
        i = len(self.reps)
        row = self.model.apply_to_indices(images, self.probe)
        self.rows = row[None] if self.rows is None else np.concatenate([self.rows, row[None]])
        self.reps.append(images)
        return i

    def replace(self, i, images):
        self.reps[i] = images
        self.rows[i] = self.model.apply_to_indices(images, self.probe)

    def _probe_dist(self, block, head):
        m, point = len(block), head.shape[1:]
        flat = (m * block.shape[1],) + point
        d = self.model.image_pair_dist(block.reshape(flat),
                                       np.broadcast_to(head, block.shape).reshape(flat))
        return d.reshape(m, -1).max(axis=1)

    def _witness(self, a, b):
        for lo in range(0, len(b), spaces.SUP_CHUNK):
            d = self.model.image_pair_dist(a[lo:lo + spaces.SUP_CHUNK], b[lo:lo + spaces.SUP_CHUNK])
            if not d.max() <= self.tau:
                return lo + int(np.argmax(d))
        return None

    def _add_column(self, point, head, images):
        col = [point]
        self.probe = np.append(self.probe, point)
        new = np.stack([self.model.apply_to_indices(r, col) for r in self.reps])
        self.rows = np.concatenate([self.rows, new], axis=1)
        return np.concatenate([head, self.model.apply_to_indices(images, col)])


class CountingIndex(envelope._ClusterIndex):
    """The cluster index, counting full tests that read a cold
    representative and, of those, the ones that filled unknown columns."""

    cold_reads = filled = 0

    def _read(self, i):
        if self.reps[i] is None:
            CountingIndex.cold_reads += 1
            CountingIndex.filled += int(not self.known[i].all())
        return super()._read(i)


def check_against_holding_index(model, horizon, tau, power_range, close_table, budget):
    indexes = []

    class Recorded(HoldingIndex):
        def __init__(self, *args):
            super().__init__(*args)
            indexes.append(self)

    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(spaces, "ITERATE_CACHE_BYTES", budget)
        env = envelope_with(CountingIndex, model, horizon, tau, power_range,
                            close_table=close_table)
        # and the closure composes every cell in turn, not iterate cells in one gather
        mp.setattr(envelope, "_fold_iterates", lambda *args: None)
        oracle = envelope_with(Recorded, model, horizon, tau, power_range,
                               close_table=close_table)
        assert clustering(env) == clustering(oracle)
        # each element's images are its held representative's, bitwise
        for el, rep in zip(env.elements, indexes[0].reps):
            assert np.asarray(el.images).tobytes() == np.asarray(rep).tobytes()


@pytest.mark.parametrize("budget", [None, 0])
@given(st.one_of(st.tuples(st.one_of(interval_cases, annulus_cases, hyper_cases), taus),
                 finite_cases()),
       st.integers(min_value=2, max_value=40), st.booleans(), st.booleans())
def test_cold_representatives_match_the_holding_index(budget, case, horizon, two_sided,
                                                        close_table):
    model, tau = case
    power_range = "two-sided" if two_sided and model.invertible else "forward"
    check_against_holding_index(model, horizon, tau, power_range, close_table, budget)


def test_cold_representatives_fill_their_unknown_columns():
    # a random map of 200 points adds witness columns while representatives
    # are cold, and full tests then read them; under a budget of 0 the cache
    # keeps two iterates, so each such read steps again from the identity
    CountingIndex.cold_reads = CountingIndex.filled = 0
    for scale in (2.5, 10.0, 40.0):
        model = finite(np.random.default_rng(0).integers(0, 200, 200))
        check_against_holding_index(model, 40, model.resolution * scale, "forward", True, 0)
    assert CountingIndex.cold_reads > 0 and CountingIndex.filled > 0


def test_square_map_envelope_work_is_bounded(monkeypatch):
    # grid 1e5: 35 elements of 800 KB, of which the envelope holds the two
    # limits' deepest members; the iterate cache holds at most 8 MB past its
    # two newest entries
    model = spaces.load_example("square-map", grid=100001)
    steps = []
    real = model._advance
    monkeypatch.setattr(model, "_advance", lambda img, d: steps.append(d) or real(img, d))
    tracemalloc.start()
    try:
        env = approx_envelope(model, 60, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(env.elements) == 35
    assert peak < 16 * 2 ** 20
    assert len(steps) <= 2 * 60


# -- the byte-bounded iterate cache ------------------------------------------


def envelope_under_budget(budget, name, grid, horizon, power_range):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "ITERATE_CACHE_BYTES", budget)
        return approx_envelope(spaces.load_example(name, grid=grid), horizon, 1e-3, power_range)


@pytest.mark.parametrize("name,grid,horizon", [("square-map", 2001, 60), ("neg-cube", 2001, 80),
                                               ("neg-cube", 501, 30)])
@pytest.mark.parametrize("power_range", ["two-sided", "forward"])
def test_envelope_is_the_same_under_every_cache_budget(name, grid, horizon, power_range):
    bounded, unbounded = (envelope_under_budget(b, name, grid, horizon, power_range)
                          for b in (0, 2 ** 62))
    assert clustering(bounded) == clustering(unbounded)
    for a, b in zip(bounded.elements, unbounded.elements):
        assert a.images.tobytes() == b.images.tobytes()


@pytest.mark.parametrize("budget", [0, None])
def test_square_map_envelope_makes_one_step_per_exponent(monkeypatch, budget):
    # grid 1e5 holds 800 KB iterates, so the default budget evicts
    if budget is not None:
        monkeypatch.setattr(spaces, "ITERATE_CACHE_BYTES", budget)
    model = spaces.load_example("square-map", grid=100001)
    steps = []
    real = model._advance
    monkeypatch.setattr(model, "_advance", lambda img, d: steps.append(d) or real(img, d))
    env = approx_envelope(model, 60, 1e-3)
    # f^28 = f^27 and f^-58 = f^-57 bit for bit: one step per exponent up to
    # each repeat, and none past it
    assert len(steps) == 28 + 58
    assert (model.fold(60), model.fold(-60)) == (27, -57)
    assert len(env.elements) == 35
    assert model._iter_bytes <= max(spaces.ITERATE_CACHE_BYTES, 2 * model.points.nbytes)


def test_limits_are_not_recomputed_after_eviction(monkeypatch):
    # neg-cube has four limit clusters at H = 80; at budget 0 the cache holds
    # only the two newest iterates, so each limit's deepest member must come
    # from the main loop and not be stepped again from the identity (320 steps)
    monkeypatch.setattr(spaces, "ITERATE_CACHE_BYTES", 0)
    model = spaces.load_example("neg-cube", grid=2001)
    steps = []
    real = model._advance
    monkeypatch.setattr(model, "_advance", lambda img, d: steps.append(d) or real(img, d))
    env = approx_envelope(model, 80, 1e-3)
    assert len(env.limit_elements) == 4
    assert len(steps) == 2 * 80


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
    rep = envelope_power_decomposition(exact_envelope(cyc), 3)
    assert rep["equal"]
    const = finite([0, 0])
    assert envelope_power_decomposition(exact_envelope(const), 2)["equal"]
    rng = np.random.default_rng(11)
    for _ in range(25):
        table = rng.integers(0, 6, 6)
        env = exact_envelope(finite(table))
        for n in (2, 3):
            assert envelope_power_decomposition(env, n)["equal"] == \
                brute_power_decomposition([int(v) for v in table], n)
            assert envelope_power_decomposition(env, n)["equal"]


def loop_power_decomposition(model, n):
    # oracle: the envelope of f^n built from its own map table, and each
    # translate composed map by map
    env = exact_envelope(model)
    full = {e.images.tobytes() for e in env.elements}
    sub = finite(env.elements[env.model.fold(n)].images)
    translate_sizes, union, collisions = [], set(), 0
    shift = np.arange(model.n_points, dtype=np.int64)
    for _ in range(n):
        tr = set()
        for e in exact_envelope(sub).elements:
            key = shift[e.images].tobytes()
            collisions += key in union
            tr.add(key)
            union.add(key)
        translate_sizes.append(len(tr))
        shift = model.map_table[shift]
    return {"equal": union == full, "envelope_size": len(full), "union_size": len(union),
            "translate_sizes": translate_sizes, "multiset_collisions": collisions}


maps_with_constants = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.one_of(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
        st.permutations(list(range(n))),
        st.integers(min_value=0, max_value=n - 1).map(lambda c: [c] * n)))


@given(maps_with_constants, st.integers(min_value=1, max_value=5))
def test_power_decomposition_with_env_matches_the_loops(table, n):
    inverse = np.argsort(table) if sorted(table) == list(range(len(table))) else None
    model = finite(table, inverse)
    got = envelope_power_decomposition(exact_envelope(model), n)
    assert got == loop_power_decomposition(model, n)
    assert got["equal"] == brute_power_decomposition(table, n)


def test_power_decomposition_reads_only_the_envelope_of_its_model(monkeypatch):
    calls = []
    real = envelope.exact_envelope
    monkeypatch.setattr(envelope, "exact_envelope", lambda m: calls.append(m) or real(m))
    model = finite([1, 2, 0, 0], name="m")
    for env in (real(model), real(finite([1, 2, 0, 0], name="m"))):
        assert envelope_power_decomposition(env, 2) == loop_power_decomposition(env.model, 2)
    assert calls == []
    # an approximate envelope is refused, not replaced by an exact one
    with pytest.raises(spaces.InvalidParameterError, match="needs an exact envelope"):
        envelope_power_decomposition(approx_envelope(model, 4, 0.1, "forward"), 2)
    assert calls == []
    # the op reads the context's envelope, and needs one
    report, _ = cli.run_experiment({
        "model": {"name": "periodic-stack", "params": {"n": 2, "truncate": 4}},
        "pipeline": [{"op": "power_decomposition", "params": {"n": 3}}, {"op": "exact_envelope"},
                     {"op": "power_decomposition", "params": {"n": 3}}]})
    steps = report["steps"]
    assert [s["status"] for s in steps] == ["error", "ok", "ok"] and len(calls) == 1
    assert "needs an envelope" in steps[0]["error"]


def element_loop_identity_isolated(env, tau):
    # oracle: the walk over the envelope's element images
    ident = env.elements[0].images
    for n in range(1, env.index + env.period + 1):
        el = env.elements[env.model.fold(n)]
        if env.model.image_sup_dist(el.images, ident) < tau or env.model.fold(n) == 0:
            return {"isolated": False, "witness": n, "weakly_rigid_up_to_horizon": True}
    return {"isolated": True, "witness": None, "weakly_rigid_up_to_horizon": False}


@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.one_of(
    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
    st.permutations(list(range(n))), st.just(list(range(n))))),
    st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=4))
def test_identity_isolated_per_cycle_length_matches_the_element_walk(table, taus):
    inverse = np.argsort(table) if sorted(table) == list(range(len(table))) else None
    model = finite(table, inverse)
    for carrier in (model, hyperspace.build_hyper_model(model, 2)):
        env = exact_envelope(carrier)
        for tau in taus + [0.0, carrier.resolution]:
            assert identity_isolated(env, tau) == element_loop_identity_isolated(env, tau), tau


def test_identity_isolated_walks_the_index_and_the_longest_cycle():
    # periodic-union n = 12: index 201, period 27720, cycles of length 1..12;
    # the answers are those of the walk over all 27,921 exponents
    model = spaces.load_example("periodic-union", n=12)
    seen = set()
    real = model.iterate_images
    model.iterate_images = lambda n: seen.add(n) or real(n)
    env = exact_envelope(model)
    assert identity_isolated(env, 0.5) == \
        {"isolated": True, "witness": None, "weakly_rigid_up_to_horizon": False}
    assert identity_isolated(env, 1.5) == \
        {"isolated": False, "witness": 27720, "weakly_rigid_up_to_horizon": True}
    assert max(seen) < 201 + 12


@pytest.mark.parametrize("model", [
    spaces.load_example("periodic-union", n=3),
    spaces.load_example("irrational-rotation", grid=48),
    hyperspace.build_hyper_model(spaces.load_example("dyadic-circle-stack", levels=2, mult=2), 2)],
    ids=["periodic-union-3", "rotation-48", "dyadic-stack-hyper-2"])
def test_exact_envelope_elements_hold_exponents(model):
    # no element pins its f^k; the oracle steps the map table from the
    # identity
    env = exact_envelope(model)
    images = np.arange(model.n_points)
    for k, el in enumerate(env.elements):
        assert (el.held, el.origin, el.name) == (None, k, f"f^{k}")
        assert el.images.dtype == images.dtype and el.images.tobytes() == images.tobytes()
        images = model.map_table[images]
    assert len(env.elements) == env.semigroup.size


def test_approx_envelope_refuses_a_nan_tau():
    # unchecked, a NaN tau matched no image to a cluster: 81 elements at
    # horizon 10
    sq = spaces.load_example("square-map", grid=101)
    with pytest.raises(spaces.InvalidParameterError, match="tau must be positive"):
        approx_envelope(sq, 10, math.nan)
    with pytest.raises(spaces.InvalidParameterError, match="tau must be positive"):
        stabilization_diagnostic(sq, [5, 10], math.nan)


def test_identity_isolated_refuses_a_negative_tau():
    # unchecked, the index-0 -inf sentinel of _return_sups read as a return:
    # isolated false, witness 12 on rotation grid 12 at tau = -1
    rot = spaces.load_example("irrational-rotation", grid=12)
    for env in (exact_envelope(rot), approx_envelope(rot, 12, 0.01, "forward")):
        with pytest.raises(spaces.InvalidParameterError, match="tau=-1.0 is negative"):
            identity_isolated(env, -1.0)
        with pytest.raises(spaces.InvalidParameterError, match="tau=nan is negative or NaN"):
            identity_isolated(env, math.nan)          # answered isolated: true
    assert identity_isolated(exact_envelope(rot), 0.0)["witness"] == 12    # f^12 = id


def test_exact_envelope_ops_read_no_element_images(monkeypatch):
    union8 = spaces.load_example("periodic-union", n=8)
    expected = element_loop_identity_isolated(exact_envelope(union8), 0.5)
    stack = spaces.load_example("dyadic-circle-stack", levels=2, mult=2)
    stack_hyper = hyperspace.build_hyper_model(stack, 2)
    wap = properties.wap_proxy_check(exact_envelope(stack))
    monkeypatch.setattr(envelope.ExactEnvelope, "elements", property(lambda self: pytest.fail()))
    assert identity_isolated(exact_envelope(union8), 0.5) == expected
    base_env, hyper_env = exact_envelope(stack), exact_envelope(stack_hyper)
    assert theta_check(base_env, hyper_env)["theta"] == list(range(4))
    assert [inducibility_check(hyper_env, i)["minimal_ok"] for i in range(4)] == [True] * 4
    assert properties.wap_proxy_check(base_env) == wap
    # periodic-union n = 12: its element images would hold 439,923,276 cells
    report, _ = cli.run_experiment({
        "model": {"name": "periodic-union", "params": {"n": 12}},
        "pipeline": [{"op": "exact_envelope"}, {"op": "power_decomposition", "params": {"n": 2}},
                     {"op": "proximal_structure"}, {"op": "distal_semiflow"}]})
    assert report["summary"]["ok"], report["steps"]
    power = report["steps"][1]["result"]
    assert (power["equal"], power["envelope_size"], power["union_size"]) == (True, 27921, 27921)
    assert report["steps"][2]["result"]["pair_count"] == 1_583_478
    assert report["steps"][3]["result"]["distal"] is False


# -- hyperspace interplay ----------------------------------------------------------


def test_theta_trivial_on_identity():
    ident = spaces.load_example("identity", n=4)
    base_env = exact_envelope(ident)
    hyper = hyperspace.build_hyper_model(ident, 2)
    hyper_env = exact_envelope(hyper)
    rep = theta_check(base_env, hyper_env)
    assert rep["well_defined"] and rep["surjective_onto_observed"]
    assert not rep["homomorphism_violations"]


def test_theta_on_isolated_ones_injective():
    model = spaces.load_example("isolated-ones-subshift", truncate=6)
    base_env = exact_envelope(model)
    hyper = hyperspace.build_hyper_model(model, 2)
    hyper_env = exact_envelope(hyper)
    rep = theta_check(base_env, hyper_env)
    assert rep["well_defined"] and rep["injective"]
    assert not rep["homomorphism_violations"]


def test_theta_square_map_limits_cover_base_limits():
    # two-sided approximate envelopes on the 11-grid and its pair hyperspace
    sq = spaces.load_example("square-map", grid=11)
    hyper = hyperspace.build_hyper_model(sq, 2)
    base_env = approx_envelope(sq, 40, 0.05, "two-sided")
    hyper_env = approx_envelope(hyper, 40, 0.05, "two-sided")
    rep = theta_check(base_env, hyper_env)
    assert rep["well_defined"]
    assert rep["surjective_onto_observed"]
    assert not rep["homomorphism_violations"]
    base_limits = set(base_env.limit_elements)
    imaged = {rep["theta"][i] for i in hyper_env.limit_elements}
    assert base_limits <= imaged


def test_theta_refuses_a_hyper_envelope_over_another_model():
    # the parent compared the envelopes of two different maps in silence
    base = spaces.load_example("irrational-rotation", grid=6)
    other = spaces.load_example("irrational-rotation", grid=6)
    hyper_env = exact_envelope(hyperspace.build_hyper_model(other, 2))
    with pytest.raises(spaces.InvalidParameterError, match="hyper envelope over"):
        theta_check(exact_envelope(base), hyper_env)
    with pytest.raises(spaces.InvalidParameterError, match="hyper envelope over"):
        theta_check(exact_envelope(base), exact_envelope(base))
    assert theta_check(exact_envelope(other), hyper_env)["well_defined"]
    # a reload drops the hyper envelope built over the previous model
    report, _ = cli.run_experiment({
        "model": {"name": "periodic-stack", "params": {"n": 2, "truncate": 3}},
        "pipeline": [{"op": "build_hyper"}, {"op": "hyper_envelope"},
                     {"op": "load_example", "params": {"name": "identity", "params": {"n": 3}}},
                     {"op": "exact_envelope"}, {"op": "theta_check"},
                     {"op": "build_hyper"}, {"op": "theta_check"}]})
    steps = report["steps"]
    assert steps[4]["status"] == "error" and "needs a hyper envelope" in steps[4]["error"]
    assert steps[6]["status"] == "error" and "needs a hyper envelope" in steps[6]["error"]


def test_inducibility_refuses_an_envelope_not_over_a_hyper_model():
    # the parent failed with AttributeError: 'FiniteModel' object has no
    # attribute 'members'
    ident = spaces.load_example("identity", n=3)
    for env in (exact_envelope(ident), approx_envelope(ident, 2, 0.1, "forward")):
        with pytest.raises(spaces.InvalidParameterError, match="over a hyper model"):
            inducibility_check(env, 0)
    # unchecked, -1 read as the last element of an approximate envelope
    hyper = hyperspace.build_hyper_model(ident, 2)
    for hyper_env in (exact_envelope(hyper), approx_envelope(hyper, 2, 0.1, "forward")):
        assert len(hyper_env.element_names()) == 1
        for idx in (-1, 1, 0.5):
            with pytest.raises(spaces.InvalidParameterError, match="element="):
                inducibility_check(hyper_env, idx)
        assert inducibility_check(hyper_env, 0)["minimal_ok"]


@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.one_of(
    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
    st.permutations(list(range(n))))), st.integers(min_value=1, max_value=3))
def test_exact_theta_and_inducibility_equal_the_matching_and_inclusion_loops(table, k):
    model = finite(table)
    hyper = hyperspace.build_hyper_model(model, k)
    base_env, hyper_env = exact_envelope(model), exact_envelope(hyper)
    assert theta_check(base_env, hyper_env) == envelope._theta_by_matching(base_env, hyper_env)
    for i in range(hyper_env.semigroup.size):
        assert inducibility_check(hyper_env, i) == set_based_inducibility(hyper_env, hyper, i)


def test_inducibility_of_induced_map_and_limits():
    sq = spaces.load_example("square-map", grid=11)
    hyper = hyperspace.build_hyper_model(sq, 2)
    hyper_env = approx_envelope(hyper, 40, 0.05, "two-sided")
    f1 = hyper_env.exponent_map[1]
    rep = inducibility_check(hyper_env, f1)
    assert rep["singletons_ok"] and rep["monotone_ok"] and rep["minimal_ok"]
    for i in hyper_env.limit_elements:
        rep = inducibility_check(hyper_env, i)
        assert rep["singletons_ok"] and rep["monotone_ok"] and rep["minimal_ok"]


def test_inducibility_detects_singleton_escape():
    # an exact envelope answers from exponents, so forged elements go into an
    # approximate envelope of the finite hyper model, which tests its images
    ident = spaces.load_example("identity", n=3)
    hyper = hyperspace.build_hyper_model(ident, 2)
    env = approx_envelope(hyper, 2, hyper.resolution / 2, "forward")
    # forge an element sending a singleton to a pair
    forged = envelope.MapSample("forged", np.full(hyper.n_points, hyper.n_points - 1,
                                                  dtype=np.int64), 0)
    env.elements.append(forged)
    rep = inducibility_check(env, len(env.elements) - 1)
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


@pytest.mark.parametrize("name", sorted(n for n, (_, c) in THETA_CASES.items() if c is None))
def test_closed_form_identity_isolation_matches_exponent_loop_on_catalog(name):
    # oracle: the per-exponent loop that an explicit tau still runs
    model = spaces.load_example(name, **THETA_CASES[name][0])
    for carrier in (model, hyperspace.build_hyper_model(model, 2)):
        env = exact_envelope(carrier)
        assert identity_isolated(env) == identity_isolated(env, carrier.resolution)


@given(st.data())
def test_closed_form_identity_isolation_matches_exponent_loop_on_random_maps(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        model = finite(perm, np.argsort(perm))
    else:
        model = finite(data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                          min_size=n, max_size=n)))
    env = exact_envelope(model)
    assert identity_isolated(env) == identity_isolated(env, model.resolution)


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
    rep = theta_check(base_env, hyper_env)
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
        assert inducibility_check(hyper_env, i) == \
            set_based_inducibility(hyper_env, hyper, i), i


def test_inducibility_matches_set_oracle_on_forged_finite_elements():
    ident = spaces.load_example("identity", n=5)
    hyper = hyperspace.build_hyper_model(ident, 3)
    env = approx_envelope(hyper, 2, hyper.resolution / 2, "forward")
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
    results = [inducibility_check(env, i) for i in range(len(env.elements))]
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
    if env.table[env.exponent_map[1], fwd] != fwd:
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
