import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ellis import algebra, cli, envelope, hyperspace, properties, spaces
from ellis.algebra import (
    FiniteSemigroup,
    TableError,
    ideal_isomorphism_check,
    idempotents,
    is_group_distal,
    kernel_and_groups,
    minimal_left_ideals,
    periodic_element_analysis,
    proximal_structure,
    recurrent_idempotent_check,
    run_equivalence_corpus,
)


def cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteSemigroup(np.asarray(table), identity=0, generator=1 % n)


def finite(table, inverse=None):
    n = len(table)
    coords = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    return spaces.FiniteModel(
        "m", {}, coords,
        lambda a, b, c=coords: np.abs(c[np.asarray(a)] - c[np.asarray(b)]),
        table, inverse, "interval")


def test_table_validation():
    with pytest.raises(TableError):
        FiniteSemigroup(np.asarray([[0, 1], [2, 0]]))  # not closed
    with pytest.raises(TableError):
        # left-zero bands are associative; this scrambled table is not
        FiniteSemigroup(np.asarray([[1, 0], [0, 0]]))


def test_strict_table_refuses_a_wrong_identity_or_generator():
    z3 = np.add.outer(np.arange(3), np.arange(3)) % 3
    for kwargs in ({"identity": 9}, {"identity": -1}, {"identity": 1.5}, {"identity": 1.0},
                   {"generator": 3}, {"identity": 1}, {"identity": 2, "generator": 1}):
        with pytest.raises(TableError):
            FiniteSemigroup(z3, **kwargs)
        # approximate tables stay in report mode
        assert FiniteSemigroup(z3, source="approx", **kwargs).size == 3
    assert FiniteSemigroup(z3, identity=0, generator=2).identity == 0


def corrupted_cyclic(n, seed):
    # Z/n addition with one cell moved to another element
    rng = np.random.default_rng(seed)
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    i, j = rng.integers(0, n, 2)
    table[i, j] = (table[i, j] + rng.integers(1, n)) % n
    return table


def test_strict_table_with_one_corrupted_cell_is_refused():
    # a sample of 4096 of the 8,000,000 triples misses the corrupted cell
    # in most trials; a strict table checks every triple
    for seed in range(50):
        table = corrupted_cyclic(200, seed)
        with pytest.raises(TableError, match="associativity violations in a strict table"):
            FiniteSemigroup(table, source="exact")
        assert FiniteSemigroup(table, source="approx").size == 200
    assert FiniteSemigroup(np.add.outer(np.arange(200), np.arange(200)) % 200,
                           source="exact").associativity_violations == 0


def test_strict_table_over_the_cell_budget_cube_is_refused_by_size():
    # 513**3 triples exceed CELL_BUDGET = 2**27 = 512**3; one row block of
    # the check would take 6 MB
    n = 513
    table = np.zeros((n, n), dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(spaces.EnvelopeBudgetError,
                           match=f"{n}-element table needs {n ** 3} cells"):
            FiniteSemigroup(table, source="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_idempotents_examples():
    assert idempotents(cyclic(3)) == [0]
    ef = FiniteSemigroup(np.asarray([[0, 1], [1, 1]]), identity=0, generator=1)
    assert idempotents(ef) == [0, 1]


def test_minimal_left_ideals_cyclic_group():
    assert minimal_left_ideals(cyclic(4)) == [(0, 1, 2, 3)]


def test_minimal_left_ideals_constant_envelope():
    env = envelope.exact_envelope(finite([0, 0, 0]))
    assert minimal_left_ideals(env.semigroup) == [(1,)]


def test_kernel_and_groups_examples():
    dec = kernel_and_groups(cyclic(3))
    assert dec.kernel == (0, 1, 2)
    assert dec.partition_ok and dec.groups_ok and dec.ideals_have_idempotents

    ef = FiniteSemigroup(np.asarray([[0, 1], [1, 1]]), identity=0, generator=1)
    dec2 = kernel_and_groups(ef)
    assert dec2.kernel == (1,)
    assert dec2.groups[((1,), 1)] == (1,)


def test_kernel_periodic_stack():
    m = spaces.load_example("periodic-stack", n=3, truncate=12)
    env = envelope.exact_envelope(m)
    sg = env.semigroup
    dec = kernel_and_groups(sg)
    assert len(dec.minimal_left_ideals) == 1
    ideal = dec.minimal_left_ideals[0]
    assert len(ideal) == 3          # the orbit of the period-3 idempotent
    assert dec.partition_ok and dec.groups_ok
    v = dec.idempotents_per_ideal[0][0]
    assert dec.groups[(ideal, v)] == ideal  # vI is the whole 3-element group


def test_ideal_isomorphism_trivial_and_orientations():
    sg = cyclic(5)
    ideal = minimal_left_ideals(sg)[0]
    rep = ideal_isomorphism_check(sg, ideal, ideal)
    assert rep["isomorphic"]
    assert rep["pairing"]["u"] == rep["pairing"]["v"]


def test_is_group_distal():
    gd = is_group_distal(cyclic(3))
    assert gd["is_group"] and gd["unique_idempotent_is_identity"] and gd["agree"]
    ef = FiniteSemigroup(np.asarray([[0, 1], [1, 1]]), identity=0, generator=1)
    gd2 = is_group_distal(ef)
    assert not gd2["is_group"] and not gd2["unique_idempotent_is_identity"] and gd2["agree"]


def test_proximal_structure_rotation_distal():
    rot = spaces.load_example("irrational-rotation", grid=18)
    env = envelope.exact_envelope(rot)
    rep = proximal_structure(env)
    assert rep["pair_count"] == 0
    assert rep["ideal_count"] == 1
    assert rep["is_equivalence"] and rep["theorem_er_consistent"]


def test_proximal_structure_square_map():
    sq = spaces.load_example("square-map", grid=101)
    env = envelope.approx_envelope(sq, 40, 1e-3, "two-sided")
    rep = proximal_structure(env)
    # the forward limit collapses the interior, the backward limit the
    # upper half-open interval: proximality is not transitive, two ideals
    assert rep["ideal_count"] == 2
    assert not rep["is_equivalence"]
    assert rep["theorem_er_consistent"]
    assert rep["pair_count"] > 0


def test_proximal_structure_isolated_ones():
    m = spaces.load_example("isolated-ones-subshift", truncate=8)
    env = envelope.exact_envelope(m)
    rep = proximal_structure(env)
    # the constant limit collapses every pair: one ideal, full relation
    assert rep["ideal_count"] == 1
    n = m.n_points
    assert rep["pair_count"] == n * (n - 1) // 2
    assert rep["is_equivalence"] and rep["theorem_er_consistent"]


def test_periodic_element_analysis_examples():
    m = spaces.load_example("periodic-stack", n=3, truncate=12)
    env = envelope.exact_envelope(m)
    rep = periodic_element_analysis(env)
    assert rep["all_periods_equal"] and rep["common_period"] == 3
    assert rep["count"] == 3 and rep["count_bound_ok"]
    assert all(rep["orbit_is_minimal_ideal"].values())

    sq = spaces.load_example("square-map", grid=201)
    env_sq = envelope.approx_envelope(sq, 40, 1e-3, "two-sided")
    rep_sq = periodic_element_analysis(env_sq)
    assert rep_sq["common_period"] == 1
    assert set(rep_sq["periodic_elements"]) == set(env_sq.limit_elements)

    cyc_env = envelope.exact_envelope(finite([1, 2, 0], [2, 0, 1]))
    rep_c = periodic_element_analysis(cyc_env)
    assert rep_c["count"] == 3 and rep_c["common_period"] == 3
    assert rep_c["count_bound_ok"]


def test_recurrent_idempotents():
    sq = spaces.load_example("square-map", grid=201)
    env = envelope.approx_envelope(sq, 40, 1e-3, "two-sided")
    rep = recurrent_idempotent_check(env)
    assert rep["all_required_recurrent"]
    assert rep["identity_exempt"]  # e is isolated here
    lims = set(env.limit_elements)
    assert all(rep["witnesses"][u] == 1 for u in rep["witnesses"] if u in lims)

    ident_env = envelope.exact_envelope(finite([0, 1, 2], [0, 1, 2]))
    rep2 = recurrent_idempotent_check(ident_env)
    assert rep2["witnesses"] == {0: 1}

    stack = spaces.load_example("periodic-stack", n=2, truncate=10)
    env3 = envelope.exact_envelope(stack)
    rep3 = recurrent_idempotent_check(env3)
    non_identity = {u: w for u, w in rep3["witnesses"].items() if u != 0}
    assert list(non_identity.values()) == [2]


def test_semigroup_json_roundtrip():
    sg = cyclic(4)
    doc = sg.to_json()
    back = FiniteSemigroup.from_json(doc)
    assert np.array_equal(back.table, sg.table)
    assert back.identity == 0 and back.generator == 1


def test_equivalence_corpus_small():
    rep = run_equivalence_corpus(count=80, max_points=7, seed=3)
    assert rep["ok"], rep["violations"]


# -- brute-force oracles for the closed forms --------------------------------


def brute_minimal_left_ideals(t):
    principal = [frozenset(int(v) for v in t[:, a]) | {a} for a in range(len(t))]
    minimal = {p for p in principal if not any(q < p for q in principal)}
    return sorted((tuple(sorted(p)) for p in minimal), key=lambda x: (len(x), x))


def brute_is_group_on(t, members, identity):
    mset = set(members)
    return all(
        t[identity, g] == g and t[g, identity] == g
        and all(int(t[g, h]) in mset for h in members)
        and any(t[g, h] == identity and t[h, g] == identity for h in members)
        for g in members)


def generator_orbit(t, gen, start):
    # walk start, g.start, g.g.start, ... until a repeat; report where it re-enters
    orbit, cur = [start], start
    while True:
        cur = int(t[gen, cur])
        if cur in orbit:
            return orbit, orbit.index(cur)
        orbit.append(cur)


def brute_periodic_analysis(s):
    ideals = {frozenset(i) for i in brute_minimal_left_ideals(s.table)}
    periods, minimal = {}, {}
    for p in range(s.size):
        orbit, entry = generator_orbit(s.table, s.generator, p)
        if entry == 0:
            periods[p] = len(orbit)
            minimal[p] = frozenset(orbit) in ideals
    distinct = sorted(set(periods.values()))
    return {
        "periodic_elements": sorted(periods),
        "least_periods": periods,
        "all_periods_equal": len(distinct) <= 1,
        "common_period": math.lcm(*distinct),
        "orbit_is_minimal_ideal": minimal,
        "count_bound_ok": len(periods) <= 2 * max(distinct),
        "count": len(periods),
    }


def brute_witnesses(s, horizon):
    out = {}
    for u in idempotents(s):
        cur, out[u] = u, None
        for k in range(1, horizon + 1):
            cur = int(s.table[s.generator, cur])
            if cur == u:
                out[u] = k
                break
    return out


def check_envelope_against_orbit_loops(env):
    s = env.semigroup
    rep = periodic_element_analysis(env)
    assert rep == brute_periodic_analysis(s)
    json.dumps(rep)                  # plain Python types only
    for horizon in (None, 1, 2, 3):
        rep = recurrent_idempotent_check(env, horizon)
        assert rep["witnesses"] == brute_witnesses(s, horizon or s.size + 1)
        json.dumps(rep)


random_maps = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))


@given(random_maps)
def test_periodic_and_recurrent_match_orbit_loops_on_exact_envelopes(table):
    check_envelope_against_orbit_loops(envelope.exact_envelope(finite(table)))


@pytest.mark.parametrize("name", ["square-map", "neg-cube"])
def test_periodic_and_recurrent_match_orbit_loops_on_approx_envelopes(name):
    model = spaces.load_example(name, grid=201)
    check_envelope_against_orbit_loops(envelope.approx_envelope(model, 40, 1e-3, "two-sided"))


random_tables = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=0, max_value=n - 1),
                                min_size=n, max_size=n), min_size=n, max_size=n))


@given(random_tables, st.data())
def test_ideals_and_groups_match_set_versions_on_random_tables(rows, data):
    s = FiniteSemigroup(np.asarray(rows), source="approx")   # may be non-associative
    t = s.table
    assert minimal_left_ideals(s) == brute_minimal_left_ideals(t)
    members = data.draw(st.lists(st.integers(min_value=0, max_value=s.size - 1),
                                 unique=True, max_size=s.size))
    identity = data.draw(st.integers(min_value=0, max_value=s.size - 1))
    assert algebra._is_group_on(t, members, identity) == brute_is_group_on(t, members, identity)


@given(st.integers(min_value=1, max_value=5).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(*[st.integers(min_value=0, max_value=k - 1)] * 3),
                         max_size=3))), st.integers(min_value=0, max_value=4))
# a left identity that is not a right one; one-sided inverses only
@example((2, [(1, 0, 0)]), 0)
@example((3, [(1, 1, 1), (1, 2, 0), (2, 1, 1), (2, 2, 0)]), 0)
def test_group_check_matches_set_version_on_near_groups(group, identity):
    # Z_k with a few cells rewritten inside it, so each condition can fail alone
    k, cells = group
    t = np.add.outer(np.arange(k), np.arange(k)) % k
    for i, j, v in cells:
        t[i, j] = v
    members = list(range(k))
    assert algebra._is_group_on(t, members, identity % k) == \
        brute_is_group_on(t, members, identity % k)


@given(random_maps)
def test_ideals_and_groups_match_set_versions_on_exact_envelopes(table):
    s = envelope.exact_envelope(finite(table)).semigroup
    assert minimal_left_ideals(s) == brute_minimal_left_ideals(s.table)
    for (_, v), members in kernel_and_groups(s).groups.items():
        assert algebra._is_group_on(s.table, members, v)
        assert brute_is_group_on(s.table, members, v)


# -- the closed-form monogenic monoid against the generic table path ---------


def generic_semigroup(env):
    return FiniteSemigroup(env.table, env.identity_index, env.generator_index, "exact")


def check_monoid_against_generic(env):
    monoid, s = env.semigroup, generic_semigroup(env)
    assert isinstance(monoid, algebra.MonogenicMonoid)
    assert (monoid.index, monoid.period, monoid.size) == (env.index, env.period, s.size)
    assert idempotents(monoid) == idempotents(s)
    assert minimal_left_ideals(monoid) == minimal_left_ideals(s)
    assert kernel_and_groups(monoid) == kernel_and_groups(s)
    closed = [periodic_element_analysis(env)]
    closed += [recurrent_idempotent_check(env, h) for h in (None, 1, 2, 3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(env, "semigroup", s)
        generic = [periodic_element_analysis(env)]
        generic += [recurrent_idempotent_check(env, h) for h in (None, 1, 2, 3)]
    assert closed == generic


maps_up_to_9 = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.one_of(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
        st.permutations(list(range(n))),
        st.integers(min_value=0, max_value=n - 1).map(lambda c: [c] * n)))


@given(maps_up_to_9)
@example([0])
@example([0, 0, 0])
@example([1, 2, 0])
def test_monogenic_monoid_matches_generic_path_on_random_maps(table):
    inverse = np.argsort(table) if sorted(table) == list(range(len(table))) else None
    check_monoid_against_generic(envelope.exact_envelope(finite(table, inverse)))


# small parameters for every catalog model with an exact map table
FINITE_CASES = {
    "identity": {"n": 5},
    "irrational-rotation": {"grid": 12},
    "double-circle-rotation": {"grid": 8},
    "dyadic-circle-stack": {"levels": 3, "mult": 2},
    "dyadic-circle-stack-inward": {"levels": 3, "mult": 2},
    "triadic-circle-stack": {"levels": 2, "mult": 1},
    "periodic-stack": {"n": 2, "truncate": 6},
    "periodic-union": {"n": 3, "truncate": 4},
    "isolated-ones-subshift": {"truncate": 6},
}


def test_finite_cases_cover_the_catalog():
    exact = {name for name in spaces.CATALOG
             if getattr(spaces.load_example(name), "map_table", None) is not None}
    assert set(FINITE_CASES) == exact


@pytest.mark.parametrize("name", sorted(FINITE_CASES))
def test_monogenic_monoid_matches_generic_path_on_catalog(name):
    model = spaces.load_example(name, **FINITE_CASES[name])
    for carrier in (model, hyperspace.build_hyper_model(model, 2)):
        check_monoid_against_generic(envelope.exact_envelope(carrier))


def test_monogenic_monoid_closed_forms():
    # index 5, period 3: f^6 is the kernel's identity, f^0 the monoid's
    m = algebra.MonogenicMonoid(5, 3)
    assert (m.size, m.generator, m.cycle_idempotent) == (8, 1, 6)
    assert idempotents(m) == [0, 6]
    assert minimal_left_ideals(m) == [(5, 6, 7)]
    assert m.table[7].tolist() == [7, 5, 6, 7, 5, 6, 7, 5]
    assert idempotents(algebra.MonogenicMonoid(0, 1)) == [0]
    assert algebra.MonogenicMonoid(0, 1).generator == 0


@pytest.mark.parametrize("kwargs", [{"max_points": 1}, {"max_points": 0}, {"max_points": -1},
                                    {"max_points": 2.5}, {"count": -1}, {"count": math.nan}])
def test_equivalence_corpus_refuses_too_few_points_and_a_negative_count(kwargs):
    # unchecked, max_points below 2 failed inside numpy with "low >= high"
    with pytest.raises(spaces.InvalidParameterError, match="is not an integer >="):
        algebra.run_equivalence_corpus(**{"count": 4, **kwargs})


def test_periodic_union_12_pipeline_reads_no_maps_and_no_table():
    # its maps alone would be 27921 x 15756 int64 cells, 3.5 GB
    cfg = {"model": {"name": "periodic-union", "params": {"n": 12}}, "pipeline": [
        {"op": op} for op in ("exact_envelope", "periodic_elements",
                              "recurrent_idempotents", "kernel_and_groups")]}
    tracemalloc.start()
    try:
        report, _ = cli.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["summary"]["ok"], report["steps"]
    assert peak < 64 * 2**20
    kernel = report["steps"][3]["result"]
    assert (kernel["kernel"][0], len(kernel["kernel"])) == (201, 27720)
    assert kernel["idempotents_per_ideal"] == [[27720]]
    assert report["steps"][1]["result"]["common_period"] == 27720


def test_periodic_union_12_group_and_proximal_tests_answer_in_closed_form():
    # is_group_distal was refused before, for 27921**2 table cells
    cfg = {"model": {"name": "periodic-union", "params": {"n": 12}}, "pipeline": [
        {"op": op} for op in ("exact_envelope", "is_group_distal", "proximal_structure")]}
    tracemalloc.start()
    try:
        report, _ = cli.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["summary"]["ok"], report["steps"]
    assert peak < 64 * 2**20
    assert report["steps"][1]["result"] == {
        "is_group": False, "unique_idempotent_is_identity": False, "agree": True}
    prox = report["steps"][2]["result"]
    assert prox["pair_count"] == 1_583_478
    assert prox["per_ideal_pair_counts"] == [1_583_478]


# -- proximality and the group test against the loops they replaced ----------


def collapse_proximal_structure(env):
    # oracle: one N x N collapse matrix per element, with the minimal ideals
    # of the generic table path
    model = env.model
    n = model.n_points
    exact = isinstance(env, envelope.ExactEnvelope)
    s = generic_semigroup(env) if exact else env.semigroup
    collapse = []
    for el in env.elements:
        left = model.apply_to_indices(el.images, np.repeat(np.arange(n), n))
        right = model.apply_to_indices(el.images, np.tile(np.arange(n), n))
        collapse.append(model.image_pair_dist(left, right).reshape(n, n) <= env.tau)
    off = ~np.eye(n, dtype=bool)
    prox = np.logical_or.reduce(collapse)
    ideals = minimal_left_ideals(s)
    relations = [np.logical_and.reduce([collapse[e] for e in ideal]) for ideal in ideals]
    closed = prox | ~off
    transitive = not ((closed @ closed) & ~closed).any()
    return {
        "pair_count": int(prox[off].sum()) // 2,
        "ideal_count": len(ideals),
        "per_ideal_pair_counts": [int(r[off].sum()) // 2 for r in relations],
        "is_equivalence": bool(transitive),
        "theorem_er_consistent": bool((len(ideals) == 1) == transitive),
        "finitely_proximal": True,
    }


@given(maps_up_to_9)
@example([0])
@example([0, 0, 0])
@example([1, 2, 0])
def test_proximal_closed_form_matches_collapse_loop_on_random_maps(table):
    inverse = np.argsort(table) if sorted(table) == list(range(len(table))) else None
    model = finite(table, inverse)
    env = envelope.exact_envelope(model)
    assert proximal_structure(env) == collapse_proximal_structure(env)


# smaller bases for the k = 2 hyperspaces, where the oracle holds N**2 pairs
# per element
SMALL_HYPER_BASES = {
    "dyadic-circle-stack": {"levels": 2, "mult": 2},
    "dyadic-circle-stack-inward": {"levels": 2, "mult": 2},
    "periodic-union": {"n": 3, "truncate": 1},
}


@pytest.mark.parametrize("name", sorted(FINITE_CASES))
def test_proximal_closed_form_matches_collapse_loop_on_catalog(name):
    model = spaces.load_example(name, **FINITE_CASES[name])
    base = spaces.load_example(name, **SMALL_HYPER_BASES.get(name, FINITE_CASES[name]))
    for carrier in (model, hyperspace.build_hyper_model(base, 2)):
        env = envelope.exact_envelope(carrier)
        assert proximal_structure(env) == collapse_proximal_structure(env)


@pytest.mark.parametrize("name", ["square-map", "neg-cube"])
def test_approximate_proximal_structure_is_the_collapse_loop(name):
    model = spaces.load_example(name, grid=101)
    env = envelope.approx_envelope(model, 40, 1e-3, "two-sided")
    assert proximal_structure(env) == collapse_proximal_structure(env)


def test_approximate_proximal_structure_is_refused_over_the_cell_budget():
    sq = spaces.load_example("square-map", grid=100001)
    env = envelope.approx_envelope(sq, 4, 1e-3, "two-sided", close_table=False)
    start = time.perf_counter()
    with pytest.raises(envelope.EnvelopeBudgetError, match="proximal relation"):
        proximal_structure(env)
    assert time.perf_counter() - start < 1.0


def loop_is_group_distal(s):
    # oracle: the row loop, with two sorts per row
    t, n = s.table, s.size
    idem = idempotents(s)
    has_identity = s.identity is not None
    is_group = has_identity
    if has_identity:
        target = np.arange(n)
        for i in range(n):
            if not (np.array_equal(np.sort(t[i]), target)
                    and np.array_equal(np.sort(t[:, i]), target)):
                is_group = False
                break
    unique = len(idem) == 1 and has_identity and idem[0] == s.identity
    return {"is_group": bool(is_group), "unique_idempotent_is_identity": bool(unique),
            "agree": bool(is_group == unique)}


# Latin squares, so that the group test can pass: Z_n relabelled on rows,
# columns and values
latin_tables = st.integers(min_value=1, max_value=7).flatmap(lambda n: st.tuples(
    *[st.permutations(list(range(n)))] * 3)).map(
    lambda p: np.asarray(p[2])[np.add.outer(p[0], p[1]) % len(p[0])].tolist())


@given(st.one_of(random_tables, latin_tables),
       st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
@example([[0, 1], [1, 0]], None)
def test_is_group_distal_matches_row_loop_on_tables(rows, identity):
    identity = None if identity is None else identity % len(rows)
    s = FiniteSemigroup(np.asarray(rows), identity, source="approx")
    assert is_group_distal(s) == loop_is_group_distal(s)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=12))
def test_is_group_distal_on_monoids_matches_row_loop(index, period):
    m = algebra.MonogenicMonoid(index, period)
    got = is_group_distal(m)
    assert "table" not in m.__dict__             # answered without the table
    assert got == loop_is_group_distal(FiniteSemigroup(m.table, 0, m.generator, "exact"))


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=12))
@example(0, 1)
def test_ideal_isomorphism_on_monoids_matches_the_table_path(index, period):
    m = algebra.MonogenicMonoid(index, period)
    got = ideal_isomorphism_check(m, m.kernel, m.kernel)
    assert "table" not in m.__dict__             # answered without the table
    assert got == ideal_isomorphism_check(FiniteSemigroup(m.table, 0, m.generator, "exact"),
                                          m.kernel, m.kernel)
    assert got["isomorphic"] and got["pairing"]["u"] == m.cycle_idempotent


def test_ideal_isomorphism_on_a_monoid_reads_other_member_lists_off_the_table():
    m = algebra.MonogenicMonoid(3, 4)
    s = FiniteSemigroup(m.table, 0, m.generator, "exact")
    for ideal_i, ideal_k in [((0,), (0,)), (m.kernel, (3, 4)), (tuple(range(m.size)), m.kernel)]:
        assert ideal_isomorphism_check(m, ideal_i, ideal_k) == ideal_isomorphism_check(
            s, ideal_i, ideal_k)


def test_ideal_isomorphism_op_answers_on_periodic_union_12():
    # 27,921 elements: the table would hold 779,582,241 cells
    report, _ = cli.run_experiment({"seed": 0, "model": {"name": "periodic-union", "params": {"n": 12}},
                                    "pipeline": [{"op": "exact_envelope", "params": {}},
                                                 {"op": "ideal_isomorphism", "params": {"i": 0, "k": 0}}]})
    assert report["summary"]["ok"]
    assert report["steps"][1]["result"]["isomorphic"] is True


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_equivalence_corpus_at_three_seeds(seed):
    assert run_equivalence_corpus(500, 8, seed) == {"count": 500, "violations": [], "ok": True}


def reference_equivalence_corpus(count, max_points, seed):
    # oracle: every check on every model, the corpus before it ran the
    # monoid's checks once per (index, period); module lookups, so that
    # injected faults reach it as they reach the corpus
    rng = np.random.default_rng(seed)
    violations = []
    for trial in range(count):
        n = int(rng.integers(2, max_points + 1))
        invertible = bool(rng.random() < 0.5)
        if invertible:
            table = rng.permutation(n)
            inverse = np.argsort(table)
        else:
            table = rng.integers(0, n, n)
            inverse = np.argsort(table) if sorted(table) == list(range(n)) else None
        coords = np.linspace(0.0, 1.0, n)

        def dist(a, b, coords=coords):
            return np.abs(coords[np.asarray(a)] - coords[np.asarray(b)])

        model = spaces.FiniteModel(f"corpus-{trial}", {"seed": seed}, coords, dist,
                                   table, inverse, "interval")
        env = envelope.exact_envelope(model)
        s = generic_semigroup(env)
        idem = algebra.idempotents(s)
        ideals = algebra.minimal_left_ideals(s)
        if not idem:
            violations.append((trial, "nakamura"))
        monoid = env.semigroup
        if idem != algebra.idempotents(monoid) or ideals != algebra.minimal_left_ideals(monoid):
            violations.append((trial, "monogenic-closed-form"))
        gd = algebra.is_group_distal(s)
        prox = algebra.proximal_structure(env)
        no_pairs = prox["pair_count"] == 0
        if not (gd["is_group"] == gd["unique_idempotent_is_identity"] == no_pairs):
            violations.append((trial, "distal-equivalences"))
        if (len(ideals) == 1) != prox["is_equivalence"]:
            violations.append((trial, "unique-ideal-vs-transitivity"))
        for a in range(len(ideals)):
            for b in range(len(ideals)):
                if not algebra.ideal_isomorphism_check(s, ideals[a], ideals[b])["isomorphic"]:
                    violations.append((trial, f"ideal-isomorphism-{a}-{b}"))
        for pn in (2, 3):
            if not envelope.envelope_power_decomposition(env, pn)["equal"]:
                violations.append((trial, f"power-decomposition-{pn}"))
        if no_pairs and not properties.distal_semiflow_check(env)["consequences_hold"]:
            violations.append((trial, "distal-semiflow-consequences"))
    return {"count": count, "violations": violations, "ok": not violations}


CORPUS_SIZES = [(500, 8), (300, 12)]


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("count,max_points", CORPUS_SIZES)
def test_equivalence_corpus_matches_the_per_model_loop(seed, count, max_points):
    assert run_equivalence_corpus(count, max_points, seed) == reference_equivalence_corpus(
        count, max_points, seed)


def _split_ideal_of_size(size):
    # a generic path that splits the kernel of every strict table of one size
    real = algebra.minimal_left_ideals

    def faulty(s):
        ideals = real(s)
        if isinstance(s, FiniteSemigroup) and s.size == size and len(ideals[0]) > 1:
            return [ideals[0][:1], ideals[0][1:]] + ideals[1:]
        return ideals
    return faulty


def _reject_cross_pairs(s, ideal_i, ideal_k):
    # distinct ideals are never isomorphic, and a kernel of odd order not
    # isomorphic to itself
    if tuple(ideal_i) != tuple(ideal_k) or len(ideal_i) % 2:
        return {"isomorphic": False, "reason": "injected"}
    return {"isomorphic": True}


def _fail_power_decomposition(real):
    def faulty(env, n):
        rep = real(env, n)
        return {**rep, "equal": False} if env.period % n == 0 else rep
    return faulty


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("fault", ["minimal_left_ideals", "ideal_isomorphism_check",
                                   "envelope_power_decomposition"])
def test_equivalence_corpus_matches_the_per_model_loop_under_faults(monkeypatch, fault, seed):
    if fault == "minimal_left_ideals":
        monkeypatch.setattr(algebra, fault, _split_ideal_of_size(4))
        monkeypatch.setattr(algebra, "ideal_isomorphism_check", _reject_cross_pairs)
    elif fault == "ideal_isomorphism_check":
        monkeypatch.setattr(algebra, fault, _reject_cross_pairs)
    else:
        monkeypatch.setattr(envelope, fault,
                            _fail_power_decomposition(envelope.envelope_power_decomposition))
    got = run_equivalence_corpus(300, 8, seed)
    assert not got["ok"]
    assert got == reference_equivalence_corpus(300, 8, seed)


def test_equivalence_corpus_runs_the_generic_oracle_once_per_monoid(monkeypatch):
    monoids, generic_calls = [], {"minimal_left_ideals": 0, "is_group_distal": 0,
                                  "ideal_isomorphism_check": 0}
    real_envelope = envelope.exact_envelope

    def recording_envelope(model):
        env = real_envelope(model)
        monoids.append((env.index, env.period))
        return env
    monkeypatch.setattr(envelope, "exact_envelope", recording_envelope)
    for name in generic_calls:
        def counting(s, *args, _real=getattr(algebra, name), _name=name):
            if isinstance(s, FiniteSemigroup):
                generic_calls[_name] += 1
            return _real(s, *args)
        monkeypatch.setattr(algebra, name, counting)
    assert run_equivalence_corpus(500, 8, 41)["ok"]
    distinct = len(set(monoids))
    assert len(monoids) == 500 and distinct < 50
    # each monoid's one minimal ideal pairs with itself once
    assert generic_calls == {"minimal_left_ideals": distinct, "is_group_distal": distinct,
                             "ideal_isomorphism_check": distinct}


def test_equivalence_corpus_cross_checks_the_closed_form(monkeypatch):
    # the generic path's one ideal against a closed form that says otherwise
    real = algebra.proximal_structure
    monkeypatch.setattr(algebra, "proximal_structure",
                        lambda env: {**real(env), "is_equivalence": False})
    rep = run_equivalence_corpus(count=5, max_points=4, seed=1)
    assert [v[1] for v in rep["violations"]] == ["unique-ideal-vs-transitivity"] * 5


# -- equivariance of the ideal isomorphism against the double loop ------------


def check_ideal_isomorphism_against_loop(s, ideal_i, ideal_k):
    rep = ideal_isomorphism_check(s, ideal_i, ideal_k)
    if "pairing" not in rep:
        return
    t, v = s.table, rep["pairing"]["v"]
    loop = [(sdx, p) for sdx in range(s.size) for p in ideal_i
            if t[t[sdx, p], v] != t[sdx, t[p, v]]]
    assert rep["equivariance_violations"] == loop
    assert rep["isomorphic"] == (rep["bijective"] and not loop)
    json.dumps(rep)                  # plain Python types only


@given(maps_up_to_9)
def test_ideal_isomorphism_matches_loop_on_corpus_models(table):
    # the equivalence corpus checks every pair of ideals of the strict table
    s = generic_semigroup(envelope.exact_envelope(finite(table)))
    ideals = minimal_left_ideals(s)
    for a in ideals:
        for b in ideals:
            check_ideal_isomorphism_against_loop(s, a, b)


@given(random_tables, st.data())
def test_ideal_isomorphism_matches_loop_on_random_tables(rows, data):
    # any member lists, so that equivariance can fail
    s = FiniteSemigroup(np.asarray(rows), source="approx")
    members = st.lists(st.integers(min_value=0, max_value=s.size - 1), max_size=s.size)
    check_ideal_isomorphism_against_loop(s, data.draw(members), data.draw(members))
