import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellis import envelope, hyperspace, properties, spaces
from ellis.hyperspace import (
    HyperBudgetError,
    build_hyper_model,
    canonical,
    hausdorff_distance,
)


def brute_hausdorff(d, a, b):
    # independent oracle: direct sup-min over member pairs under the metric d
    fwd = max(min(d(x, y) for y in b) for x in a)
    bwd = max(min(d(x, y) for x in a) for y in b)
    return max(fwd, bwd)


@pytest.fixture(scope="module")
def grid11():
    return spaces.load_example("square-map", grid=11)


def test_hausdorff_identity_and_singletons(grid11):
    assert hausdorff_distance(grid11, (1, 5), (1, 5)) == 0.0
    assert hausdorff_distance(grid11, (2,), (7,)) == pytest.approx(grid11.metric(2, 7))


def test_hausdorff_refuses_point_ids_outside_the_sample():
    # unchecked, -1 read as point 11 of rotation grid 12
    rot = spaces.load_example("irrational-rotation", grid=12)
    for bad in (-1, 12, 2.5):
        for a, b in (((bad,), (2,)), ((2,), (0, bad))):
            with pytest.raises(spaces.InvalidParameterError,
                               match=rf"point={bad} is not an integer in \[0, 12\)"):
                hausdorff_distance(rot, a, b)
    assert hausdorff_distance(rot, (11,), (2,)) == rot.metric(11, 2)


def test_hausdorff_prescribed_example():
    # A = {0, 1}, B = {0, 0.5, 1} on [0,1]: the oracle is authoritative and
    # gives 0.5 (the point 0.5 sits at distance 0.5 from A)
    m = spaces.load_example("square-map", grid=3)
    value = hausdorff_distance(m, (0, 2), (0, 1, 2))
    assert value == pytest.approx(brute_hausdorff(m.metric, (0, 2), (0, 1, 2)))
    assert value == pytest.approx(0.5)


def test_hausdorff_matches_brute_force(grid11):
    rng = np.random.default_rng(1)
    for _ in range(60):
        a = tuple(sorted(set(rng.integers(0, 11, rng.integers(1, 4)).tolist())))
        b = tuple(sorted(set(rng.integers(0, 11, rng.integers(1, 4)).tolist())))
        assert hausdorff_distance(grid11, a, b) == pytest.approx(brute_hausdorff(grid11.metric, a, b))


def test_empty_set_rejected(grid11):
    with pytest.raises(spaces.InvalidParameterError):
        hausdorff_distance(grid11, (), (1,))


def test_triangle_inequality_exhaustive_small():
    m = spaces.load_example("identity", n=4)
    hyper = build_hyper_model(m, 3)
    pts = hyper.hyperpoints
    dist = {}
    for a, b in itertools.product(pts, pts):
        dist[(a, b)] = hausdorff_distance(m, a, b)
    for a, b, c in itertools.product(pts, repeat=3):
        assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)] + 1e-12


def test_singleton_embedding_isometric(grid11):
    for x in range(11):
        for y in range(11):
            assert hausdorff_distance(grid11, (x,), (y,)) == pytest.approx(grid11.metric(x, y))


def test_convergent_inclusions_force_inclusion():
    # finite shadow of the limit fact: H(A_i, A) -> 0 on a finite carrier
    # means A_i = A eventually, so inclusions pass to the limit
    m = spaces.load_example("identity", n=6)
    a_seq = [(0, 3), (0, 3), (0, 3)]
    b_seq = [(0, 3, 5), (0, 3, 5), (0, 3, 5)]
    for ai, bi in zip(a_seq, b_seq):
        assert set(ai) <= set(bi)
    assert hausdorff_distance(m, a_seq[-1], a_seq[-2]) == 0.0
    assert set(a_seq[-1]) <= set(b_seq[-1])


def test_build_counts():
    m3 = spaces.load_example("identity", n=3)
    assert build_hyper_model(m3, 3).n_points == 7  # 2^3 - 1
    m4 = spaces.load_example("identity", n=4)
    hyper = build_hyper_model(m4, 2)
    assert hyper.n_points == 10
    assert np.array_equal(hyper.map_table, np.arange(10))


def test_budget_error():
    m = spaces.load_example("square-map", grid=101)
    with pytest.raises(HyperBudgetError):
        build_hyper_model(m, 3, budget=1000)


def test_window_base_is_refused():
    # neither hyperspace carrier can hold window images; refuse at build time
    window = spaces.sample_window_model(count=5, radius=3)
    with pytest.raises(spaces.InvalidParameterError, match="window carrier"):
        build_hyper_model(window, 2)


def induced_step(hyper, a):
    # the carrier's own step: the snapped first iterate, which over a finite
    # base is the induced map table
    (i,) = hyper.hyper_ids([canonical(a)])
    img = hyper.apply_to_indices(hyper.iterate_images(1), [i])
    return tuple(hyper.point_data(int(hyper.snap_images(img)[0][0])))


def test_induced_step_examples():
    ident = spaces.load_example("identity", n=4)
    hyper = build_hyper_model(ident, 2)
    assert induced_step(hyper, (1, 3)) == (1, 3)

    sq = spaces.load_example("square-map", grid=11)
    hyper_sq = build_hyper_model(sq, 2)
    assert induced_step(hyper_sq, (0, 10)) == (0, 10)  # both endpoints fixed

    stack = spaces.load_example("periodic-stack", n=2, truncate=4)
    hyper_st = build_hyper_model(stack, 2)
    def find(k, l):
        want = {"n": 2, "k": k, "l": l}
        return next(i for i in range(stack.n_points) if stack.point_data(i) == want)
    a = canonical((find(0, 1), find(0, 2)))
    img = induced_step(hyper_st, a)
    assert {stack.point_data(i)["l"] for i in img} == {1, 2}
    assert all(stack.point_data(i)["k"] == 1 for i in img)


def test_induced_step_commutes_with_embedding():
    sq = spaces.load_example("square-map", grid=11)
    hyper = build_hyper_model(sq, 2)
    for x in range(11):
        stepped = spaces.step(sq, x)["snapped"]
        assert induced_step(hyper, (x,)) == (stepped,)


def test_square_map_hyper_dynamics_converge():
    # brute-force iteration of the 66-point induced table: everything lands
    # on the subsets of the fixed-point pair {0, 1}
    sq = spaces.snap_to_finite(spaces.load_example("square-map", grid=11))
    hyper = build_hyper_model(sq, 2)
    assert hyper.n_points == 66
    table = hyper.map_table
    final = set()
    for start in range(66):
        cur = start
        for _ in range(64):
            cur = int(table[cur])
        final.add(hyper.hyperpoints[cur])
    assert final == {(0,), (10,), (0, 10)}


def test_hyper_export(grid11):
    doc = build_hyper_model(spaces.load_example("identity", n=3), 2).to_json()
    assert doc["schema"] == "ellis.hypermodel/1"
    assert len(doc["hyperpoints"]) == 6
    assert "induced_map" in doc


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=6))
def test_canonical_form(members):
    c = canonical(members)
    assert list(c) == sorted(set(members))
    assert canonical(c) == c


# -- padded sampled-base hyperspace against the oracle ---------------------------

K = 3
member_sets = st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=K,
                       unique=True)
raw_sets = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=K)


@pytest.fixture(scope="module")
def hyper11():
    return build_hyper_model(spaces.load_example("square-map", grid=11), K)


def padded(members):
    return list(members) + [members[0]] * (K - len(members))


@given(st.lists(st.tuples(member_sets, member_sets), min_size=1, max_size=5))
def test_padded_point_dist_matches_oracle(hyper11, pairs):
    base = hyper11.base
    # enumeration order is the oracle for hyperpoint ids
    ia = [hyper11.hyperpoints.index(canonical(a)) for a, _ in pairs]
    ib = [hyper11.hyperpoints.index(canonical(b)) for _, b in pairs]
    got = hyper11.point_dist(ia, ib)
    for value, (a, b) in zip(got, pairs):
        assert value == brute_hausdorff(base.metric, a, b)


@given(st.lists(st.tuples(raw_sets, raw_sets), min_size=1, max_size=5))
def test_padded_raw_image_pair_dist_matches_oracle(hyper11, pairs):
    a_imgs = np.asarray([padded(a) for a, _ in pairs])
    b_imgs = np.asarray([padded(b) for _, b in pairs])
    got = hyper11.image_pair_dist(a_imgs, b_imgs)
    for value, (a, b) in zip(got, pairs):
        assert value == brute_hausdorff(lambda x, y: abs(x - y), a, b)


@given(st.data())
def test_hyper_ids_match_enumeration_order(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    k = data.draw(st.integers(min_value=1, max_value=4))
    hyper = build_hyper_model(spaces.load_example("identity", n=n), k)
    width = data.draw(st.integers(min_value=1, max_value=k))
    # unsorted rows with repeats, as images of padded rows come out
    rows = data.draw(st.lists(st.lists(st.integers(min_value=0, max_value=n - 1),
                                       min_size=width, max_size=width),
                              min_size=1, max_size=8))
    want = [hyper.hyperpoints.index(canonical(r)) for r in rows]
    assert hyper.hyper_ids(np.asarray(rows)).tolist() == want


def test_hyper_ids_invert_the_member_rows():
    hyper = build_hyper_model(spaces.load_example("identity", n=7), 3)
    assert hyper.hyper_ids(hyper.members).tolist() == list(range(hyper.n_points))
    assert hyper.hyperpoints[:7] == [(x,) for x in range(7)]


# -- Hausdorff distances gathered from the base distance matrix -----------------------


def member_path(hyper, a, b):
    # the path before the base distance matrix: one base distance call on
    # every member pair of the padded identity images
    base = hyper.base
    ident = base.iterate_images(0)
    return hyper._member_hausdorff(base.apply_to_indices(ident, hyper.members[a]),
                                   base.apply_to_indices(ident, hyper.members[b]))


def random_finite_base(kind, coords, table):
    c = np.asarray(coords)
    metrics = {
        "interval": lambda a, b: np.abs(c[a] - c[b]),
        "circle": lambda a, b: spaces._minarc(c[a], c[b]),
        # not symmetric: the closed form must not assume D = D^T
        "asymmetric": lambda a, b: 2.0 * np.maximum(c[b] - c[a], 0.0) + np.maximum(c[a] - c[b], 0.0),
    }
    return spaces.FiniteModel(f"random-{kind}", {}, c, metrics[kind], table, None, kind)


@st.composite
def hyper_bases(draw):
    kind = draw(st.sampled_from(["interval", "circle", "asymmetric", "rotation", "square-map"]))
    k = draw(st.integers(min_value=1, max_value=3))
    if kind == "rotation":
        return build_hyper_model(spaces.load_example("irrational-rotation",
                                                     grid=draw(st.integers(3, 12))), k)
    if kind == "square-map":
        return build_hyper_model(spaces.load_example("square-map", grid=11), k)
    n = draw(st.integers(min_value=1, max_value=9))
    top = 6.283185307179586 if kind == "circle" else 1.0
    # few distinct values, so that ties and zero distances between points occur
    coords = draw(st.lists(st.sampled_from(np.linspace(0.0, top, 7).tolist()) | st.floats(0.0, top),
                           min_size=n, max_size=n))
    table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return build_hyper_model(random_finite_base(kind, coords, table), k)


@given(hyper_bases(), st.data())
def test_hausdorff_from_the_base_matrix_matches_both_oracles(hyper, data):
    n = hyper.n_points
    rows = np.arange(n)
    full = hyper.distance_rows(rows)
    ii, jj = (v.ravel() for v in np.meshgrid(rows, rows, indexing="ij"))
    # whole rows, pairs and the old member path agree bit for bit
    assert np.array_equal(hyper.pairwise_hausdorff(ii, jj), full.ravel())
    assert np.array_equal(member_path(hyper, ii, jj), full.ravel())
    assert np.array_equal(properties.full_distance_matrix(hyper), full)
    # any rows, in any order and with repeats
    some = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    assert np.array_equal(hyper.distance_rows(some), full[some])
    # the direct sup-min over member pairs, on drawn pairs
    points = hyper.hyperpoints
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   min_size=1, max_size=20)):
        assert full[i, j] == brute_hausdorff(hyper.base.metric, points[i], points[j])


def test_base_distance_matrix_is_built_once_and_budgeted():
    hyper = build_hyper_model(spaces.load_example("irrational-rotation", grid=10), 2)
    d = hyper.base_dist
    hyper.pairwise_hausdorff([3, 4], [20, 30])
    hyper.distance_rows([0, 1])
    assert hyper.base_dist is d
    assert np.array_equal(d, properties.full_distance_matrix(hyper.base))
    # a k = 1 hyperspace over more than sqrt(CELL_BUDGET / 2) ~ 8.2k points
    # cannot hold D and C: whole rows are refused at once, while a few pairs
    # still take the base metric on their member pairs and never build D
    big = build_hyper_model(spaces.load_example("square-map", grid=8_193), 1)
    start = time.perf_counter()
    with pytest.raises(envelope.EnvelopeBudgetError, match="base distance matrix"):
        big.distance_rows([0])
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(big.point_dist([0, 5], [1, 8]), member_path(big, [0, 5], [1, 8]))
    assert big._base_dist is None


def test_small_queries_skip_the_base_matrix_until_it_is_built():
    hyper = build_hyper_model(spaces.load_example("irrational-rotation", grid=10), 2)
    pairs = (np.arange(20), np.arange(20)[::-1])
    few = hyper.pairwise_hausdorff(*pairs)
    assert hyper._base_dist is None
    hyper.pairwise_hausdorff(np.zeros(25, dtype=int), np.arange(25))   # k^2 P = N_base^2
    assert hyper._base_dist is not None
    assert np.array_equal(hyper.pairwise_hausdorff(*pairs), few)


@given(st.integers(min_value=1, max_value=7).flatmap(lambda n: st.one_of(
    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
    st.permutations(list(range(n))))), st.integers(min_value=1, max_value=3))
def test_finite_hyper_model_takes_index_and_period_from_its_base(table, k):
    n = len(table)
    coords = np.linspace(0.0, 1.0, n)
    base = spaces.FiniteModel("m", {}, coords, lambda a, b: np.abs(coords[a] - coords[b]),
                              table, None, "interval")
    base.cycles
    with pytest.MonkeyPatch.context() as mp:     # no cycle pass over the hyperpoints
        mp.setattr(spaces, "cycle_structure", lambda table: pytest.fail())
        hyper = build_hyper_model(base, k)
        index, period, lengths = hyper.cycles
    tail, length, _ = spaces.cycle_structure(hyper.map_table)
    assert (index, period) == (int(tail.max()), math.lcm(*set(length.tolist())))
    # each hyperpoint's length is a period of its own orbit past the index
    assert (lengths % length == 0).all() and (period % lengths == 0).all()
