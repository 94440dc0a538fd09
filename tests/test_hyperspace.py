import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellis import hyperspace, spaces
from ellis.hyperspace import (
    HyperBudgetError,
    build_hyper_model,
    canonical,
    hausdorff_distance,
    induced_step,
    vietoris_member,
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


def test_vietoris_membership(grid11):
    whole = [(5, 10.0)]
    assert vietoris_member(grid11, (0, 3, 9), whole)
    assert not vietoris_member(grid11, (0,), [(9, 0.05)])
    both_ends = [(0, 0.15), (10, 0.15)]
    assert vietoris_member(grid11, (0, 10), both_ends)
    assert not vietoris_member(grid11, (0, 5, 10), both_ends)  # 0.5 not covered
    with pytest.raises(spaces.InvalidParameterError):
        vietoris_member(grid11, (0,), [])


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
