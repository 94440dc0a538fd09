import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from ellis import cli, envelope, hyperspace, spaces

import oracles


def test_unknown_name():
    with pytest.raises(spaces.UnknownExampleError):
        spaces.load_example("no-such-model")


def test_invalid_parameter():
    with pytest.raises(spaces.InvalidParameterError):
        spaces.load_example("square-map", grid=1)
    with pytest.raises(spaces.InvalidParameterError):
        spaces.load_example("square-map", bogus=3)


def test_catalog_lists_every_interface_name():
    names = {e["name"] for e in spaces.list_catalog()}
    assert names == {
        "square-map", "neg-cube", "identity", "irrational-rotation",
        "double-circle-rotation", "dyadic-circle-stack",
        "dyadic-circle-stack-inward", "triadic-circle-stack",
        "periodic-stack", "periodic-union", "isolated-ones-subshift",
        "annulus-skew",
    }


def test_catalog_determinism():
    a = spaces.load_example("periodic-stack", n=3, truncate=9).to_json()
    b = spaces.load_example("periodic-stack", n=3, truncate=9).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    wa = spaces.sample_window_model(count=12, radius=8, seed=5)
    wb = spaces.sample_window_model(count=12, radius=8, seed=5)
    assert np.array_equal(wa.bits, wb.bits)


@pytest.mark.parametrize("density", [1.5, -1, -0.25, math.nan])
def test_window_sample_refuses_a_density_outside_the_unit_interval(density):
    # unchecked, 1.5 drew all ones and -1, -0.25 and NaN all zeros
    with pytest.raises(spaces.InvalidParameterError, match="is not in \\[0, 1\\]"):
        spaces.sample_window_model(count=4, radius=3, density=density)


@pytest.mark.parametrize("count,radius,seed,density", [
    (1, 1, 0, 0.5),
    (12, 8, 5, 0.5),
    (500, 20, 1, 0.1),       # one block
    (900, 80, 1, 0.1),       # blocks of 407 rows
    (40, 300, 11, 0.7),
    (3, 9000, 2, 0.5),
    (3, 33000, 2, 0.5),      # rows wider than a block: one row per block
    (301, 301, 4, 0.0),      # odd count and radius: blocks of 108 rows
    (301, 301, 4, 0.3),
    (301, 301, 4, 0.5),
    (301, 301, 4, 1.0),
    (301, 301, 4, 2.0 ** -60),   # only a word below 2^11 falls under it
    (301, 301, 4, 1 - 2.0 ** -53),
    (3, 2 ** 16 + 5, 2, 0.3),        # rows wider than 2**17 symbols, drawn in runs
    (3, 2 ** 16 + 5, 2, 2.0 ** -60),
    (3, 2 ** 16 + 5, 2, 1.0),
])
def test_window_sample_bits_are_one_draw_in_row_blocks(count, radius, seed, density):
    # the oracle: rng.random over the whole window, compared with density
    m = spaces.sample_window_model(count=count, radius=radius, seed=seed, density=density)
    whole = np.random.default_rng(seed).random((count, 2 * radius + 1)) < density
    drawn = m.bits[:, m.pad - radius:m.pad + radius + 1]
    assert drawn.dtype == np.uint8
    assert np.array_equal(drawn, whole.astype(np.uint8))


@pytest.mark.parametrize("count,radius,seed", [
    (270, 2000, 6),      # scratches of 256 points, the last of 14
    (2100, 250, 8),      # scratches of 2088 points; a word block straddles the edge
    (20, 40000, 9),      # scratches of 8 points, one row per word block
    (9, 70000, 4),       # rows wider than 2**17 symbols: runs of 2**16 words
                         # OR-ed into two byte columns
])
def test_window_sample_bits_cross_scratch_boundaries(count, radius, seed):
    # the same oracle, over draws that fill and pack more than one scratch
    m = spaces.sample_window_model(count=count, radius=radius, seed=seed)
    whole = np.random.default_rng(seed).random((count, 2 * radius + 1)) < 0.5
    assert np.array_equal(m.bits[:, m.pad - radius:m.pad + radius + 1], whole.astype(np.uint8))


@pytest.mark.parametrize("count,radius", [
    (1000, 2000),    # 0.5 MB packed; unpacked columns alone were 4 MB
    (3, 33000),      # one point per word block: the scratch holds 8 points
    (2000, 2001),    # the shift workload's window: 4007 positions of 250 bytes
])
def test_window_sample_holds_no_float_draw_of_the_whole_window(count, radius):
    # the float64 draw of a 1000 x 4001 window would take 32 MB; the draw
    # goes through one word block and a scratch of about 1 MiB
    tracemalloc.start()
    try:
        m = spaces.sample_window_model(count=count, radius=radius, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m._packed.shape == (2 * radius + 7, -(-count // 8))
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("count", [1, 8])
def test_wide_window_rows_are_drawn_in_bounded_runs(count):
    # a million-symbol radius: one row of raw words alone would be 16 MB,
    # and position-ordered scan tables of the window 32 MB more
    tracemalloc.start()
    try:
        m = spaces.sample_window_model(count=count, radius=10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m._packed.shape == (2 * 10 ** 6 + 7, 1)
    assert peak < 8 * 2 ** 20


def test_metric_identity_and_symmetry():
    m = spaces.load_example("square-map", grid=51)
    assert m.metric(10, 10) == 0.0
    assert m.metric(3, 40) == m.metric(40, 3)
    # point ids outside [0, N), and non-integers, are refused like every
    # other point-id entry point's
    for a, b in ((0, 51), (-1, 0), (2.5, 3)):
        with pytest.raises(spaces.InvalidParameterError, match="not an integer in"):
            m.metric(a, b)


def test_circle_antipodal_arc_length():
    rot = spaces.load_example("irrational-rotation", grid=36)
    assert rot.metric(0, 18) == pytest.approx(math.pi)


def test_shift_metric_on_window_model():
    # two sequences differing only at the origin sit at distance 2^0 = 1;
    # differing first at +-1 gives 2^-1
    bits = np.zeros((3, 11), dtype=np.uint8)
    bits[1, 5] = 1          # differs from row 0 at position 0
    bits[2, 6] = 1          # differs from row 0 at position +1
    model = spaces.WindowSampleModel("w", {}, bits, 5, 7)
    assert model.metric(0, 1) == 1.0
    assert model.metric(0, 2) == 0.5


def test_step_finite_and_sampled():
    ident = spaces.load_example("identity", n=5)
    assert spaces.orbit_segment(ident, 2, 1, 1)[0] == 2
    sq = spaces.load_example("square-map", grid=101)
    out = spaces.orbit_segment(sq, 50, 1, 1)[0]  # x = 0.5
    assert out["raw"] == [0.25]
    assert out["snapped"] == 25
    assert out["snap_error"] == 0.0


def test_step_periodic_stack_formula():
    m = spaces.load_example("periodic-stack", n=3, truncate=5)
    # locate (3, 0, 1): step must give (3, 1, 2)
    idx = next(i for i in range(m.n_points)
               if m.point_data(i) == {"n": 3, "k": 0, "l": 1})
    nxt = spaces.orbit_segment(m, idx, 1, 1)[0]
    assert m.point_data(nxt) == {"n": 3, "k": 1, "l": 2}


@pytest.mark.parametrize("n,truncate", [(1, 1), (3, 5), (4, 9)])
def test_periodic_stack_is_the_last_component_of_periodic_union(n, truncate):
    stack = spaces.load_example("periodic-stack", n=n, truncate=truncate)
    union = spaces.load_example("periodic-union", n=n, truncate=truncate)
    size = stack.n_points
    offset = union.n_points - size
    assert size == (2 * truncate + 2) * n
    labels = [stack.point_data(i) for i in range(size)]
    assert labels == [union.point_data(offset + i) for i in range(size)]
    assert np.array_equal(union.map_table[offset:], stack.map_table + offset)
    a, b = np.divmod(np.arange(size * size), size)
    d = stack.point_dist(a, b)
    assert d.tobytes() == union.point_dist(a + offset, b + offset).tobytes()
    # oracle: the one-stack metric, arc distance of k/(1+|k|) plus label change
    arc = np.asarray([1.0 if p["k"] == "inf" else p["k"] / (1.0 + abs(p["k"])) for p in labels])
    lab = np.asarray([p["l"] for p in labels])
    gap = np.abs(arc[a] - arc[b])
    assert d.tobytes() == (np.minimum(gap, 2.0 - gap) + (lab[a] != lab[b])).tobytes()


def tuple_periodic_stacks(sizes, truncate):
    # oracle: the builder of per-point tuples, a dict index and per-point
    # lookups, which array arithmetic replaced
    ks = list(range(-truncate, truncate + 1)) + [None]  # None = infinity
    pts = [(c, k, l) for c in sizes for k in ks for l in range(1, c + 1)]
    index = {p: i for i, p in enumerate(pts)}
    arc = np.asarray([1.0 if k is None else k / (1.0 + abs(k)) for _, k, _ in pts])
    lab = np.asarray([l for _, _, l in pts])
    comp = np.asarray([c for c, _, _ in pts])

    def dist(a, b):
        return (3.0 * (comp[a] != comp[b]).astype(float) + spaces._circ2(arc[a], arc[b])
                + (lab[a] != lab[b]).astype(float))

    fwd = [index[(c, None if (k is None or k >= truncate) else k + 1, l % c + 1)]
           for c, k, l in pts]
    labels = [{"n": c, "k": "inf" if k is None else k, "l": l} for c, k, l in pts]
    return np.asarray(fwd), labels, dist


@pytest.mark.parametrize("n,truncate", [(1, 1), (2, 1), (3, 5), (5, 2), (8, 100)])
def test_periodic_stacks_equal_the_tuple_builder(n, truncate):
    rng = np.random.default_rng(n)
    for name, sizes in (("periodic-union", list(range(1, n + 1))), ("periodic-stack", [n])):
        model = spaces.load_example(name, n=n, truncate=truncate)
        fwd, labels, dist = tuple_periodic_stacks(sizes, truncate)
        assert model.map_table.tobytes() == fwd.astype(np.int64).tobytes()
        assert json.dumps([model.point_data(i) for i in range(model.n_points)]) == \
            json.dumps(labels)
        a, b = rng.integers(0, model.n_points, (2, 4000))
        assert model.point_dist(a, b).tobytes() == dist(a, b).tobytes()


def test_orbit_segment_identity_and_stack():
    ident = spaces.load_example("identity", n=5)
    assert spaces.orbit_segment(ident, 3, 0, 4) == [3, 3, 3, 3, 3]
    m = spaces.load_example("periodic-stack", n=2, truncate=5)
    start = next(i for i in range(m.n_points)
                 if m.point_data(i) == {"n": 2, "k": 0, "l": 1})
    seg = spaces.orbit_segment(m, start, 0, 2)
    assert [m.point_data(i) for i in seg] == [
        {"n": 2, "k": 0, "l": 1}, {"n": 2, "k": 1, "l": 2}, {"n": 2, "k": 2, "l": 1},
    ]


def test_orbit_segment_square_map_snapping():
    sq = spaces.load_example("square-map", grid=1001)
    seg = spaces.orbit_segment(sq, 900, 0, 3)  # x = 0.9
    raws = [s["raw"][0] for s in seg]
    assert raws == pytest.approx([0.9, 0.81, 0.6561, 0.43046721])
    assert seg[2]["snapped"] == 656


def test_orbit_segment_consistency_with_step():
    m = spaces.load_example("isolated-ones-subshift", truncate=6)
    seg = spaces.orbit_segment(m, 2, 0, 6)
    for a, b in zip(seg, seg[1:]):
        assert spaces.orbit_segment(m, a, 1, 1)[0] == b


def test_negative_powers_rejected_on_semicascade():
    m = spaces.load_example("periodic-stack", n=2, truncate=5)
    with pytest.raises(spaces.NegativePowerError):
        spaces.orbit_segment(m, 0, -1, 1)


def test_orbit_and_omega_limit_refuse_point_ids_outside_the_sample():
    # -1 named point N - 1: the orbit of -1 was point 5's [5, 3, 1], and N
    # failed with a bare IndexError; 2.5 was truncated to point 2, True read
    # as point 1 and NaN failed with a bare ValueError
    rot = spaces.load_example("irrational-rotation", grid=6)
    for bad in (-1, 6, 2.5, True, math.nan):
        refused = rf"point={bad} is not an integer in \[0, 6\)"
        with pytest.raises(spaces.InvalidParameterError, match=refused):
            spaces.orbit_segment(rot, bad, 0, 2)
        with pytest.raises(spaces.InvalidParameterError, match=refused):
            spaces.omega_limit_estimate(rot, bad, 4, 0.0)
    assert spaces.orbit_segment(rot, 5, 0, 2) == [5, 3, 1]
    assert spaces.orbit_segment(rot, 0, 0, 2) == [0, 4, 2]
    assert spaces.omega_limit_estimate(rot, 5, 12, 0.0) == {1, 3, 5}


def test_step_is_the_one_entry_orbit_segment():
    # oracle: the orbit entry of f^1; one step took -1 as point N - 1 and
    # failed at N with a bare IndexError
    for m in (spaces.load_example("irrational-rotation", grid=12),
              spaces.load_example("square-map", grid=41),
              spaces.sample_window_model(count=12, radius=6, seed=3)):
        f1 = m.iterate_images(1)
        assert [spaces.orbit_segment(m, x, 1, 1)[0] for x in range(m.n_points)] == \
            [m.orbit_entry(f1, x) for x in range(m.n_points)]
        for bad in (-1, m.n_points):
            with pytest.raises(spaces.InvalidParameterError, match=rf"point={bad} is not"):
                spaces.orbit_segment(m, bad, 1, 1)[0]


def test_omega_limit_refuses_a_negative_tol():
    # unchecked, a negative tol returned an empty set
    rot = spaces.load_example("irrational-rotation", grid=6)
    with pytest.raises(spaces.InvalidParameterError, match="tol=-0.1 is negative"):
        spaces.omega_limit_estimate(rot, 5, 12, -0.1)
    with pytest.raises(spaces.InvalidParameterError, match="tol=nan is negative or NaN"):
        spaces.omega_limit_estimate(rot, 5, 12, math.nan)     # answered an empty set
    assert spaces.omega_limit_estimate(rot, 5, 12, 0.0) == {1, 3, 5}


def test_inverse_roundtrip():
    for name, params in (
        ("irrational-rotation", {"grid": 24}),
        ("dyadic-circle-stack", {"levels": 3, "mult": 2}),
        ("neg-cube", {"grid": 201}),
    ):
        m = spaces.load_example(name, **params)
        fwd = m.iterate_images(1)
        back = m._advance(fwd, -1)
        tol = 0.0 if m.kind == "finite-exact" else 2 * m.resolution
        assert float(np.max(m.image_pair_dist(back, m.iterate_images(0)))) <= tol


def test_omega_limit_trivial_cases():
    ident = spaces.load_example("identity", n=5)
    assert spaces.omega_limit_estimate(ident, 2, 10, 0.01) == {2}
    sq = spaces.load_example("square-map", grid=1001)
    assert spaces.omega_limit_estimate(sq, 500, 200, 1e-6) == {0}


def test_omega_limit_rotation_orbit_fill():
    # oracle: brute-force orbit fill; steps = round(0.4472*360) = 161,
    # coprime to 360, so the exact grid rotation visits every point
    rot = spaces.load_example("irrational-rotation", alpha=0.4472, grid=360)
    steps = rot.params["steps"]
    assert math.gcd(steps, 360) == 1
    visited = {(steps * n) % 360 for n in range(10000)}
    assert len(visited) == 360
    om = spaces.omega_limit_estimate(rot, 0, 10000, rot.resolution / 2)
    assert om == set(range(360))


def test_omega_limit_equals_cycle_part_on_small_finite_models():
    rng = np.random.default_rng(3)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        table = rng.integers(0, n, n)
        coords = np.linspace(0, 1, n)
        m = spaces.FiniteModel(
            "rand", {}, coords,
            lambda a, b, c=coords: np.abs(c[np.asarray(a)] - c[np.asarray(b)]),
            table, None, "interval")
        for x in range(n):
            # brute-force cycle part of the orbit of x
            orbit, seen = [], {}
            cur = x
            while cur not in seen:
                seen[cur] = len(orbit)
                orbit.append(cur)
                cur = int(table[cur])
            cycle = set(orbit[seen[cur]:])
            assert spaces.omega_limit_estimate(m, x, 64, 0.0) == cycle


def test_stack_infinity_metric():
    m = spaces.load_example("periodic-stack", n=2, truncate=10)
    def find(k, l):
        want = {"n": 2, "k": k, "l": l}
        return next(i for i in range(m.n_points) if m.point_data(i) == want)
    inf1 = find("inf", 1)
    assert m.metric(find(4, 1), inf1) == pytest.approx(1 / 5)
    assert m.metric(find(-4, 1), inf1) == pytest.approx(1 / 5)
    assert m.metric(find(0, 1), inf1) == pytest.approx(1.0)


def test_triangle_inequality_spot_checks():
    models = [
        spaces.load_example("periodic-stack", n=3, truncate=6),
        spaces.load_example("dyadic-circle-stack", levels=3, mult=2),
        spaces.load_example("isolated-ones-subshift", truncate=6),
        spaces.load_example("double-circle-rotation", grid=12),
    ]
    rng = np.random.default_rng(0)
    for m in models:
        n = m.n_points
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(0, n, 3))
            assert m.metric(a, c) <= m.metric(a, b) + m.metric(b, c) + 1e-12


def test_snap_to_finite():
    sq = spaces.load_example("square-map", grid=11)
    fin = oracles.snap_to_finite(sq)
    assert fin.n_points == 11
    assert int(fin.map_table[10]) == 10  # 1.0 fixed
    assert int(fin.map_table[0]) == 0
    assert not fin.invertible


def test_rotation_convergent_fraction():
    rot = spaces.load_example("irrational-rotation", alpha="5/36")
    assert rot.n_points == 36 and rot.params["steps"] == 5
    with pytest.raises(spaces.InvalidParameterError):
        spaces.load_example("irrational-rotation", alpha="5/36", grid=20)


@pytest.mark.parametrize("name", ["irrational-rotation", "double-circle-rotation"])
@pytest.mark.parametrize("params", [{"alpha": "1/0"}, {"alpha": "abc"}, {"grid": 0},
                                    {"grid": 1}])
def test_rotation_builders_refuse_bad_parameters_alike(name, params):
    # a zero denominator, an unreadable alpha and a grid below 2 are refused
    # as parameters, not raised as ZeroDivisionError or a bare ValueError
    with pytest.raises(spaces.InvalidParameterError):
        spaces.load_example(name, **params)


def test_model_export_schema():
    doc = spaces.load_example("identity", n=3).to_json()
    assert doc["schema"] == "ellis.model/1"
    assert doc["map"] == [0, 1, 2]
    assert len(doc["points"]) == 3


SAMPLED_CATALOG = [name for name in sorted(spaces.CATALOG)
                   if spaces.load_example(name).kind == "sampled"]


@pytest.mark.parametrize("name", SAMPLED_CATALOG)
def test_sampled_model_export_matches_per_point_oracle(name):
    model = spaces.load_example(name)
    report, _ = cli.run_experiment({"model": {"name": name},
                                    "pipeline": [{"op": "model_export"}]})
    oracle = dict(model.to_json(), map=[
        [float(v) for v in np.atleast_1d(model._step_raw(model.points[i : i + 1])[0])]
        for i in range(model.n_points)])
    assert json.dumps(report["steps"][0]["result"]) == json.dumps(oracle)


SHARED_MODEL_KEYS = {"schema", "name", "params", "kind", "metric", "invertible"}


@pytest.mark.parametrize("model,own", [
    (spaces.load_example("irrational-rotation", grid=6), {"points", "map"}),
    (spaces.load_example("square-map", grid=5), {"epsilon", "points", "map"}),
    (spaces.sample_window_model(count=4, radius=3), {"count", "radius"}),
], ids=["finite", "sampled", "window"])
def test_model_export_holds_the_shared_keys_and_the_carriers_own(model, own):
    doc = model.to_json()
    assert set(doc) == SHARED_MODEL_KEYS | own
    assert {k: doc[k] for k in SHARED_MODEL_KEYS} == {
        "schema": "ellis.model/1", "name": model.name, "params": model.params,
        "kind": model.kind, "metric": model.metric_name, "invertible": model.invertible}


def overridden_image_point_dist(model, imgs, point):
    # the finite and sampled overrides that CascadeModel.image_point_dist replaced
    if isinstance(model, spaces.FiniteModel):
        return model.point_dist(imgs, np.full(len(imgs), point, dtype=np.int64))
    return model._raw_dist(imgs, np.broadcast_to(model.points[point], np.asarray(imgs).shape))


@pytest.mark.parametrize("build", [
    lambda: spaces.load_example("irrational-rotation", grid=12),
    lambda: spaces.load_example("periodic-stack", n=2, truncate=3),
    lambda: hyperspace.build_hyper_model(spaces.load_example("irrational-rotation", grid=6), 2),
    lambda: spaces.load_example("square-map", grid=11),
    lambda: spaces.load_example("annulus-skew", radial=1, grid=6),
], ids=["rotation", "periodic-stack", "finite-hyper", "square-map", "annulus-skew"])
def test_inherited_image_point_dist_is_bitwise_the_old_override(build):
    model = build()
    for n in (1, 3):
        imgs = model.iterate_images(n)
        for point in (0, model.n_points // 2, model.n_points - 1):
            got = model.image_point_dist(imgs, point)
            want = overridden_image_point_dist(model, imgs, point)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=39))
def test_rotation_orbit_period_divides_grid(grid, start):
    rot = spaces.load_example("irrational-rotation", grid=grid)
    start %= grid
    seg = spaces.orbit_segment(rot, start, 0, grid)
    assert seg[grid] == seg[0]


def brute_seq_dist(model, i, a, j, b):
    # independent oracle: scan positions outward from the origin and stop
    # at the first disagreement of sigma^a(x_i) and sigma^b(x_j)
    for r in range(model.pad + 1):
        for pos in (-r, r):
            if model.symbol(i, pos + a) != model.symbol(j, pos + b):
                return 2.0 ** (-r)
    return 0.0


@given(st.integers(min_value=0, max_value=2**16), st.integers(min_value=-12, max_value=12),
       st.integers(min_value=-12, max_value=12))
def test_window_distances_match_first_difference_oracle(seed, a, b):
    m = spaces.sample_window_model(count=6, radius=5, seed=seed)
    rows = np.random.default_rng(seed).permutation(m.n_points)
    img_a = m.apply_to_indices(m.iterate_images(a), rows)
    img_b = m.iterate_images(b)
    pair = m.image_pair_dist(img_a, m.apply_to_indices(img_b, rows))
    to_point = m.image_point_dist(img_a, 2)
    points = m.point_dist(rows, np.arange(m.n_points))
    for r, i in enumerate(rows):
        assert pair[r] == brute_seq_dist(m, i, a, i, b)
        assert to_point[r] == brute_seq_dist(m, i, a, 2, 0)
        assert points[r] == brute_seq_dist(m, i, 0, r, 0)


def walk_to_cycle(table, x):
    # independent oracle: follow x until a point repeats; the repeated point
    # opens the cycle, and its position on the walk is the tail length
    walk = []
    while x not in walk:
        walk.append(x)
        x = table[x]
    cycle = walk[walk.index(x):]
    return walk.index(x), len(cycle), min(cycle)


random_maps = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
permutations = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.permutations(list(range(n))))
constant_maps = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.integers(min_value=0, max_value=n - 1).map(lambda c: [c] * n))


@given(st.one_of(random_maps, permutations, constant_maps, st.just([0])))
def test_cycle_structure_matches_per_point_walk(table):
    tail, length, root = spaces.cycle_structure(table)
    assert [tail.dtype, length.dtype, root.dtype] == [np.int64] * 3
    got = list(zip(tail.tolist(), length.tolist(), root.tolist()))
    assert got == [walk_to_cycle(table, x) for x in range(len(table))]


def window_symbols(bits, pad, imgs, w):
    # oracle: unpacked symbols, one row per sample point at positions
    # -pad..pad, between two zero columns; the window's positions are
    # gathered clipped onto those, then the image's sample rows, position-major
    cols = np.pad(bits, ((0, 0), (1, 1)))
    pos = np.arange(imgs.n - w, imgs.n + w + 1) + pad + 1
    return cols.take(pos, axis=1, mode="clip")[imgs.rows].T


def take_key_matrix(model, imgs, w):
    # oracle: the gathered symbols of the window, packed eight points per byte
    return np.packbits(window_symbols(model.bits, model.pad, imgs, w), axis=1)


def dyadic_first_diff(a, b, pad):
    # oracle: unpacked symbols at positions -pad..pad, one column per point;
    # the disagreement nearest the origin, at position p, gives 2^-|p|
    radius = np.abs(np.arange(-pad, pad + 1))[:, None]
    first = np.where(a != b, radius, pad + 1).min(axis=0)
    return np.where(first <= pad, 2.0 ** -first, 0.0)


@pytest.mark.parametrize("n", [0, 3, -7, 9, -9, 10, -10, 11, 12, -13, 40])
def test_window_keys_match_the_gather_path(n):
    # pad = 9, so the windows of |n| near pad reach past the stored rows
    m = spaces.sample_window_model(count=7, radius=7, seed=3)
    ident = m.iterate_images(n)
    rows = np.random.default_rng(n + 50).permutation(m.n_points)
    for imgs in (ident, m.apply_to_indices(ident, rows)):
        other = m.iterate_images(n - 2)
        if imgs is not ident:
            other = m.apply_to_indices(other, rows)
        for w in (-1, 0, 1, 4, m.pad):
            key = m.key_matrix(imgs, w)
            assert key.shape == (max(2 * w + 1, 0), 1)    # 7 points in one byte
            assert np.array_equal(key, take_key_matrix(m, imgs, w))
        for tau in (2.0, 0.4, 0.1, 2.0 ** -m.pad):
            w = m.window_radius(tau)
            assert np.array_equal(m.cluster_key(imgs, tau), take_key_matrix(m, imgs, w))
        assert np.array_equal(m.image_pair_dist(imgs, other),
                              dyadic_first_diff(window_symbols(m.bits, m.pad, imgs, m.pad),
                                                window_symbols(m.bits, m.pad, other, m.pad), m.pad))
    # identity rows whose window fits in the stored rows read a view
    assert np.shares_memory(m.key_matrix(ident, 1), m._packed) == (abs(n) <= m.pad)


@given(st.sampled_from([1, 7, 9, 301]), st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=-9, max_value=9), st.integers(min_value=-1, max_value=7))
def test_packed_window_reads_match_unpacked_oracles(count, seed, n, w):
    # counts that are not multiples of 8 leave padding bits in the last byte
    m = spaces.sample_window_model(count=count, radius=5, seed=seed)
    drawn = (np.random.default_rng(seed).random((count, 11)) < 0.5).astype(np.uint8)
    bits = np.pad(drawn, ((0, 0), (2, 2)))              # positions -pad..pad, pad 7
    rows = np.random.default_rng(seed + 1).integers(0, count, size=count)
    imgs = m.apply_to_indices(m.iterate_images(n), rows)
    want = window_symbols(bits, m.pad, imgs, w)
    assert np.array_equal(m.key_matrix(imgs, w), np.packbits(want, axis=1))
    # snapping: the nearest sample point of each image row, the first on ties
    win = window_symbols(bits, m.pad, imgs, m.pad)
    points = bits.T
    dists = [dyadic_first_diff(win[:, [r]], points, m.pad) for r in range(count)]
    idx, err = m.snap_images(imgs)
    assert idx.tolist() == [int(np.argmin(d)) for d in dists]
    assert err == max(float(d.min()) for d in dists)
    for i in range(count):
        assert m.point_data(i) == {"support": (np.flatnonzero(drawn[i]) - 5).tolist()}
    with pytest.raises(IndexError):     # a padding bit of the last byte is no point
        m.point_data(count)


def loop_isolated_ones_dist(truncate, a, b):
    # oracle: the per-pair loop the closed form replaced
    absj = [abs(j) for j in range(-truncate, truncate + 1)]
    zero = len(absj)
    out = []
    for x, y in zip(a, b):
        radii = [absj[t] for t in (x, y) if t != zero]
        out.append(0.0 if x == y else 2.0 ** (-min(radii)))
    return out


@pytest.mark.parametrize("truncate", [1, 3, 12])
def test_isolated_ones_metric_matches_the_pair_loop(truncate):
    m = spaces.load_example("isolated-ones-subshift", truncate=truncate)
    a, b = np.divmod(np.arange(m.n_points ** 2), m.n_points)
    assert m.point_dist(a, b).tolist() == loop_isolated_ones_dist(truncate, a, b)
    assert m.point_dist(2, 2).tolist() == [0.0]


# the integer parameters of the catalog builders; unchecked, a NaN n failed
# with a bare ValueError, a NaN levels or a radial of 1.5 with a bare
# TypeError, and a truncate of 1.5 answered
BUILDER_INTEGERS = [("periodic-stack", "n"), ("periodic-stack", "truncate"),
                    ("periodic-union", "n"), ("periodic-union", "truncate"),
                    ("identity", "n"),
                    ("dyadic-circle-stack", "levels"), ("dyadic-circle-stack", "mult"),
                    ("dyadic-circle-stack-inward", "levels"),
                    ("triadic-circle-stack", "mult"),
                    ("annulus-skew", "radial"), ("annulus-skew", "grid"),
                    ("isolated-ones-subshift", "truncate")]


@pytest.mark.parametrize("name,key", BUILDER_INTEGERS)
@pytest.mark.parametrize("value", [math.nan, -1, 0, 1.5, True])
def test_catalog_integer_parameters_answer_or_are_refused(name, key, value):
    try:
        m = spaces.load_example(name, **{key: value})
    except spaces.InvalidParameterError as exc:
        assert "is not an integer >=" in str(exc)
    else:
        assert value == 0 and m.params[key] == 0


# -- the byte-bounded iterate cache -------------------------------------------


def replayed_iterate(m, n):
    # oracle: f applied n times to the identity (f^-1 |n| times for n < 0)
    img = m._identity_images()
    for _ in range(abs(n)):
        img = m._advance(img, 1 if n > 0 else -1)
    return img


invertible_sampled = {
    "neg-cube": {"grid": 201},
    "square-map": {"grid": 101},
    "annulus-skew": {"radial": 3, "grid": 12},
}


@given(st.sampled_from(sorted(invertible_sampled)),
       st.lists(st.integers(min_value=-25, max_value=25), min_size=1, max_size=40))
def test_iterates_are_bitwise_equal_under_every_cache_budget(name, exponents):
    got = {}
    for budget in (0, 2 ** 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "ITERATE_CACHE_BYTES", budget)
            m = spaces.load_example(name, **invertible_sampled[name])
            got[budget] = [m.iterate_images(n).copy() for n in exponents]
    fresh = spaces.load_example(name, **invertible_sampled[name])
    for n, a, b in zip(exponents, got[0], got[2 ** 62]):
        assert a.tobytes() == b.tobytes() == replayed_iterate(fresh, n).tobytes()


FOLD_CASES = {
    "square-map": st.builds(lambda g: {"grid": g}, st.integers(2, 3001)),
    "neg-cube": st.builds(lambda g: {"grid": g}, st.integers(2, 3001)),
    # an irrational rotation of the angle: its iterates never repeat
    "annulus-skew": st.builds(lambda r, g: {"radial": r, "grid": g},
                              st.integers(0, 3), st.integers(2, 16)),
}


def _envelope_record(env):
    return ([(e.name, e.origin, e.exponents, e.provenance, e.is_limit, e.tail_count,
              e.images.tobytes()) for e in env.elements],
            env.exponent_map, env.table.tolist(), env.stabilized, env.max_snap_error)


# a failing example is reported unshrunk: each shrink step builds two
# envelopes and replays every exponent, and shrinking ran for over ten minutes
@settings(phases=[p for p in Phase if p is not Phase.shrink])
@given(st.sampled_from(sorted(FOLD_CASES)).flatmap(
           lambda name: st.tuples(st.just(name), FOLD_CASES[name])),
       st.lists(st.integers(min_value=-70, max_value=70), max_size=30),
       st.integers(min_value=1, max_value=70),
       st.sampled_from([1e-3, 1e-2, 0.1]),
       st.sampled_from(["two-sided", "forward"]),
       st.sampled_from([0, None, 2 ** 62]))
def test_the_fold_reads_the_bits_and_the_clusters_of_brute_force(case, exponents, horizon, tau,
                                                                  power_range, budget):
    # a model that folds against one whose fold is the identity, which
    # steps every iterate and clusters every exponent: both read the
    # iterates in a random order first, and each iterate is the replay's
    name, params = case
    replay = spaces.load_example(name, **params)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(spaces, "ITERATE_CACHE_BYTES", budget)
        folded, plain = (spaces.load_example(name, **params) for _ in range(2))
        mp.setattr(plain, "fold", lambda n: n)
        steps = {}
        for m in (folded, plain):
            for n in exponents:
                assert m.iterate_images(n).tobytes() == replayed_iterate(replay, n).tobytes()
            real, steps[m] = m._advance, []
            mp.setattr(m, "_advance", lambda img, d, real=real, log=steps[m]:
                       log.append(d) or real(img, d))
        envs = [envelope.approx_envelope(m, horizon, tau, power_range) for m in (folded, plain)]
    assert _envelope_record(envs[0]) == _envelope_record(envs[1])
    if name == "annulus-skew":
        assert all(folded.fold(n) == n for n in range(-horizon, horizon + 1))
        assert len(steps[folded]) == len(steps[plain])


@given(st.sampled_from([0, 1, 3, 7]),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=60))
def test_cached_bytes_stay_under_the_budget_or_two_newest_entries(entries, exponents):
    m = spaces.load_example("neg-cube", grid=201)
    entry = m.points.nbytes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "ITERATE_CACHE_BYTES", entries * entry)
        for n in exponents:
            m.iterate_images(n)
            cache = m._iter_cache
            held = sum(v.nbytes for v in cache.values())
            newest = sum(cache[k].nbytes for k in list(cache)[-2:])
            assert m._iter_bytes == held <= max(entries * entry, newest)
            assert list(cache)[-1] == m.fold(n)
            assert len(cache) <= max(2, entries)


def test_a_sweep_steps_once_per_exponent_from_its_neighbour(monkeypatch):
    monkeypatch.setattr(spaces, "ITERATE_CACHE_BYTES", 0)
    m = spaces.load_example("irrational-rotation", grid=48)
    steps, jumps = [], []
    real, real_jump = m._advance, m._jump
    monkeypatch.setattr(m, "_advance", lambda img, d: steps.append(d) or real(img, d))
    monkeypatch.setattr(m, "_jump", lambda img, s, c: jumps.append((s, c)) or real_jump(img, s, c))
    for n in range(1, 401):
        m.iterate_images(n)
        m.iterate_images(-n)
    # the rotation by 30 of 48 points has period 8, so f^n is read at
    # fold(n) = n mod 8 (signed) and a multiple of 8 is f^0, with no step
    assert steps == [1, -1] * 7 * 50 and jumps == []
    assert sorted(m._iter_cache) == [-7, 0]
    # a finite miss whose neighbour is gone jumps from the nearest exponent
    # between 0 and n, never across 0: one gather per bit of the distance,
    # through f^(2^j) tables squared per sign, and no step
    steps.clear()
    fresh = spaces.load_example("irrational-rotation", grid=48)
    for n in (405, -3, 2):
        assert np.array_equal(m.iterate_images(n), replayed_iterate(fresh, n))
    assert steps == [] and jumps == [(1, 5), (-1, 3), (1, 2)]
    assert sum(bin(c).count("1") for _, c in jumps) == 5
    assert {s: len(t) for s, t in m._doublings.items()} == {1: 3, -1: 2}


def test_a_sampled_miss_steps_from_the_nearest_exponent_toward_0(monkeypatch):
    # a sampled carrier steps while it seeks a repeat, and neg-cube grid 201
    # shows none within these exponents at this budget
    monkeypatch.setattr(spaces, "ITERATE_CACHE_BYTES", 0)
    m = spaces.load_example("neg-cube", grid=201)
    for n in range(1, 41):
        m.iterate_images(n)
        m.iterate_images(-n)
    assert sorted(m._iter_cache) == [-40, 40] and m._repeats == {}
    steps = []
    real = m._advance
    monkeypatch.setattr(m, "_advance", lambda img, d: steps.append(d) or real(img, d))
    fresh = spaces.load_example("neg-cube", grid=201)
    for n in (7, -3, 2, 5, -6):
        assert m.iterate_images(n).tobytes() == replayed_iterate(fresh, n).tobytes()
    # 7, -3 and 2 from the identity, 5 from the cached 2, and -6 from the
    # identity, not across 0 from 2 or 5
    assert steps == [1] * 7 + [-1] * 3 + [1] * 2 + [1] * 3 + [-1] * 6
    assert m._repeats == {}


@st.composite
def _finite_maps(draw):
    """A map on at most 12 points: any table (tails allowed), a permutation
    with its inverse, or the identity."""
    size = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["map", "permutation", "identity"]))
    if shape == "map":
        return draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)), None
    table = (list(range(size)) if shape == "identity"
             else draw(st.permutations(list(range(size)))))
    return table, np.argsort(table)


@given(_finite_maps(), st.booleans(), st.sampled_from(["none", "one", "default"]), st.data())
def test_finite_jumps_give_the_replayed_iterates(case, hyper, budget, data):
    table, inverse = case
    coords = np.linspace(0.0, 1.0, len(table))
    base = spaces.FiniteModel("m", {}, coords, lambda a, b: np.abs(coords[a] - coords[b]),
                              table, inverse)
    m = hyperspace.build_hyper_model(base, 2) if hyper else base
    size = m.n_points
    limit = {"none": 0, "one": 8 * size, "default": spaces.ITERATE_CACHE_BYTES}[budget]
    exponents = data.draw(st.lists(st.integers(-3 * size, 3 * size), min_size=1, max_size=12))
    if not m.invertible:
        exponents = [abs(n) for n in exponents]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "ITERATE_CACHE_BYTES", limit)
        for n in exponents:
            assert m.iterate_images(n).tobytes() == replayed_iterate(m, n).tobytes()


def test_the_doubling_tables_are_refused_over_the_cell_budget(monkeypatch):
    m = spaces.load_example("irrational-rotation", grid=48)
    monkeypatch.setattr(spaces, "CELL_BUDGET", 2 * 48)
    assert np.array_equal(m.iterate_images(3), replayed_iterate(m, 3))
    with pytest.raises(spaces.EnvelopeBudgetError, match="f\\^\\(2\\^j\\) tables"):
        m.iterate_images(7)
    assert {s: len(t) for s, t in m._doublings.items()} == {1: 2}
