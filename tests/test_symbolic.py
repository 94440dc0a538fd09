import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellis import cli, properties, symbolic
from ellis.symbolic import (
    RuleUndefinedError,
    ShiftSpecError,
    boyle_precondition,
    build_subshift,
    classify_sft,
    cylinder_tensor,
    entropy_estimates,
    golden_to_even_code,
    language,
    periodic_spectrum,
    verify_factor,
)

from oracles import EVEN, FULL2, GOLDEN, apply_block_code, word_in_language

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


# -- oracles ----------------------------------------------------------------


def _overlap_meets(shift, u, v, n):
    """[u] meets sigma^-n [v] for 0 < n < len(u): v starts inside u, so the
    two words overlay into one word, which decides."""
    overlap = u[n:n + len(v)]
    return v[:len(overlap)] == overlap and word_in_language(shift, u + v[len(overlap):])


def cylinder_hitting(shift, u, v, horizon):
    """n in [1, horizon] such that the shift of cylinder [u] meets [v], one
    pair at a time: merged words inside u, one frontier walk beyond it."""
    p = shift.presentation
    step = p.step
    out = [n for n in range(1, min(len(u), horizon + 1)) if _overlap_meets(shift, u, v, n)]
    cur = p.read(p.start, u)
    for n in range(len(u), horizon + 1):
        if n > len(u):
            cur = cur @ step
        if not cur.any():
            break
        if p.read(cur, v).any():
            out.append(n)
    return [n for n in out if n >= 1]


def fib_counts(n_max):
    # golden-mean block counts obey the Fibonacci recurrence, B_1=2, B_2=3
    counts = [2, 3]
    while len(counts) < n_max:
        counts.append(counts[-1] + counts[-2])
    return counts[:n_max]


def even_brute_words(n):
    # enumeration against the forbidden family 1 0^(2k+1) 1
    family = ["1" + "0" * (2 * k + 1) + "1" for k in range(n // 2 + 1)]
    out = set()
    for bits in itertools.product("01", repeat=n):
        w = "".join(bits)
        if not any(f in w for f in family):
            out.add(w)
    return out


def full2_least_periods(n_max):
    out = {}
    for n in range(1, n_max + 1):
        count = 0
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            least = min(p for p in range(1, n + 1)
                        if n % p == 0 and w == w[:p] * (n // p))
            if least == n:
                count += 1
        if count:
            out[n] = count
    return out


def periodic_points_by_words(spec, n):
    # the per-word loop: every word w of length n over the alphabet whose
    # periodic point w^inf avoids the forbidden family (SFT), or whose "read
    # w" relation on the labeled graph has a cycle (sofic)
    alphabet = sorted(spec["alphabet"]) if "alphabet" in spec else sorted(
        {a for _, a, _ in spec["edges"]})
    count = 0
    for w in map("".join, itertools.product(alphabet, repeat=n)):
        if spec["kind"] == "forbidden":
            count += not any(f in w * (len(f) // n + 2) for f in spec["forbidden"])
        else:
            count += periodic_word_ok(spec["states"], spec["edges"], w)
    return count


def periodic_word_ok(states, edges, w):
    # the w-periodic point exists iff the "read w" relation has a cycle
    mat = np.zeros((len(states), len(states)), dtype=bool)
    for i, s in enumerate(states):
        cur = {s}
        for a in w:
            cur = {t for q, b, t in edges if q in cur and b == a}
        for t in cur:
            mat[i, states.index(t)] = True
    power = mat.copy()
    for _ in range(len(states)):
        if power.diagonal().any():
            return True
        power = power @ mat
    return False


def count_words_by_power(shift, n):
    # the counting graph raised to the n-th power from scratch, in exact ints
    p = shift.presentation
    if n == 0:
        return int(p.start.any())
    if n <= p.block_length:
        return len({w[:n] for w in p.state_words})
    power = np.linalg.matrix_power(p.adjacency.astype(object), n - p.block_length)
    return int(power.sum() if p.block_length else power[0].sum())


def periodic_count_by_power(shift, n):
    # trace(A^n) on an SFT; on a labeled graph the n-words counted per
    # relation, walked from length 0, over the relations R with R^S != 0
    p = shift.presentation
    if p.block_length:
        return int(np.trace(np.linalg.matrix_power(p.adjacency.astype(object), n)))
    eye = np.eye(p.n_states, dtype=bool)
    rels, counts = {eye.tobytes(): eye}, {eye.tobytes(): 1}
    for _ in range(n):
        nxt = {}
        for key, count in counts.items():
            for a in shift.alphabet:
                rel = p.read(rels[key], a)
                if rel.any():
                    rels.setdefault(rel.tobytes(), rel)
                    nxt[rel.tobytes()] = nxt.get(rel.tobytes(), 0) + count
        counts = nxt
    return sum(count for key, count in counts.items()
               if np.linalg.matrix_power(rels[key], p.n_states).any())


def mobius(n):
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def spectrum_by_mobius(shift, n_max):
    # least periods by Mobius inversion of the per-n periodic counts
    per_div = {n: periodic_count_by_power(shift, n) for n in range(1, n_max + 1)}
    out = {}
    for n in range(1, n_max + 1):
        total = sum(mobius(n // d) * per_div[d] for d in range(1, n + 1) if n % d == 0)
        if total:
            out[n] = total
    return out


def dominant_eigenvalue(matrix, tol=1e-12, max_iter=100_000):
    # spectral radius of an irreducible nonnegative matrix by power iteration
    # on A + I, which is primitive, so the unit vector converges to the Perron
    # vector.  It stops when the vector settles: two Rayleigh quotients in a
    # row can agree by chance (20/13 on a 4-state component whose root is
    # 1.5214), and a stop on them alone misread that root
    shifted = np.asarray(matrix, dtype=float) + np.eye(len(matrix))
    v = np.ones(len(matrix)) / math.sqrt(len(matrix))
    for _ in range(max_iter):
        w = shifted @ v
        w /= np.linalg.norm(w)
        if np.abs(w - v).max() <= tol:
            break
        v = w
    return float(w @ shifted @ w) - 1.0


def boolean_powers(mat):
    # [A^1 > 0, ..., A^n > 0] for n states
    power, out = np.eye(len(mat), dtype=bool), []
    for _ in range(len(mat)):
        power = (power.astype(int) @ mat) > 0
        out.append(power)
    return out


def classify_by_powers(step):
    # irreducible: every state reaches every state in 1..n steps; period: gcd
    # of the n' <= n with trace(A^n') > 0 (every cycle is a sum of simple
    # cycles, which are no longer than the number of states)
    powers = boolean_powers(step)
    irreducible = bool(powers and np.logical_or.reduce(powers).all())
    period = math.gcd(*(k for k, power in enumerate(powers, 1) if power.diagonal().any()))
    return irreducible, period if irreducible else None


def entropy_by_power_iteration(adj):
    # log of the largest power-iteration root over the irreducible components
    # (classes of mutual reachability), where the Perron root is simple
    reach = np.logical_or.reduce([np.eye(len(adj), dtype=bool), *boolean_powers(adj)])
    comps = {tuple(np.flatnonzero(row)) for row in reach & reach.T}
    lam = max((dominant_eigenvalue(adj[np.ix_(c, c)]) for c in comps), default=0.0)
    return math.log(lam) if lam > 0 else -math.inf


def verify_factor_by_words(code, domain, codomain, n):
    # the per-word loop: map every domain n-word, then read every image
    images = [apply_block_code(code, w) for w in sorted(domain.words(n))]
    return all(word_in_language(codomain, img) for img in images)


# random forbidden-word SFTs over 01 / 012 and random 4-state labeled graphs
sft_specs = st.builds(
    lambda alphabet, forbidden: {
        "kind": "forbidden", "alphabet": list(alphabet),
        "forbidden": sorted(w for w in forbidden if set(w) <= set(alphabet))},
    st.sampled_from(["01", "012"]),
    st.sets(st.text(alphabet="012", min_size=1, max_size=3), max_size=5))
sofic_specs = st.builds(
    lambda edges: {"kind": "labeled-graph", "states": list("ABCD"),
                   "edges": [["ABCD"[s], a, "ABCD"[t]] for s, a, t in edges]},
    st.lists(st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from("01"),
                       st.integers(min_value=0, max_value=3)), min_size=1, max_size=8))
shift_specs = sft_specs | sofic_specs
spacing_specs = st.builds(
    lambda k, cutoff: {"kind": "spacing", "gap_modulus": k, "cutoff": cutoff},
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
# empty and one-point shifts, as forbidden words and as labeled graphs
EDGE_SPECS = [
    {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["0", "1"]},
    {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["1"]},
    {"kind": "labeled-graph", "states": ["A", "B"], "edges": [["A", "0", "B"]]},
    {"kind": "labeled-graph", "states": ["A", "B"], "edges": [["A", "0", "A"], ["A", "1", "B"]]},
]


# -- construction -----------------------------------------------------------


def test_build_errors():
    with pytest.raises(ShiftSpecError):
        build_subshift({"kind": "forbidden", "alphabet": [], "forbidden": []})
    with pytest.raises(ShiftSpecError):
        build_subshift({"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["12"]})
    with pytest.raises(ShiftSpecError):
        build_subshift({"kind": "edge-graph", "matrix": [[1, 2], [0, 1]]})
    with pytest.raises(ShiftSpecError):
        build_subshift({"kind": "nonsense"})


def test_periodic_spectrum_refuses_a_negative_n_max():
    # unchecked, periodic_spectrum(golden, -3) returned {}
    golden = build_subshift(GOLDEN)
    for call in (lambda: periodic_spectrum(golden, -3),
                 lambda: boyle_precondition(golden, build_subshift(EVEN), -1)):
        with pytest.raises(ShiftSpecError, match=r"n_max=-\d is not an integer >= 0"):
            call()
    assert periodic_spectrum(golden, 0) == {}


def test_golden_mean_language():
    golden = build_subshift(GOLDEN)
    assert language(golden, 2) == {"00", "01", "10"}
    assert language(golden, 0) == {""}
    counts = fib_counts(12)
    assert golden.word_counts(12)[1:] == counts
    assert all(len(golden.words(n)) == c for n, c in enumerate(golden.word_counts(10)))


def test_full_shift_language():
    full2 = build_subshift(FULL2)
    assert len(language(full2, 3)) == 8
    assert full2.word_counts(11) == [2 ** n for n in range(12)]


def test_even_shift_language_vs_brute_force():
    even = build_subshift(EVEN)
    assert language(even, 3) == even_brute_words(3)
    assert "101" not in language(even, 3)
    assert len(language(even, 3)) == 7
    for n in range(1, 13):
        assert language(even, n) == even_brute_words(n)


def test_spacing_subshift():
    sp = build_subshift({"kind": "spacing", "gap_modulus": 3, "cutoff": 9})
    assert sp.payload["allowed_gaps"] == [0, 3, 6, 9]
    assert sp.payload["cutoff"] == 9
    words = language(sp, 5)
    assert "10001" in words       # gap 3 allowed
    assert "10901"[0:5] not in words or True
    assert "10101" not in words   # gap 1 twice forbidden
    assert "11011" not in words   # gap 1 forbidden


def test_edge_graph_shift():
    golden_by_matrix = build_subshift({"kind": "edge-graph", "matrix": [[1, 1], [1, 0]]})
    assert golden_by_matrix.word_counts(4)[4] == fib_counts(4)[-1]
    cls = classify_sft(golden_by_matrix)
    assert cls["irreducible"] and cls["mixing"]


# -- entropy ----------------------------------------------------------------


def test_entropy_full_shift_exact():
    est = entropy_estimates(build_subshift(FULL2), 10)
    assert est["spectral"] == pytest.approx(math.log(2), abs=1e-10)
    assert est["ratio_estimate"] == pytest.approx(math.log(2), abs=1e-12)
    assert all(v == pytest.approx(math.log(2)) for _, v in est["sequence"])
    full3 = build_subshift({"kind": "forbidden", "alphabet": ["0", "1", "2"], "forbidden": []})
    est3 = entropy_estimates(full3, 6)
    assert est3["spectral"] == pytest.approx(math.log(3), abs=1e-10)


def test_entropy_golden_mean():
    est = entropy_estimates(build_subshift(GOLDEN), 20)
    assert est["spectral"] == pytest.approx(LOG_PHI, abs=1e-7)
    assert est["ratio_estimate"] == pytest.approx(LOG_PHI, abs=1e-7)
    assert not est["reducible_warning"]


def test_entropy_single_fixed_point():
    single = build_subshift({"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["1"]})
    est = entropy_estimates(single, 6)
    assert est["counts"] == [1] * 6
    assert est["spectral"] == pytest.approx(0.0, abs=1e-10)


def test_entropy_reducible_warning():
    two_fixed = build_subshift(
        {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["01", "10"]})
    est = entropy_estimates(two_fixed, 6)
    assert est["reducible_warning"]
    assert est["spectral"] == pytest.approx(0.0, abs=1e-9)


def test_subadditivity_of_log_counts():
    shifts = [build_subshift(GOLDEN), build_subshift(EVEN), build_subshift(FULL2),
              build_subshift({"kind": "spacing", "gap_modulus": 2, "cutoff": 7})]
    for shift in shifts:
        counts = shift.word_counts(12)
        for n in range(1, 12):
            for m in range(1, 13 - n):
                assert counts[n + m] <= counts[n] * counts[m]


# -- classification ----------------------------------------------------------


def test_classify_examples():
    assert classify_sft(build_subshift(FULL2)) == {"irreducible": True, "mixing": True, "period": 1}
    golden_cls = classify_sft(build_subshift(GOLDEN))
    assert golden_cls["irreducible"] and golden_cls["mixing"] and golden_cls["period"] == 1
    two_fixed = build_subshift(
        {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["01", "10"]})
    assert not classify_sft(two_fixed)["irreducible"]
    period2 = build_subshift(
        {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["00", "11"]})
    cls = classify_sft(period2)
    assert cls["irreducible"] and not cls["mixing"] and cls["period"] == 2


def test_classify_labeled_graphs_on_the_essential_graph():
    # the even shift is irreducible and mixing; its subset automaton, whose
    # all-states start is transient, is not
    assert classify_sft(build_subshift(EVEN)) == {"irreducible": True, "mixing": True, "period": 1}
    assert not entropy_estimates(build_subshift(EVEN), 8)["reducible_warning"]
    # a reducible presentation and a periodic one prove nothing: two fixed
    # points, and the one fixed point a^infinity on a 2-cycle
    two_loops = build_subshift({"kind": "labeled-graph", "states": ["A", "B"],
                                "edges": [["A", "a", "A"], ["B", "b", "B"]]})
    assert classify_sft(two_loops) == {"irreducible": None, "mixing": None, "period": None}
    assert entropy_estimates(two_loops, 4)["reducible_warning"]
    cycle = build_subshift({"kind": "labeled-graph", "states": ["A", "B"],
                            "edges": [["A", "a", "B"], ["B", "a", "A"]]})
    assert classify_sft(cycle) == {"irreducible": True, "mixing": None, "period": None}


def test_reducible_block_graph_has_no_period():
    # two 2-cycles, the first leading into the second: every periodic point
    # has least period 2, but a reducible graph has no period (a gcd taken
    # across DFS cross edges gives 1)
    reducible = build_subshift({"kind": "edge-graph", "matrix": [
        [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]]})
    assert classify_sft(reducible) == {"irreducible": False, "mixing": False, "period": None}
    assert periodic_spectrum(reducible, 8) == {2: 4}
    assert entropy_estimates(reducible, 4)["reducible_warning"]


@given(shift_specs | spacing_specs)
def test_classification_and_spectral_entropy_match_oracles(spec):
    shift = build_subshift(spec)
    p = shift.presentation
    irreducible, period = classify_by_powers(p.step)
    mixing = irreducible and period == 1
    if p.block_length:
        expected = {"irreducible": irreducible, "mixing": mixing, "period": period}
    else:
        expected = {"irreducible": irreducible or None, "mixing": mixing or None,
                    "period": 1 if mixing else None}
    assert classify_sft(shift) == expected
    est = entropy_estimates(shift, 2)
    assert est["reducible_warning"] == (not irreducible)
    oracle = entropy_by_power_iteration(p.adjacency)
    assert est["spectral"] == oracle or abs(est["spectral"] - oracle) < 1e-8


def test_golden_primitivity_by_squaring():
    # oracle: [[1,1],[1,0]]^2 > 0
    a = [[1, 1], [1, 0]]
    sq = [[sum(a[i][k] * a[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert all(v > 0 for row in sq for v in row)
    assert classify_sft(build_subshift(GOLDEN))["mixing"]


def test_mixing_implies_cofinite_hitting_sets():
    horizon = 40
    for shift in (build_subshift(FULL2), build_subshift(GOLDEN)):
        assert classify_sft(shift)["mixing"]
        for lu in range(1, 5):
            for lv in range(1, 5):
                for u in shift.words(lu):
                    for v in shift.words(lv):
                        ns = cylinder_hitting(shift, u, v, horizon)
                        tail = set(range(lu + 2, horizon + 1))
                        assert tail <= set(ns)


# -- periodic spectra ---------------------------------------------------------


def test_periodic_spectrum_full_shift_brute():
    assert periodic_spectrum(build_subshift(FULL2), 3) == full2_least_periods(3)
    assert periodic_spectrum(build_subshift(FULL2), 6) == full2_least_periods(6)


def test_periodic_spectrum_golden_and_single():
    assert periodic_spectrum(build_subshift(GOLDEN), 1) == {1: 1}
    single = build_subshift({"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["1"]})
    assert periodic_spectrum(single, 5) == {1: 1}


def test_periodic_spectrum_even_shift():
    spec = periodic_spectrum(build_subshift(EVEN), 4)
    # fixed points 0^inf and 1^inf; (001)-type orbits at period 3; (0011) at 4
    assert spec[1] == 2 and spec[3] == 3 and spec[4] == 4 and 2 not in spec


def assert_walks_match_powers(spec, n_max=12):
    shift = build_subshift(spec)
    assert shift.word_counts(n_max) == [count_words_by_power(shift, n) for n in range(n_max + 1)]
    per = shift.periodic_counts(n_max)
    assert per == [0] + [periodic_count_by_power(shift, n) for n in range(1, n_max + 1)]
    assert periodic_spectrum(shift, n_max) == spectrum_by_mobius(shift, n_max)


@pytest.mark.parametrize("spec", EDGE_SPECS)
def test_walks_match_per_n_powers_on_empty_and_one_point_shifts(spec):
    assert_walks_match_powers(spec)
    counts = build_subshift(spec).word_counts(12)
    assert counts == [0] * 13 or counts == [1] * 13


@given(shift_specs | spacing_specs)
def test_walks_match_per_n_powers(spec):
    assert_walks_match_powers(spec)


def test_spacing_shift_counts_and_spectrum():
    # gap modulus 3, cutoff 12: 275 block-graph states
    spacing = build_subshift({"kind": "spacing", "gap_modulus": 3, "cutoff": 12})
    assert spacing.presentation.n_states == 275
    assert spacing.word_counts(20)[1:] == [
        2, 4, 7, 11, 17, 26, 39, 58, 86, 127, 187, 275, 404, 593, 871, 1281, 1885,
        2774, 4083, 6011]
    assert periodic_spectrum(spacing, 12) == {
        1: 2, 4: 4, 5: 5, 6: 6, 7: 14, 8: 16, 9: 27, 10: 40, 11: 66, 12: 84}


# -- factor machinery ----------------------------------------------------------


def test_boyle_preconditions():
    rep = boyle_precondition(build_subshift(GOLDEN), build_subshift(EVEN), 10)
    assert rep["per_divides"]
    assert abs(rep["entropy_gap"]) <= rep["entropy_gap_bound"] == symbolic.ENTROPY_GAP_BOUND
    assert not rep["hypotheses_hold"]  # equal entropies

    rep2 = boyle_precondition(build_subshift(FULL2), build_subshift(GOLDEN), 10)
    assert rep2["per_divides"]
    assert rep2["entropy_gap"] == pytest.approx(math.log(2) - LOG_PHI, abs=1e-6)
    assert rep2["hypotheses_hold"]

    rep3 = boyle_precondition(build_subshift(GOLDEN), build_subshift(GOLDEN), 8)
    assert rep3["entropy_gap"] == 0.0
    assert not rep3["hypotheses_hold"]


def test_boyle_gap_on_chained_components_of_equal_entropy():
    # three golden mean graphs chained one into the next, relabeled out of
    # block-triangular order: the Perron root phi is defective in the whole
    # matrix, where LAPACK's root was off by 4.5e-6 (OpenBLAS 0.3.31) and
    # read a gap that does not exist; per irreducible component it is log phi
    chain = build_subshift({"kind": "edge-graph", "matrix": [
        [1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1], [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 0, 1, 0, 1]]})
    assert entropy_estimates(chain, 4)["spectral"] == pytest.approx(LOG_PHI, abs=1e-12)
    rep = boyle_precondition(chain, build_subshift(GOLDEN), 6)
    assert rep["per_divides"]
    assert abs(rep["entropy_gap"]) <= rep["entropy_gap_bound"]
    assert not rep["hypotheses_hold"]


def test_block_code_application():
    code = golden_to_even_code()
    assert apply_block_code(code, "000") == "11"
    assert apply_block_code(code, "0100101") == "001000"
    ident = symbolic.SlidingBlockCode(0, 0, {"0": "0", "1": "1"})
    assert apply_block_code(ident, "0101") == "0101"
    with pytest.raises(RuleUndefinedError):
        apply_block_code(code, "110")
    with pytest.raises(RuleUndefinedError):
        apply_block_code(code, "0")


def test_verify_factor_range():
    code = golden_to_even_code()
    golden = build_subshift(GOLDEN)
    even = build_subshift(EVEN)
    for n in range(2, 17):
        assert verify_factor(code, golden, even, n)
    # a wrong rule fails fast
    bad = symbolic.SlidingBlockCode(0, 1, {"00": "1", "01": "1", "10": "0"})
    assert not verify_factor(bad, golden, even, 6)


def test_verify_factor_raises_on_a_missing_window():
    golden, even = build_subshift(GOLDEN), build_subshift(EVEN)
    # "10" occurs in the golden mean shift; "11" does not and may be left out
    lacks_10 = symbolic.SlidingBlockCode(0, 1, {"00": "1", "01": "0"})
    with pytest.raises(RuleUndefinedError):
        verify_factor(lacks_10, golden, even, 6)
    # the raise does not depend on whether some other word fails first
    lacks_10_and_wrong = symbolic.SlidingBlockCode(0, 1, {"00": "1", "01": "1"})
    for n in range(2, 8):
        with pytest.raises(RuleUndefinedError):
            verify_factor(lacks_10_and_wrong, golden, even, n)


@given(shift_specs, shift_specs, st.data())
def test_verify_factor_matches_per_word_oracle(dom_spec, cod_spec, data):
    domain, codomain = build_subshift(dom_spec), build_subshift(cod_spec)
    memory = data.draw(st.integers(min_value=0, max_value=2))
    anticipation = data.draw(st.integers(min_value=0, max_value=2 - memory))
    window = memory + anticipation + 1
    windows = ["".join(t) for t in itertools.product(domain.alphabet, repeat=window)]
    outputs = data.draw(st.lists(st.sampled_from(codomain.alphabet),
                                 min_size=len(windows), max_size=len(windows)))
    missing = data.draw(st.sets(st.sampled_from(windows), max_size=2) | st.just(set()))
    code = symbolic.SlidingBlockCode(memory, anticipation, {
        w: out for w, out in zip(windows, outputs) if w not in missing})
    n = data.draw(st.integers(min_value=window, max_value=window + 4))
    try:
        expected = verify_factor_by_words(code, domain, codomain, n)
    except RuleUndefinedError:
        with pytest.raises(RuleUndefinedError):
            verify_factor(code, domain, codomain, n)
        return
    assert verify_factor(code, domain, codomain, n) == expected


def test_cylinder_hitting_full_shift():
    # oracle: any placement works once the windows stop overlapping
    full2 = build_subshift(FULL2)
    assert cylinder_hitting(full2, "1", "0", 10) == list(range(1, 11))
    ns = cylinder_hitting(full2, "111", "000", 10)
    assert set(range(3, 11)) <= set(ns)
    assert 1 not in ns and 2 not in ns  # overlap conflicts


def longer_words(shift):
    return sorted(shift.words(3))[:4] + sorted(shift.words(4))[-3:]


def assert_tensor_matches_cylinder_hitting(shift, extra_words=()):
    # every word up to length 2 over the alphabet, in the language or not,
    # plus some longer language words so the merged-word region is exercised;
    # horizons 1 and 2 stop inside the longer words
    words = ["".join(t) for L in (1, 2) for t in itertools.product(shift.alphabet, repeat=L)]
    words += sorted(w for w in extra_words if w not in words)
    for horizon in (1, 2, 9):
        hits = cylinder_tensor(shift, words, horizon)
        assert not hits[0].any()
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                assert (list(map(int, hits[:, i, j].nonzero()[0]))
                        == cylinder_hitting(shift, u, v, horizon)), (u, v, horizon)
    # the hitting_set op reads one pair of the same tensor
    for u, v in zip(words, words[::-1]):
        assert properties.hitting_set(shift, u, v, 9) == cylinder_hitting(shift, u, v, 9)


@given(st.sampled_from(["01", "012"]),
       st.sets(st.text(alphabet="012", min_size=1, max_size=3), max_size=5))
def test_cylinder_tensor_matches_cylinder_hitting_on_random_sfts(alphabet, forbidden):
    shift = build_subshift({"kind": "forbidden", "alphabet": list(alphabet),
                            "forbidden": sorted(w for w in forbidden if set(w) <= set(alphabet))})
    assert_tensor_matches_cylinder_hitting(shift, longer_words(shift))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from("01"),
                          st.integers(min_value=0, max_value=3)), min_size=1, max_size=8))
def test_cylinder_tensor_matches_cylinder_hitting_on_random_sofic_shifts(edges):
    shift = build_subshift({"kind": "labeled-graph", "states": ["A", "B", "C", "D"],
                            "edges": [["ABCD"[s], a, "ABCD"[t]] for s, a, t in edges]})
    assert_tensor_matches_cylinder_hitting(shift, longer_words(shift))


def test_window_model_sampling_respects_language():
    golden = build_subshift(GOLDEN)
    model = symbolic.window_model(golden, count=24, radius=16, seed=4)
    for i in range(model.n_points):
        row = "".join(str(model.symbol(i, p)) for p in range(-16, 17))
        assert "11" not in row


def test_one_sided_flag_recorded():
    s = build_subshift({"kind": "forbidden", "alphabet": ["0", "1"],
                        "forbidden": [], "one_sided": True})
    assert s.one_sided
    assert s.to_json()["one_sided"]


def test_language_csv():
    est = entropy_estimates(build_subshift(GOLDEN), 6)
    rows = [[n, c, v] for (n, v), c in zip(est["sequence"], est["counts"])]
    lines = cli.csv_text(["n", "count", "log_count_over_n"], rows).strip().splitlines()
    assert lines[0] == "n,count,log_count_over_n"
    assert lines[1].startswith("1,2,")


@given(st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4))
def test_sft_language_count_agreement(forbidden):
    shift = build_subshift({"kind": "forbidden", "alphabet": ["0", "1"],
                            "forbidden": sorted(forbidden)})
    for n, count in enumerate(shift.word_counts(8)):
        assert len(shift.words(n)) == count


@given(shift_specs)
def test_periodic_count_matches_per_word_oracle(spec):
    per = build_subshift(spec).periodic_counts(8)
    for n in range(1, 9):
        assert per[n] == periodic_points_by_words(spec, n), n


@given(shift_specs)
def test_word_in_language_matches_words(spec):
    # every word up to length 4, plus words with a symbol outside the alphabet
    shift = build_subshift(spec)
    for n in range(5):
        language_n = shift.words(n)
        for w in map("".join, itertools.product(shift.alphabet + ("x",), repeat=n)):
            assert word_in_language(shift, w) == (w in language_n), w


@given(sofic_specs)
def test_sofic_count_words_matches_words(spec):
    shift = build_subshift(spec)
    for n, count in enumerate(shift.word_counts(8)):
        assert count == len(shift.words(n)), n
