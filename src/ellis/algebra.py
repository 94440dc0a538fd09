"""Finite right-topological semigroup analysis.

The envelope of a finite-exact model (base or hyperspace) is the monogenic
monoid {f^0, ..., f^(index+period-1)} with f^i f^j = f^fold(i+j); index and
period determine its idempotents, minimal left ideals, kernel and groups
(Clifford & Preston 1961, Section 1.6; Howie 1995, Ch. 1), so
``MonogenicMonoid`` answers them in O(size) and builds its table only when
something reads it.  ``FiniteSemigroup`` analyses an explicit composition
table: approximate envelopes, whose snap error can break associativity at
the resolution boundary, run every check in report mode; user tables, with
their identity and generator, are validated strictly.  Each envelope holds
its own as ``env.semigroup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import check_cells, cycle_structure


class TableError(ValueError):
    """Composition table fails a structural invariant in strict mode."""


@dataclass
class FiniteSemigroup:
    table: np.ndarray
    identity: int | None = None
    generator: int | None = None
    source: str = "table"          # table | exact | approx
    associativity_violations: int = 0

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.int64)
        n = self.size
        if self.table.shape != (n, n):
            raise TableError("table must be square")
        if n and ((self.table < 0).any() or (self.table >= n).any()):
            raise TableError("table is not closed")
        if self.source != "approx":
            for what, v in (("identity", self.identity), ("generator", self.generator)):
                if v is not None and not (isinstance(v, (int, np.integer)) and 0 <= v < n):
                    raise TableError(f"{what} {v!r} is not an element of a {n}-element table")
            e, r = self.identity, np.arange(n)
            if e is not None and not ((self.table[e] == r) & (self.table[:, e] == r)).all():
                raise TableError(f"element {e} is not an identity of the table")
        self.associativity_violations = self._associativity_scan()
        if self.associativity_violations and self.source != "approx":
            raise TableError(
                f"{self.associativity_violations} associativity violations in a strict table"
            )

    @property
    def size(self) -> int:
        return int(self.table.shape[0])

    def _associativity_scan(self) -> int:
        """Violations of t[t[i, j], k] == t[i, t[j, k]]: over every triple of
        a strict table (refused over ``CELL_BUDGET`` triples) or of an
        approximate one of at most 64 elements, else over 4096 seeded random
        triples."""
        n, t = self.size, self.table
        if n > 64 and self.source == "approx":
            rng = np.random.default_rng(0)
            i, j, k = (rng.integers(0, n, 4096) for _ in range(3))
            return int((t[t[i, j], k] != t[i, t[j, k]]).sum())
        check_cells(n ** 3, f"the associativity check of a {n}-element table")
        step = max(1, 2 ** 20 // max(1, n * n))     # rows of about 2**20 triples
        return sum(int((t[t[lo:lo + step]] != t[lo:lo + step][:, t]).sum())
                   for lo in range(0, n, step))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def to_json(self) -> dict:
        return {
            "schema": "ellis.semigroup/1",
            "size": self.size,
            "table": self.table.tolist(),
            "identity": self.identity,
            "generator": self.generator,
            "source": self.source,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteSemigroup":
        return cls(np.asarray(doc["table"]), doc.get("identity"),
                   doc.get("generator"), doc.get("source", "table"))


@dataclass(frozen=True)
class MonogenicMonoid:
    """The iterate monoid {f^0, ..., f^(size-1)} of a map of this index and
    period, f^i f^j = f^fold(i+j); associative by construction."""

    index: int
    period: int
    identity = 0

    @property
    def size(self) -> int:
        return self.index + self.period

    @property
    def generator(self) -> int:
        return 1 if self.size > 1 else 0

    @property
    def kernel(self) -> tuple:
        """The cycle part, a cyclic group: the one minimal (left) ideal."""
        return tuple(range(self.index, self.size))

    @property
    def cycle_idempotent(self) -> int:
        """f^m, m the least multiple of the period that is >= index: the
        identity of the kernel."""
        return -(-self.index // self.period) * self.period

    @cached_property
    def table(self) -> np.ndarray:
        size = self.size
        check_cells(size * size, f"the table of an exact envelope of {size} elements")
        # fold(i + j), in place so the table is the only size**2 array
        r = np.arange(size, dtype=np.int64)
        table = np.add.outer(r - self.index, r)
        np.remainder(table, self.period, out=table, where=table >= 0)
        table += self.index
        return table


# ---------------------------------------------------------------------------
# idempotents and ideals
# ---------------------------------------------------------------------------


def idempotents(s: FiniteSemigroup | MonogenicMonoid) -> list[int]:
    if isinstance(s, MonogenicMonoid):
        return sorted({s.identity, s.cycle_idempotent})
    t = s.table
    return [int(i) for i in range(s.size) if t[i, i] == i]


def minimal_left_ideals(s: FiniteSemigroup | MonogenicMonoid) -> list[tuple[int, ...]]:
    """Inclusion-minimal principal left ideals S.a (with a adjoined): S.b is
    a proper subset of S.a when they share |S.b| elements and |S.b| < |S.a|."""
    if isinstance(s, MonogenicMonoid):
        return [s.kernel]
    n = s.size
    member = np.zeros((n, n), dtype=bool)
    member[np.arange(n)[:, None], s.table.T] = True
    member[np.arange(n), np.arange(n)] = True
    sizes = member.sum(axis=1)
    rows = member.astype(np.float32)
    shared = rows @ rows.T                     # shared[a, b] = |S.a ∩ S.b|
    below = (shared == sizes[None, :]) & (sizes[None, :] < sizes[:, None])
    minimal = {tuple(np.flatnonzero(row).tolist()) for row in member[~below.any(axis=1)]}
    return sorted(minimal, key=lambda x: (len(x), x))


@dataclass
class IdealDecomposition:
    minimal_left_ideals: list
    idempotents_per_ideal: list
    groups: dict
    kernel: tuple
    partition_ok: bool
    groups_ok: bool
    ideals_have_idempotents: bool


def kernel_and_groups(s: FiniteSemigroup | MonogenicMonoid) -> IdealDecomposition:
    if isinstance(s, MonogenicMonoid):
        # one ideal, the kernel, a cyclic group of order period around f^m
        k, m = s.kernel, s.cycle_idempotent
        return IdealDecomposition([k], [(m,)], {(k, m): k}, k, True, True, True)
    t = s.table
    ideals = minimal_left_ideals(s)
    idem = set(idempotents(s))
    per_ideal = [tuple(sorted(set(i) & idem)) for i in ideals]
    groups = {}
    partition_ok = True
    groups_ok = True
    for ideal, js in zip(ideals, per_ideal):
        seen = set()
        for v in js:
            vi = tuple(sorted({int(t[v, p]) for p in ideal}))
            groups[(ideal, v)] = vi
            if seen & set(vi):
                partition_ok = False
            seen |= set(vi)
            groups_ok &= _is_group_on(t, vi, v)
        if seen != set(ideal):
            partition_ok = False
    kernel = tuple(sorted({p for i in ideals for p in i}))
    return IdealDecomposition(
        [tuple(i) for i in ideals], per_ideal, groups, kernel,
        partition_ok, groups_ok, all(js for js in per_ideal),
    )


def _is_group_on(t, members, identity) -> bool:
    """``identity`` is a two-sided identity on ``members``, which are closed
    under the table and each have an inverse among them."""
    m = np.asarray(members, dtype=np.int64)
    sub = t[np.ix_(m, m)]
    return bool((t[identity, m] == m).all() and (t[m, identity] == m).all()
                and np.isin(sub, m).all()
                and ((sub == identity) & (sub.T == identity)).any(axis=1).all())


def ideal_isomorphism_check(s: FiniteSemigroup | MonogenicMonoid, ideal_i, ideal_k) -> dict:
    """Pair an idempotent of I with its partner in K and verify that right
    multiplication by the partner is an equivariant bijection I -> K.

    Both pairing orientations are searched and the successful one recorded.
    A monogenic monoid's one minimal ideal, its kernel, pairs with itself
    through its identity f^m, u = v = m: the first orientation holds, and
    p -> p f^m is the identity map, equivariant by associativity.
    """
    if isinstance(s, MonogenicMonoid) and tuple(ideal_i) == tuple(ideal_k) == s.kernel:
        m = s.cycle_idempotent
        return {"isomorphic": True, "pairing": {"u": m, "v": m, "orientation": "uv=v,vu=u"},
                "bijective": True, "equivariance_violations": []}
    t = s.table
    set_i, set_k = set(ideal_i), set(ideal_k)
    js_i = [u for u in idempotents(s) if u in set_i]
    js_k = [v for v in idempotents(s) if v in set_k]
    if not js_i or not js_k:
        return {"isomorphic": False, "reason": "ideal without idempotent"}
    pairing = None
    for u in js_i:
        for v in js_k:
            if t[u, v] == v and t[v, u] == u:
                pairing = (u, v, "uv=v,vu=u")
                break
            if t[u, v] == u and t[v, u] == v:
                pairing = (u, v, "uv=u,vu=v")
                break
        if pairing:
            break
    if pairing is None:
        return {"isomorphic": False, "reason": "no idempotent pairing found"}
    u, v, orientation = pairing
    image = [int(t[p, v]) for p in ideal_i]
    bijective = set(image) == set_k and len(set(image)) == len(ideal_i)
    # (s p) v against s (p v) for every element s and every p in I, in
    # element-major, then ideal order
    members = np.asarray(ideal_i, dtype=np.int64)
    bad = t[t[:, members], v] != t[:, t[members, v]]
    rows, cols = np.nonzero(bad)
    violations = list(zip(rows.tolist(), members[cols].tolist()))
    return {
        "isomorphic": bool(bijective and not violations),
        "pairing": {"u": u, "v": v, "orientation": orientation},
        "bijective": bijective,
        "equivariance_violations": violations,
    }


def is_group_distal(s: FiniteSemigroup | MonogenicMonoid) -> dict:
    """Group test (a table with an identity, whose rows and columns are each
    a permutation) against the unique-idempotent test.  A monogenic monoid is
    a group, and its one idempotent the identity, exactly when its index is
    0: otherwise f^m with m >= index is a second idempotent."""
    if isinstance(s, MonogenicMonoid):
        is_group = unique = s.index == 0
    else:
        t = s.table
        idem = idempotents(s)
        has_identity = s.identity is not None
        target = np.arange(s.size)
        is_group = has_identity and bool((np.sort(t, axis=1) == target).all()
                                         and (np.sort(t, axis=0) == target[:, None]).all())
        unique = len(idem) == 1 and has_identity and idem[0] == s.identity
    return {
        "is_group": bool(is_group),
        "unique_idempotent_is_identity": bool(unique),
        "agree": bool(is_group == unique),
    }


# ---------------------------------------------------------------------------
# proximality
# ---------------------------------------------------------------------------


def proximal_structure(env) -> dict:
    """Proximal pairs, per-ideal relations, and the unique-ideal biconditional.

    A pair is proximal when some envelope element identifies it (within tau
    for sampled models); the relation attached to a minimal left ideal keeps
    the pairs identified by every element of the ideal.

    On an exact envelope f^m x = f^m y for one m holds for every larger m,
    so g = f^index identifies every proximal pair, and so does each element
    of the one minimal ideal, the kernel: proximality is the kernel of g,
    an equivalence, and its pairs are counted from g's fibre sizes with no
    N×N matrix.  An approximate envelope holds one N×N collapse matrix per
    element, refused over ``CELL_BUDGET`` cells.
    """
    from .envelope import ExactEnvelope

    model = env.model
    n = model.n_points
    if isinstance(env, ExactEnvelope):
        pairs = env.proximal_pair_count
        return {"pair_count": pairs, "ideal_count": 1, "per_ideal_pair_counts": [pairs],
                "is_equivalence": True, "theorem_er_consistent": True, "finitely_proximal": True}
    size = len(env.elements)
    check_cells((size + 1) * n * n, f"the proximal relation of {size} elements over {n} points")
    ideals = minimal_left_ideals(env.semigroup)
    left, right = np.divmod(np.arange(n * n), n)
    collapse = np.empty((size, n, n), dtype=bool)
    for k, el in enumerate(env.elements):
        d = model.image_pair_dist(model.apply_to_indices(el.images, left),
                                  model.apply_to_indices(el.images, right))
        collapse[k] = (d <= env.tau).reshape(n, n)
    prox = collapse.any(axis=0)
    off = ~np.eye(n, dtype=bool)
    closed = prox | ~off
    transitive = not ((closed @ closed) & ~closed).any()
    return {
        "pair_count": int(prox[off].sum()) // 2,
        "ideal_count": len(ideals),
        "per_ideal_pair_counts": [int(collapse[list(i)].all(axis=0)[off].sum()) // 2
                                  for i in ideals],
        "is_equivalence": bool(transitive),
        "theorem_er_consistent": bool((len(ideals) == 1) == transitive),
        "finitely_proximal": True,
    }


# ---------------------------------------------------------------------------
# periodicity and recurrence inside the envelope
# ---------------------------------------------------------------------------


def _generator_cycles(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cycle_structure`` of left multiplication by the generator; in a
    monogenic monoid f^k is index - k steps from the kernel, one cycle of
    length period whose least element is f^index."""
    if isinstance(s, MonogenicMonoid):
        k = np.arange(s.size, dtype=np.int64)
        return np.maximum(s.index - k, 0), np.full_like(k, s.period), np.full_like(k, s.index)
    return cycle_structure(s.table[s.generator])


def periodic_element_analysis(env) -> dict:
    """Periodic points of the envelope under left multiplication by the
    generator: their common period, whether each orbit is a minimal left
    ideal, and the 2n count bound."""
    s = env.semigroup
    if s.generator is None:
        raise TableError("envelope has no generator element")
    ideals = {frozenset(i) for i in minimal_left_ideals(s)}
    tail, length, root = _generator_cycles(s)
    on_cycle = tail == 0
    periodic = np.flatnonzero(on_cycle).tolist()
    periods = sorted(set(length[on_cycle].tolist()))
    # the orbit of a periodic point is its cycle: the periodic points of its root
    cycle_minimal = {r: frozenset(np.flatnonzero(on_cycle & (root == r)).tolist()) in ideals
                     for r in set(root[on_cycle].tolist())}
    orbits_minimal = {p: cycle_minimal[int(root[p])] for p in periodic}
    common = periods[0] if len(periods) == 1 else (math.lcm(*periods) if periods else None)
    bound_ok = (not periodic) or len(periodic) <= 2 * max(periods)
    return {
        "periodic_elements": periodic,
        "least_periods": {p: int(length[p]) for p in periodic},
        "all_periods_equal": len(periods) <= 1,
        "common_period": common,
        "orbit_is_minimal_ideal": orbits_minimal,
        "count_bound_ok": bool(bound_ok),
        "count": len(periodic),
    }


def recurrent_idempotent_check(env, horizon: int | None = None) -> dict:
    """Each idempotent should be revisited by the generator orbit; an
    isolated identity is exempted (it is a limit of no nontrivial iterate)."""
    from .envelope import identity_isolated

    s = env.semigroup
    if s.generator is None:
        raise TableError("envelope has no generator element")
    horizon = horizon or s.size + 1
    # u returns to itself first after length[u] steps if it is on a cycle
    tail, length, _ = _generator_cycles(s)
    report = {u: int(length[u]) if tail[u] == 0 and length[u] <= horizon else None
              for u in idempotents(s)}
    iso = identity_isolated(env)
    required = {u: w for u, w in report.items()
                if not (u == s.identity and iso["isolated"])}
    return {
        "witnesses": report,
        "identity_exempt": bool(iso["isolated"]),
        "all_required_recurrent": all(w is not None for w in required.values()),
    }


# ---------------------------------------------------------------------------
# randomized equivalence corpus
# ---------------------------------------------------------------------------


def _monoid_checks(env) -> tuple:
    """The corpus checks that read only the envelope's monoid, run on the
    first model of each (index, period): the violation tags that come before
    and after the proximality checks, the group test, and the ideal count."""
    from .envelope import envelope_power_decomposition

    # the generic path over the strict table is the oracle of the closed form
    s = FiniteSemigroup(env.table, env.identity_index, env.generator_index, "exact")
    idem = idempotents(s)
    ideals = minimal_left_ideals(s)
    before, after = [], []
    if not idem:
        before.append("nakamura")
    monoid = env.semigroup
    if idem != idempotents(monoid) or ideals != minimal_left_ideals(monoid):
        before.append("monogenic-closed-form")
    for a in range(len(ideals)):
        for b in range(len(ideals)):
            if not ideal_isomorphism_check(s, ideals[a], ideals[b])["isomorphic"]:
                after.append(f"ideal-isomorphism-{a}-{b}")
    for pn in (2, 3):
        if not envelope_power_decomposition(env, pn)["equal"]:
            after.append(f"power-decomposition-{pn}")
    return before, is_group_distal(s), len(ideals), after


def run_equivalence_corpus(count: int = 500, max_points: int = 8, seed: int = 7) -> dict:
    """Exercise the theorem equivalences on random finite-exact models.

    Checks, per model: the closed-form idempotents and minimal left ideals
    of the monogenic monoid equal those the generic path reads from the
    strict table; group <=> unique idempotent = identity <=> no
    nontrivial proximal pair; unique minimal left ideal <=> proximality
    transitive; minimal-ideal pairs isomorphic; power decomposition at
    n = 2 and 3; an idempotent exists; distal consequences (pointwise almost
    periodic orbits and surjectivity).

    The envelope of a finite map is the monogenic monoid of its (index,
    period), so the random models share a few dozen monoids.  The checks
    that read only the monoid (the strict table and its associativity scan,
    the generic idempotents and ideals against the closed forms, the group
    test, every ideal isomorphism and both power decompositions) run once
    per distinct monoid, on the first model that has it, and each model
    repeats their violations; the proximal structure and the distal
    consequences are checked on every model.
    """
    from .envelope import exact_envelope
    from .properties import distal_semiflow_check
    from .spaces import FiniteModel

    rng = np.random.default_rng(seed)
    metrics, per_monoid, violations = {}, {}, []
    for trial in range(count):
        n = int(rng.integers(2, max_points + 1))
        invertible = bool(rng.random() < 0.5)
        if invertible:
            table = rng.permutation(n)
            inverse = np.argsort(table)
        else:
            table = rng.integers(0, n, n)
            inverse = np.argsort(table) if sorted(table) == list(range(n)) else None
        if n not in metrics:
            coords = np.linspace(0.0, 1.0, n)
            metrics[n] = coords, lambda a, b, coords=coords: np.abs(
                coords[np.asarray(a)] - coords[np.asarray(b)])
        model = FiniteModel(f"corpus-{trial}", {"seed": seed}, *metrics[n],
                            table, inverse, "interval")
        env = exact_envelope(model)
        if env.semigroup not in per_monoid:
            per_monoid[env.semigroup] = _monoid_checks(env)
        before, gd, ideal_count, after = per_monoid[env.semigroup]
        violations += [(trial, tag) for tag in before]
        prox = proximal_structure(env)
        no_pairs = prox["pair_count"] == 0
        if not (gd["is_group"] == gd["unique_idempotent_is_identity"] == no_pairs):
            violations.append((trial, "distal-equivalences"))
        if (ideal_count == 1) != prox["is_equivalence"]:
            violations.append((trial, "unique-ideal-vs-transitivity"))
        violations += [(trial, tag) for tag in after]
        if no_pairs and not distal_semiflow_check(env)["consequences_hold"]:
            violations.append((trial, "distal-semiflow-consequences"))
    return {"count": count, "violations": violations, "ok": not violations}
