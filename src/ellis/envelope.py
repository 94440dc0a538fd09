"""Envelopes of cascades and semicascades.

For finite-exact models the pointwise closure of the iterates is the literal
iterate monoid, computed exactly.  For sampled models the envelope is the
tolerance-clustered family of iterates over the sample: iterates are
evaluated by composing the raw evaluator (never snapping mid-orbit), clusters
are formed under sup-distance, clusters witnessed by at least three tail
iterates count as limit elements, and the composition table is closed by
evaluating products pointwise and snapping to the nearest existing element.

Iterate/iterate products are folded through exponent arithmetic, which is
exact; only products involving limit elements go through the snap path, and
the worst snap error is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .spaces import (CascadeModel, FiniteModel, InvalidParameterError, NegativePowerError,
                     cycle_structure)


class EnvelopeBudgetError(RuntimeError):
    """An envelope would exceed its size budget."""


# int64 cells an exact envelope may hold in its maps and table together (1 GiB)
CELL_BUDGET = 2 ** 27


@dataclass
class MapSample:
    name: str
    images: object
    origin: int                      # exponent that created the cluster
    exponents: list = field(default_factory=list)
    provenance: str = "iterate"      # iterate | limit | composite
    tail_count: int = 0
    is_limit: bool = False


def _exponent_order(horizon: int, two_sided: bool):
    if not two_sided:
        return list(range(horizon + 1))
    out = [0]
    for n in range(1, horizon + 1):
        out.extend((n, -n))
    return out


class _EnvelopeBase:
    """Shared queries over an element list plus composition table."""

    model: CascadeModel
    elements: list
    table: np.ndarray | None
    identity_index: int = 0
    generator_index: int | None = None

    def element_of_exponent(self, n: int):
        raise NotImplementedError

    def element_names(self):
        return [e.name for e in self.elements]

    def sup_distance(self, i: int, j: int) -> float:
        return self.model.image_sup_dist(self.elements[i].images, self.elements[j].images)

    def render_table(self) -> str:
        names = self.element_names()
        width = max(len(n) for n in names) + 1
        head = " " * width + "".join(n.rjust(width) for n in names)
        rows = [head]
        for i, n in enumerate(names):
            cells = "".join(
                (names[self.table[i, j]] if self.table[i, j] >= 0 else "?").rjust(width)
                for j in range(len(names))
            )
            rows.append(n.rjust(width) + cells)
        return "\n".join(rows)

    def to_json(self, include_images: bool = False) -> dict:
        out = {
            "schema": "ellis.envelope/1",
            "model": self.model.name,
            "elements": self.element_names(),
            "identity": self.identity_index,
            "generator": self.generator_index,
            "tau": self.tau,
            "horizon": self.horizon,
            "stabilized": self.stabilized,
            "max_snap_error": self.max_snap_error,
            "table": None if self.table is None else self.table.tolist(),
        }
        if include_images:
            out["images"] = [self.model.export_images(e.images) for e in self.elements]
        return out


class ExactEnvelope(_EnvelopeBase):
    """Iterate monoid {f^n} of a finite-exact model, in closed form: index =
    longest tail of f's functional graph, period = lcm of its cycle lengths,
    f^i f^j = f^fold(i+j).  Cost O(N + (index+period)·N), refused with
    ``EnvelopeBudgetError`` before allocating over ``CELL_BUDGET`` cells."""

    def __init__(self, model):
        if getattr(model, "map_table", None) is None:
            raise InvalidParameterError("exact envelopes need an exact map table")
        self.model = model
        tail, length, _ = cycle_structure(model.map_table)
        self.index = int(tail.max())
        self.period = math.lcm(*set(length.tolist()))
        size, n = self.index + self.period, model.n_points
        if size * (size + n) > CELL_BUDGET:
            raise EnvelopeBudgetError(
                f"exact envelope of {size} elements over {n} points needs "
                f"{size * (size + n)} int64 cells, over the budget of {CELL_BUDGET}")
        maps = np.empty((size, n), dtype=np.int64)
        maps[0] = np.arange(n)
        for k in range(1, size):
            maps[k] = model.map_table[maps[k - 1]]
        self.elements = [MapSample(f"f^{k}", maps[k], k, [k], "iterate") for k in range(size)]
        # fold(i + j), in place so the table is the only size**2 array
        r = np.arange(size, dtype=np.int64)
        self.table = np.add.outer(r - self.index, r)
        np.remainder(self.table, self.period, out=self.table, where=self.table >= 0)
        self.table += self.index
        self.identity_index = 0
        self.generator_index = 1 if size > 1 else 0
        self.tau = 0.0
        self.horizon = size
        self.stabilized = True
        self.max_snap_error = 0.0

    def fold(self, m: int) -> int:
        size = self.index + self.period
        if m < size:
            return m
        return self.index + (m - self.index) % self.period

    def element_of_exponent(self, n: int):
        if n >= 0:
            return self.fold(n)
        if not self.model.invertible:
            raise NegativePowerError("negative exponent on a semicascade envelope")
        # invertible finite models have index 0; n mod period picks the element
        return self.fold(n % self.period)

    @property
    def is_group(self) -> bool:
        return self.index == 0


class ApproxEnvelope(_EnvelopeBase):
    def __init__(self, model, elements, exponent_map, table, tau, horizon,
                 power_range, stabilized, max_snap_error):
        self.model = model
        self.elements = elements
        self.exponent_map = exponent_map
        self.table = table
        self.tau = tau
        self.horizon = horizon
        self.power_range = power_range
        self.stabilized = stabilized
        self.max_snap_error = max_snap_error
        self.identity_index = exponent_map[0]
        self.generator_index = exponent_map.get(1)

    def element_of_exponent(self, n: int):
        return self.exponent_map[n]

    @property
    def limit_elements(self):
        return [i for i, e in enumerate(self.elements) if e.is_limit]


def exact_envelope(model: FiniteModel) -> ExactEnvelope:
    return ExactEnvelope(model)


def _identify(model, elements, images, tau, key, key_index):
    """Index of the cluster whose representative is within tau, else None."""
    if key is not None:
        return key_index.get(key)
    # the sup distance over every 64th sample point bounds the full one from
    # below, so it rejects most clusters without a pass over the whole sample
    probe = np.arange(0, model.n_points, 64)
    head = model.apply_to_indices(images, probe)
    for i, el in enumerate(elements):
        if (model.image_sup_dist(model.apply_to_indices(el.images, probe), head) <= tau
                and model.image_sup_dist(el.images, images) <= tau):
            return i
    return None


def approx_envelope(model: CascadeModel, horizon: int, tau: float,
                    power_range: str = "two-sided", close_table: bool = True,
                    max_elements: int | None = None, tail_fraction: float = 0.5,
                    limit_witnesses: int = 3) -> ApproxEnvelope:
    """Tolerance-clustered envelope of a sampled (or finite) model."""
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    if tau <= 0:
        raise InvalidParameterError("tau must be positive")
    if power_range not in ("two-sided", "forward", "forward-only"):
        raise InvalidParameterError(f"unknown power range {power_range!r}")
    two_sided = power_range == "two-sided"
    if two_sided and not model.invertible:
        raise NegativePowerError("two-sided range requires an exact inverse evaluator")
    exponents = _exponent_order(horizon, two_sided)
    tail_start = horizon * tail_fraction

    elements: list[MapSample] = []
    exponent_map: dict[int, int] = {}
    key_index: dict = {}

    for n in exponents:
        images = model.iterate_images(n)
        key = model.cluster_key(images, tau)
        hit = _identify(model, elements, images, tau, key, key_index)
        if hit is None:
            hit = len(elements)
            elements.append(MapSample("", images, n, [], "iterate"))
            if key is not None:
                key_index[key] = hit
        el = elements[hit]
        el.exponents.append(n)
        if abs(n) > tail_start:
            el.tail_count += 1
        exponent_map[n] = hit

    lim_counter = 0
    for el in elements:
        el.is_limit = el.tail_count >= limit_witnesses
        if el.is_limit and abs(el.origin) > tail_start:
            el.name = f"lim#{lim_counter}"
            el.provenance = "limit"
            lim_counter += 1
        else:
            el.name = f"f^{el.origin}"
        if el.is_limit:
            # represent a limit by its most converged member
            deepest = max(el.exponents, key=abs)
            el.images = model.iterate_images(deepest)

    stabilized = True
    max_snap = 0.0
    table = None
    if close_table:
        budget = max_elements if max_elements is not None else max(64, 2 * len(elements))
        size = len(elements)
        entries: dict[tuple[int, int], int] = {}

        def compose(i: int, j: int):
            nonlocal max_snap
            a, b = elements[i], elements[j]
            a_it = a.provenance == "iterate" and not a.is_limit
            b_it = b.provenance == "iterate" and not b.is_limit
            if a_it and b_it:
                m = a.origin + b.origin
                if m in exponent_map:
                    return exponent_map[m], None, None
                if m >= 0 or model.invertible:
                    return None, model.iterate_images(m), m
            elif (a.is_limit and b_it) or (a_it and b.is_limit):
                # iterates commute with limits of iterates: shift the limit's
                # tail by the iterate exponent and read off the stable cluster
                lim, k = (a, b.origin) if a.is_limit else (b, a.origin)
                for t in sorted(lim.exponents, key=abs, reverse=True):
                    if abs(t + k) <= horizon:
                        return exponent_map[t + k], None, None
            idx, err = model.snap_images(b.images)
            max_snap = max(max_snap, err)
            return None, model.apply_to_indices(a.images, idx), None

        while True:
            n_el = len(elements)
            missing = [(i, j) for i in range(n_el) for j in range(n_el)
                       if (i, j) not in entries]
            if not missing:
                break
            for i, j in missing:
                known, images, exponent = compose(i, j)
                if known is None:
                    key = model.cluster_key(images, tau)
                    known = _identify(model, elements, images, tau, key, key_index)
                    if known is None:
                        known = len(elements)
                        if exponent is not None:
                            el = MapSample(f"f^{exponent}", images, exponent,
                                           [exponent], "iterate")
                        else:
                            el = MapSample(f"cmp#{known}", images, 0, [], "composite")
                        elements.append(el)
                        if key is not None:
                            key_index[key] = known
                    if exponent is not None:
                        exponent_map.setdefault(exponent, known)
                entries[(i, j)] = known
            if len(elements) > budget:
                stabilized = False
                break
        size = len(elements)
        table = np.full((size, size), -1, dtype=np.int64)
        for (i, j), v in entries.items():
            table[i, j] = v

    return ApproxEnvelope(model, elements, exponent_map, table, tau, horizon,
                          power_range, stabilized, max_snap)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def identity_isolated(env, tau: float | None = None) -> dict:
    """Is the identity a limit of nontrivial iterates at this resolution?

    Not isolated is the finite-horizon reading of weak rigidity; the witness
    is the smallest returning exponent.
    """
    if isinstance(env, ExactEnvelope):
        tau = env.model.resolution if tau is None else tau
        ident = env.elements[0].images
        top = env.index + env.period
        for n in range(1, top + 1):
            el = env.elements[env.fold(n)]
            if env.model.image_sup_dist(el.images, ident) < tau or env.fold(n) == 0:
                return {"isolated": False, "witness": n, "weakly_rigid_up_to_horizon": True}
        return {"isolated": True, "witness": None, "weakly_rigid_up_to_horizon": False}
    if tau is not None and tau != env.tau:
        raise InvalidParameterError("envelope was clustered at a different tau")
    e_cluster = env.exponent_map[0]
    witnesses = sorted(n for n in env.elements[e_cluster].exponents if n >= 1)
    if witnesses:
        return {"isolated": False, "witness": witnesses[0], "weakly_rigid_up_to_horizon": True}
    return {"isolated": True, "witness": None, "weakly_rigid_up_to_horizon": False}


def envelope_power_decomposition(model: FiniteModel, n: int) -> dict:
    """Exact comparison of the envelope with the union of translated
    n-th-power envelopes."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    env = exact_envelope(model)
    full = {e.images.tobytes() for e in env.elements}
    table_n = env.elements[env.fold(n)].images
    inv_n = env.elements[env.element_of_exponent(-n)].images if model.invertible else None
    sub = FiniteModel(f"{model.name}^... ", {}, model.coords, model.point_dist,
                      table_n, inv_n, model.metric_name)
    env_n = exact_envelope(sub)
    translate_sizes = []
    union = set()
    collisions = 0
    shift = np.arange(model.n_points, dtype=np.int64)
    for j in range(n):
        tr = set()
        for e in env_n.elements:
            composed = shift[e.images]
            key = composed.tobytes()
            if key in union:
                collisions += 1
            tr.add(key)
            union.add(key)
        translate_sizes.append(len(tr))
        shift = model.map_table[shift]
    return {
        "equal": union == full,
        "envelope_size": len(full),
        "union_size": len(union),
        "translate_sizes": translate_sizes,
        "multiset_collisions": collisions,
    }


def stabilization_diagnostic(model: CascadeModel, horizons, tau: float,
                             power_range: str = "two-sided") -> dict:
    """Element counts of the approximate envelope across growing horizons."""
    horizons = list(horizons)
    if sorted(horizons) != horizons:
        raise InvalidParameterError("horizons must be increasing")
    counts = []
    if horizons:
        if horizons[0] < 1:
            raise InvalidParameterError("horizon must be >= 1")
        # clustering is greedy in exponent order, and the order for h is a
        # prefix of the order for the last horizon: the clusters at h are
        # those whose first exponent has |origin| <= h
        env = approx_envelope(model, horizons[-1], tau, power_range, close_table=False)
        counts = [sum(abs(e.origin) <= h for e in env.elements) for h in horizons]
    if len(counts) >= 2 and all(b > a for a, b in zip(counts, counts[1:])):
        verdict = "growing"
    elif len(counts) >= 2 and counts[-1] == counts[-2]:
        verdict = "stabilizing"
    else:
        verdict = "inconclusive"
    return {"horizons": horizons, "counts": counts, "verdict": verdict}


# ---------------------------------------------------------------------------
# hyperspace interplay
# ---------------------------------------------------------------------------


def _element_base_restriction(hyper_model, el) -> tuple:
    """Restrict a hyper envelope element to the singletons 0..n-1, unsnapped:
    (column 0 of their raw member rows, a base image; the escapes, singletons
    whose image row holds distinct members)."""
    n = hyper_model.base.n_points
    rows = hyper_model.member_rows(el.images[:n])
    escaped = (rows != rows[:, :1]).reshape(n, -1).any(axis=1)
    return rows[:, 0], np.flatnonzero(escaped).tolist()


def _match_base_element(base_env, base_img, tau: float):
    model = base_env.model
    for i, el in enumerate(base_env.elements):
        if model.image_sup_dist(el.images, base_img) <= tau:
            return i
    return None


def theta_check(base_env, hyper_env, hyper_model) -> dict:
    """Restriction homomorphism from the hyper envelope onto the base envelope.

    Reports singleton escapes, unmatched restrictions, failure of
    surjectivity onto the base elements, and table pairs where restriction
    does not commute with composition.
    """
    tau = getattr(base_env, "tau", 0.0) or hyper_model.base.resolution / 2
    theta = []
    escapes = []
    unmatched = []
    for idx, el in enumerate(hyper_env.elements):
        base_img, esc = _element_base_restriction(hyper_model, el)
        escapes.extend((idx, x) for x in esc)
        match = _match_base_element(base_env, base_img, tau)
        if match is None:
            unmatched.append(idx)
        theta.append(match)
    hom_violations = []
    if hyper_env.table is not None and base_env.table is not None and not unmatched:
        th, table = np.asarray(theta, dtype=np.int64), hyper_env.table
        bad = (table >= 0) & (th[table] != base_env.table[th][:, th])
        hom_violations = [tuple(p) for p in np.argwhere(bad).tolist()]
    observed = {t for t in theta if t is not None}
    return {
        "well_defined": not escapes and not unmatched,
        "singleton_escapes": escapes,
        "unmatched_elements": unmatched,
        "surjective_onto_observed": observed == set(range(len(base_env.elements))),
        "homomorphism_violations": hom_violations,
        "theta": theta,
        "injective": len(observed) == len(theta) and None not in theta,
    }


def _includes(a, b) -> np.ndarray:
    # row-wise inclusion of the member sets of padded rows a in those of b
    return (a[:, :, None] == b[:, None, :]).any(axis=2).all(axis=1)


def inducibility_check(hyper_env, hyper_model, element_index: int) -> dict:
    """Three conditions for a hyper-envelope element to come from a point map:
    singletons to singletons, monotone on inclusions, minimal in the
    pointwise-inclusion order among envelope elements."""
    members = hyper_model.members
    snapped, _ = hyper_model.snap_images(hyper_env.elements[element_index].images)
    rows = members[snapped]
    singles = rows[:hyper_model.base.n_points]
    singles_ok = bool((singles == singles[:, :1]).all())
    # the sub-rows on each proper subset of the k positions name every
    # proper subset A of every hyperpoint B, so these cover all A < B
    k = hyper_model.max_cardinality
    monotone_ok = all(
        _includes(rows[hyper_model.hyper_ids(members[:, list(cols)])], rows).all()
        for j in range(1, k) for cols in combinations(range(k), j))

    def below(other):
        o_snapped, _ = hyper_model.snap_images(other.images)
        return not np.array_equal(o_snapped, snapped) and _includes(members[o_snapped], rows).all()

    dominated_by = next((j for j, other in enumerate(hyper_env.elements)
                         if j != element_index and below(other)), None)
    return {
        "singletons_ok": singles_ok,
        "monotone_ok": monotone_ok,
        "minimal_ok": dominated_by is None,
        "dominated_by": dominated_by,
    }


def envelope_phase_model(env) -> FiniteModel:
    """The envelope as a finite phase space under left multiplication by the
    generator, with the sup-distance between elements as the metric."""
    n = len(env.elements)
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = env.sup_distance(i, j)

    def dist(a, b):
        return dmat[np.asarray(a), np.asarray(b)]

    gen = env.generator_index if env.generator_index is not None else env.identity_index
    table = env.table[gen]
    if (table < 0).any():
        raise InvalidParameterError("phase model needs a closed composition table")
    inv = None
    if np.array_equal(np.sort(table), np.arange(n)):
        inv = np.argsort(table)
    return FiniteModel(f"envelope({env.model.name})", {}, None, dist, table, inv,
                       "sup-distance", point_labels=[e.name for e in env.elements])
