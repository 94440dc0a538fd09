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
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .algebra import FiniteSemigroup, MonogenicMonoid, TableError
# CELL_BUDGET, EnvelopeBudgetError and check_cells are re-exported here
from .spaces import (CELL_BUDGET, SUP_CHUNK, CascadeModel, EnvelopeBudgetError,
                     FiniteModel, InvalidParameterError, NegativePowerError, check_cells,
                     check_index, check_int)


@dataclass
class MapSample:
    """One envelope element.  ``held`` is its map's images, or None for an
    iterate, whose map f^origin ``images`` reads from ``model``'s iterate
    cache: an evicted iterate comes back bitwise equal, so an element holds
    no copy of it."""

    name: str
    held: object
    origin: int                      # exponent that created the cluster
    exponents: list = field(default_factory=list)
    provenance: str = "iterate"      # iterate | limit | composite
    tail_count: int = 0
    is_limit: bool = False
    model: CascadeModel | None = field(default=None, repr=False, compare=False)

    @property
    def images(self):
        return self.model.iterate_images(self.origin) if self.held is None else self.held


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

    def element_names(self):
        return [e.name for e in self.elements]

    def element_images(self, i: int):
        return self.elements[i].images

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

    def to_json(self) -> dict:
        return {
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


class ExactEnvelope(_EnvelopeBase):
    """Iterate monoid {f^n} of a finite-exact model, in closed form: the
    model's index and period make it the ``MonogenicMonoid`` ``semigroup``,
    and f^i f^j = f^fold(i+j) with the model's ``fold``.  Index and period
    are the least ones, so the elements f^0 .. f^(size-1) are pairwise
    distinct maps and an exponent names its map.  An element f^k holds k,
    and its ``images`` read f^k from the model's iterate cache.
    The elements and the table are built when first read, each refused with
    ``EnvelopeBudgetError`` before allocating over ``CELL_BUDGET`` cells."""

    def __init__(self, model):
        if getattr(model, "map_table", None) is None:
            raise InvalidParameterError("exact envelopes need an exact map table")
        self.model = model
        self.index, self.period = model.index, model.period
        self.semigroup = MonogenicMonoid(self.index, self.period)
        self.identity_index = self.semigroup.identity
        self.generator_index = self.semigroup.generator
        self.tau = 0.0
        self.horizon = self.semigroup.size
        self.stabilized = True
        self.max_snap_error = 0.0

    def element_names(self):
        return [f"f^{k}" for k in range(self.semigroup.size)]

    def element_images(self, i: int):
        return self.model.iterate_images(i)

    @cached_property
    def elements(self) -> list:
        size, n = self.semigroup.size, self.model.n_points
        check_cells(size * n, f"the maps of an exact envelope of {size} elements over {n} points")
        return [MapSample(f"f^{k}", None, k, [k], "iterate", model=self.model)
                for k in range(size)]

    @property
    def table(self) -> np.ndarray:
        return self.semigroup.table

    @cached_property
    def proximal_pair_count(self) -> int:
        """Proximal pairs x != y, f^index x = f^index y, from fibre sizes."""
        fibres = np.bincount(self.model.iterate_images(self.index))
        return int((fibres * (fibres - 1)).sum()) // 2

    @property
    def is_group(self) -> bool:
        return self.index == 0


class ApproxEnvelope(_EnvelopeBase):
    """``elements[:main_count]`` are the clusters of the iterates up to the
    horizon; the table closure appends the rest."""

    def __init__(self, model, elements, main_count, exponent_map, table, tau, horizon,
                 power_range, stabilized, max_snap_error):
        self.model = model
        self.elements = elements
        self.main_count = main_count
        self.exponent_map = exponent_map
        self.table = table
        self.tau = tau
        self.horizon = horizon
        self.power_range = power_range
        self.stabilized = stabilized
        self.max_snap_error = max_snap_error
        self.identity_index = exponent_map[0]
        self.generator_index = exponent_map.get(1)

    @cached_property
    def semigroup(self) -> FiniteSemigroup:
        """The composition table in report mode; refused while it is open."""
        if self.table is None or (self.table < 0).any():
            raise TableError("envelope has no closed composition table")
        return FiniteSemigroup(self.table, self.identity_index, self.generator_index, "approx")

    @property
    def limit_elements(self):
        return [i for i, e in enumerate(self.elements) if e.is_limit]


def exact_envelope(model: FiniteModel) -> ExactEnvelope:
    return ExactEnvelope(model)


class _ClusterIndex:
    """The clusters of an approximate envelope at tau, looked up by key or by
    their representatives.

    A carrier that keys its images at tau (finite ids below the resolution,
    window rows) keys every image or none.  Such a lookup is one dict from
    the CRC-32 of the key to its clusters; a hash match is confirmed by
    comparing the key with the key of the cluster's representative, so the
    index holds no copy of any key, and a window key is often a view.

    Otherwise each representative keeps one row of a ``(capacity, P,
    *point)`` probe block: its images at the probe columns, at first every
    ``max(64, isqrt(N))``-th of the N sample points.  The probe's sup
    distance bounds the full one from below, so a lookup is one vectorized
    distance over the block, in row blocks of at most ``SUP_CHUNK`` cells,
    and only clusters within tau on the probe get a full test.  A failed
    full test adds the point where it first exceeded tau to the probe.  The
    answer is the first cluster in element order within tau of the image,
    as a scan of the representatives would give.

    An iterate representative holds its images only while it is one of the
    two newest clusters of its exponent's sign, the likeliest matches of the
    next iterate (an orbit of period two, as under x -> -x^3, matches the
    one before the newest), or once a full test has matched it.  Otherwise
    it is cold, its exponent, and a full test reads it from the model's
    iterate cache.  An added column is gathered for the held
    representatives only and marked unknown for the cold ones, whose probe
    sup then runs over their known columns, still a lower bound; a cold
    representative fills its unknown columns when a full test reads it."""

    def __init__(self, model: CascadeModel, tau: float):
        self.model, self.tau = model, tau
        self.keys: dict = {}
        self.reps: list = []          # a representative's images, None while cold
        self.origins: list = []       # its exponent while it may go cold, else None
        self.newest: dict = {}        # exponent sign -> its two newest clusters
        self.probe = np.arange(0, model.n_points, max(64, math.isqrt(model.n_points)))
        self.rows = None
        self.known = None             # which cells of rows are gathered
        self._hashed = (None, 0)

    def _hash(self, key) -> int:
        # find and then add hash the same key once
        if key is not self._hashed[0]:
            self._hashed = (key, zlib.crc32(np.ascontiguousarray(key)))
        return self._hashed[1]

    def find(self, images, key):
        """Index of the first cluster whose representative is within tau, else None."""
        if key is not None:
            return next((i for i in self.keys.get(self._hash(key), ())
                         if np.array_equal(self.model.cluster_key(self.reps[i], self.tau), key)),
                        None)
        head = self.model.apply_to_indices(images, self.probe)
        lo = 0
        while lo < len(self.reps):
            hi = min(len(self.reps), lo + max(1, SUP_CHUNK // len(self.probe)))
            near = lo + np.flatnonzero(
                self._probe_dist(self.rows[lo:hi], self.known[lo:hi], head) <= self.tau)
            while len(near):
                i = int(near[0])
                rep = self._read(i)
                witness = self._witness(rep, images)
                if witness is None:
                    self.reps[i], self.origins[i] = rep, None
                    return i
                head = self._add_column(witness, head, images)
                near = near[1:]
                if len(near):
                    near = near[self._probe_dist(self.rows[near, -1:], self.known[near, -1:],
                                                 head[-1:]) <= self.tau]
            lo = hi
        return None

    def add(self, images, key, exponent=None) -> int:
        """Register a new cluster represented by ``images``, the iterate
        f^exponent if ``exponent`` is given; its index."""
        i = len(self.reps)
        self.reps.append(images)
        if key is not None:
            self.keys.setdefault(self._hash(key), []).append(i)
            return i
        row = self.model.apply_to_indices(images, self.probe)
        if self.rows is None or i == len(self.rows):
            grown = np.empty((max(8, 2 * i),) + row.shape, dtype=row.dtype)
            known = np.ones(grown.shape[:2], dtype=bool)
            if i:
                grown[:i], known[:i] = self.rows[:i], self.known[:i]
            self.rows, self.known = grown, known
        self.rows[i], self.known[i] = row, True
        self.origins.append(exponent)
        if exponent is not None:
            newest = self.newest.setdefault(exponent >= 0, [])
            newest.append(i)
            if len(newest) > 2:
                old = newest.pop(0)
                if self.origins[old] is not None:
                    self.reps[old] = None
        return i

    def replace(self, i: int, images) -> None:
        """Represent cluster ``i`` by ``images`` from now on (keys stay)."""
        if self.rows is not None:
            self.reps[i], self.origins[i] = images, None
            self.rows[i] = self.model.apply_to_indices(images, self.probe)
            self.known[i] = True

    def rep_images(self, i: int):
        """The images of cluster ``i``'s representative, held or cold."""
        rep = self.reps[i]
        return self.model.iterate_images(self.origins[i]) if rep is None else rep

    def _read(self, i: int):
        # a representative for a full test; a cold one fills its unknown columns
        rep = self.rep_images(i)
        unknown = ~self.known[i]
        if unknown.any():
            self.rows[i, unknown] = self.model.apply_to_indices(rep, self.probe[unknown])
            self.known[i] = True
        return rep

    def _probe_dist(self, block, known, head) -> np.ndarray:
        # sup over the known probe columns of each row of block, in one call
        m, point = len(block), head.shape[1:]
        flat = (m * block.shape[1],) + point
        d = self.model.image_pair_dist(block.reshape(flat),
                                       np.broadcast_to(head, block.shape).reshape(flat))
        d = d.reshape(m, -1)
        return (d if known.all() else np.where(known, d, 0.0)).max(axis=1)

    def _witness(self, a, b):
        """None when sup d(a, b) <= tau, else the point where the first
        ``SUP_CHUNK`` slice over tau peaks."""
        for lo in range(0, len(b), SUP_CHUNK):
            d = self.model.image_pair_dist(a[lo:lo + SUP_CHUNK], b[lo:lo + SUP_CHUNK])
            if not d.max() <= self.tau:
                return lo + int(np.argmax(d))
        return None

    def _add_column(self, point: int, head, images):
        # gather the new column once for every held representative; the
        # query's own cell stands in, unknown, for the cold ones
        count, col = len(self.reps), [point]
        self.probe = np.append(self.probe, point)
        cell = self.model.apply_to_indices(images, col)
        new = np.repeat(cell[None], count, axis=0)
        held = np.array([r is not None for r in self.reps])
        for i in np.flatnonzero(held):
            new[i] = self.model.apply_to_indices(self.reps[i], col)
        self.rows = np.concatenate([self.rows[:count], new], axis=1)
        self.known = np.concatenate([self.known[:count], held[:, None]], axis=1)
        return np.concatenate([head, cell])


def _fold_iterates(table: np.ndarray, elements: list, exponent_map: dict) -> None:
    """Fill the cells f^a f^b = f^(a+b) of the table, for iterate elements
    f^a and f^b whose exponent sum is already clustered, in one gather."""
    plain = np.flatnonzero([e.provenance == "iterate" and not e.is_limit for e in elements])
    origin = np.array([elements[k].origin for k in plain], dtype=np.int64)
    lo = min(exponent_map)
    lut = np.full(max(exponent_map) - lo + 1, -1, dtype=np.int64)
    lut[np.fromiter(exponent_map, np.int64, len(exponent_map)) - lo] = list(exponent_map.values())
    at = origin[:, None] + origin[None, :] - lo
    at[(at < 0) | (at >= len(lut))] = len(lut)
    cells = np.ix_(plain, plain)
    table[cells] = np.maximum(table[cells], np.append(lut, -1)[at])


def approx_envelope(model: CascadeModel, horizon: int, tau: float,
                    power_range: str = "two-sided", close_table: bool = True,
                    max_elements: int | None = None) -> ApproxEnvelope:
    """Tolerance-clustered envelope of a sampled (or finite) model.

    The tail is the exponents with |n| > horizon / 2, and a cluster with at
    least three tail members is a limit element, represented by its first
    member of largest |n|.  An iterate element holds its exponent and reads
    its images from the model's iterate cache; a limit holds its deepest
    member's images, which the main loop keeps as it goes, since a bounded
    iterate cache may have dropped them by the end, and a composite holds
    its own.  Members arrive in order of |n|, so a limit's deepest member
    leaves its cluster at least two tail members: only such clusters keep
    one.  An exponent n past the model's ``fold`` joins the cluster of
    f^fold(n) with no lookup.  ``max_elements``, when given, is an integer
    >= 1."""
    horizon = check_int(horizon, 1, "horizon")
    if max_elements is not None:
        max_elements = check_int(max_elements, 1, "max_elements")
    if not tau > 0:
        raise InvalidParameterError("tau must be positive")
    if power_range not in ("two-sided", "forward"):
        raise InvalidParameterError(f"unknown power range {power_range!r}")
    two_sided = power_range == "two-sided"
    if two_sided and not model.invertible:
        raise NegativePowerError("two-sided range requires an exact inverse evaluator")
    exponents = _exponent_order(horizon, two_sided)
    tail_start = horizon / 2

    elements: list[MapSample] = []
    deepest = {}                     # per candidate limit, its first member of largest |n|
    exponent_map: dict[int, int] = {}
    index = _ClusterIndex(model, tau)

    for n in exponents:
        images = model.iterate_images(n)
        # f^n has the bits of f^fold(n), and the loop only appends clusters,
        # so the first cluster within tau of f^n is the one f^fold(n) joined
        hit = exponent_map.get(model.fold(n))
        if hit is None:
            key = model.cluster_key(images, tau)
            hit = index.find(images, key)
            if hit is None:
                hit = index.add(images, key, n)
                elements.append(MapSample("", None, n, [], "iterate", model=model))
        el = elements[hit]
        if abs(n) > tail_start:
            el.tail_count += 1
            if el.tail_count >= 2 and abs(n) > abs(el.exponents[-1]):
                deepest[hit] = images
        el.exponents.append(n)
        exponent_map[n] = hit
    main_count = len(elements)

    lim_counter = 0
    for i, el in enumerate(elements):
        el.is_limit = el.tail_count >= 3
        if el.is_limit and abs(el.origin) > tail_start:
            el.name = f"lim#{lim_counter}"
            el.provenance = "limit"
            lim_counter += 1
        else:
            el.name = f"f^{el.origin}"
        if el.is_limit:
            # represent a limit by its most converged member
            el.held = deepest[i]
            index.replace(i, el.held)
    del deepest                      # free the deeper members of the other clusters

    stabilized = True
    max_snap = 0.0
    table = None
    if close_table:
        budget = max_elements if max_elements is not None else max(64, 2 * len(elements))
        table = np.full((0, 0), -1, dtype=np.int64)

        def compose(i: int, j: int):
            nonlocal max_snap
            a, b = elements[i], elements[j]
            a_it = a.provenance == "iterate" and not a.is_limit
            b_it = b.provenance == "iterate" and not b.is_limit
            if a_it and b_it:
                m = a.origin + b.origin
                if m in exponent_map:
                    return exponent_map[m], None, None
                # m >= 0 in the forward range; the two-sided one needs an inverse
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
            table = np.pad(table, (0, len(elements) - len(table)), constant_values=-1)
            _fold_iterates(table, elements, exponent_map)
            missing = np.argwhere(table < 0).tolist()
            if not missing:
                break
            for i, j in missing:
                known, images, exponent = compose(i, j)
                if known is None:
                    key = model.cluster_key(images, tau)
                    known = index.find(images, key)
                    if known is None:
                        known = index.add(images, key, exponent)
                        if exponent is not None:
                            el = MapSample(f"f^{exponent}", None, exponent,
                                           [exponent], "iterate", model=model)
                        else:
                            el = MapSample(f"cmp#{known}", images, 0, [], "composite")
                        elements.append(el)
                    if exponent is not None:
                        exponent_map.setdefault(exponent, known)
                table[i, j] = known
            if len(elements) > budget:
                stabilized = False
                break
        table = np.pad(table, (0, len(elements) - len(table)), constant_values=-1)

    return ApproxEnvelope(model, elements, main_count, exponent_map, table, tau, horizon,
                          power_range, stabilized, max_snap)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _return_sups(model) -> np.ndarray:
    """S[r] = sup_x d(f^(index+r) x, x), r < period, on a finite carrier: the
    largest W_L[r mod L], W_L[r] = max d(f^(index+r) x, x) on cycle length L."""
    order = np.argsort(model.cycles[2], kind="stable")
    lengths, starts = np.unique(model.cycles[2][order], return_index=True)
    w = np.zeros((len(lengths), int(lengths[-1])))
    for r in range(w.shape[1]):
        d = model.image_pair_dist(model.iterate_images(model.index + r), model.iterate_images(0))
        w[:, r] = np.maximum.reduceat(d[order], starts)
    sups = np.zeros(model.period)
    for length, row in zip(lengths.tolist(), w):
        np.maximum(sups, np.tile(row[:length], model.period // length), out=sups)
    if model.index == 0:
        sups[0] = -np.inf              # f^period is the identity: a return at any tau
    return sups


def identity_isolated(env, tau: float | None = None) -> dict:
    """Is the identity a limit of nontrivial iterates at this resolution?

    Not isolated is the finite-horizon reading of weak rigidity; the witness
    is the smallest returning exponent.

    On an exact envelope the default tau is the model's resolution, the
    least positive distance between points.  Provided the metric separates
    points, only f^n = id comes within it, so the closed form answers: the
    witness is the period when the index is 0, and the identity is isolated
    otherwise.  An explicit tau walks the exponents up to the index and
    reads the next period of them from ``_return_sups``.
    A tau that is negative or NaN is refused with ``InvalidParameterError``.
    """
    if tau is not None and not tau >= 0:
        raise InvalidParameterError(f"tau={tau} is negative or NaN")
    if isinstance(env, ExactEnvelope):
        model, witness = env.model, (env.period if env.index == 0 else None)
        if tau is not None:
            ident = model.iterate_images(0)
            witness = next((n for n in range(1, env.index + 1)
                            if model.image_sup_dist(model.iterate_images(n), ident) < tau), None)
            if witness is None:
                # exponent index + r reads S[r mod period], r in [1, period]
                close = np.flatnonzero(np.roll(_return_sups(model), -1) < tau)
                witness = env.index + 1 + int(close[0]) if close.size else None
    else:
        if tau is not None and tau != env.tau:
            raise InvalidParameterError("envelope was clustered at a different tau")
        e_cluster = env.exponent_map[0]
        witness = min((n for n in env.elements[e_cluster].exponents if n >= 1), default=None)
    return {"isolated": witness is None, "witness": witness,
            "weakly_rigid_up_to_horizon": witness is not None}


def envelope_power_decomposition(env: ExactEnvelope, n: int) -> dict:
    """Exact comparison of an exact envelope with the union of translated
    n-th-power envelopes; an approximate envelope, and an ``n`` that is not
    an integer >= 1, are refused.

    The envelope of f^n is its iterates f^(nk) up to the first repeated
    map, and the translates f^j f^(nk) for j < n.  Distinct folded exponents
    are distinct maps, so each map is compared by its folded exponent and
    none is built."""
    if not isinstance(env, ExactEnvelope):
        raise InvalidParameterError("power decomposition needs an exact envelope")
    n = check_int(n, 1, "n")
    sub, nk = {}, 0                 # fold(nk) -> nk for the maps f^(nk)
    while env.model.fold(nk) not in sub:
        sub[env.model.fold(nk)] = nk
        nk += n
    translate_sizes, union, collisions = [], set(), 0
    for j in range(n):
        tr = {env.model.fold(j + m) for m in sub.values()}
        collisions += len(tr & union) + len(sub) - len(tr)
        translate_sizes.append(len(tr))
        union |= tr
    full = set(range(env.semigroup.size))
    return {
        "equal": union == full,
        "envelope_size": len(full),
        "union_size": len(union),
        "translate_sizes": translate_sizes,
        "multiset_collisions": collisions,
    }


def stabilization_diagnostic(model: CascadeModel, horizons, tau: float,
                             power_range: str = "two-sided", env=None) -> dict:
    """Element counts of the approximate envelope across growing horizons.

    ``env``, when it is an approximate envelope of this model object at this
    tau and power range up to at least the last horizon, is read instead of
    clustering the iterates again."""
    horizons = [check_int(h, 1, "horizon") for h in horizons]
    if sorted(horizons) != horizons:
        raise InvalidParameterError("horizons must be increasing")
    counts = []
    if horizons:
        # clustering is greedy in exponent order, and the order for h is a
        # prefix of the order for any longer horizon: the clusters at h are
        # the main-loop clusters whose first exponent has |origin| <= h
        if not (isinstance(env, ApproxEnvelope) and env.model is model and env.tau == tau
                and env.power_range == power_range and env.horizon >= horizons[-1]):
            env = approx_envelope(model, horizons[-1], tau, power_range, close_table=False)
        origins = np.abs([e.origin for e in env.elements[:env.main_count]])
        counts = [int(np.count_nonzero(origins <= h)) for h in horizons]
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


def theta_check(base_env, hyper_env) -> dict:
    """Restriction homomorphism from the hyper envelope onto the base envelope.

    Reports singleton escapes, unmatched restrictions, failure of
    surjectivity onto the base elements, and table pairs where restriction
    does not commute with composition.  A hyper envelope over another base
    model than the base envelope's is refused.

    An exact pair is read from exponents: θ(F^k) = f^k, a bijective
    homomorphism with no escapes.  Other pairs match restrictions.
    """
    if getattr(hyper_env.model, "base", None) is not base_env.model:
        raise InvalidParameterError("theta needs a hyper envelope over the base envelope's model")
    if isinstance(base_env, ExactEnvelope) and isinstance(hyper_env, ExactEnvelope):
        return {"well_defined": True, "singleton_escapes": [], "unmatched_elements": [],
                "surjective_onto_observed": True, "homomorphism_violations": [],
                "theta": list(range(base_env.semigroup.size)), "injective": True}
    return _theta_by_matching(base_env, hyper_env)


def _theta_by_matching(base_env, hyper_env) -> dict:
    """θ of ``theta_check``, matching the restriction of every hyper element
    to the singletons 0..n-1, unsnapped, to the first base element within
    tau on every point.  A singleton escapes when its image row holds
    distinct members; column 0 of the raw member rows is the base image."""
    hyper_model = hyper_env.model
    n = hyper_model.base.n_points
    tau = getattr(base_env, "tau", 0.0) or hyper_model.base.resolution / 2
    theta = []
    escapes = []
    unmatched = []
    for idx, el in enumerate(hyper_env.elements):
        rows = hyper_model.member_rows(el.images[:n])
        escaped = (rows != rows[:, :1]).reshape(n, -1).any(axis=1)
        escapes.extend((idx, x) for x in np.flatnonzero(escaped).tolist())
        base_img = rows[:, 0]
        match = next((i for i, b in enumerate(base_env.elements)
                      if base_env.model.image_sup_dist(b.images, base_img) <= tau), None)
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


def inducibility_check(hyper_env, element_index: int) -> dict:
    """Three conditions for a hyper-envelope element to come from a point map:
    singletons to singletons, monotone on inclusions, minimal in the
    pointwise-inclusion order among envelope elements.  On an exact envelope
    all three hold, since F^k is induced by f^k and an F^m below it on every
    singleton has f^m = f^k.  Only envelopes over hyper models are taken,
    and an element index outside the envelope is refused."""
    if getattr(hyper_env.model, "members", None) is None:
        raise InvalidParameterError("inducibility needs an envelope over a hyper model")
    exact = isinstance(hyper_env, ExactEnvelope)
    check_index(element_index, hyper_env.semigroup.size if exact else len(hyper_env.elements),
                "element")
    if exact:
        return dict(singletons_ok=True, monotone_ok=True, minimal_ok=True, dominated_by=None)
    hyper_model = hyper_env.model
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
