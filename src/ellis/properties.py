"""Horizon-bounded dynamical property checkers.

Every verdict is relative to the horizon and tolerance it was computed with,
and is serialized together with them: the underlying properties are
asymptotic, the artifact observes finite shadows.  Open sets are metric
balls on the sample; shift spaces use exact cylinder arithmetic instead.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass, field, asdict

import numpy as np

from .spaces import (CascadeModel, FiniteModel, InvalidParameterError, check_index, check_int,
                     row_blocks)
from .symbolic import Subshift, cylinder_tensor
from .hyperspace import build_hyper_model
from . import envelope as envelope_mod


@dataclass
class OpenSet:
    kind: str                 # ball | cylinder | points
    center: int | None = None
    radius: float | None = None
    word: str | None = None
    points: tuple = ()

    def resolve(self, model: CascadeModel) -> np.ndarray:
        n = model.n_points
        if self.kind == "points":
            idx = np.asarray(sorted(check_index(p, n, "point") for p in self.points),
                             dtype=np.int64)
        elif self.kind == "ball":
            center = check_index(self.center, n, "ball centre")
            d = model.point_dist(np.full(n, center, dtype=np.int64), np.arange(n))
            idx = np.nonzero(d < self.radius)[0]
        else:
            raise InvalidParameterError("cylinder sets resolve on shift spaces only")
        if idx.size == 0:
            raise InvalidParameterError("open set misses the sample")
        return idx

    def label(self) -> str:
        if self.kind == "ball":
            return f"B({self.center},{self.radius:g})"
        if self.kind == "cylinder":
            return f"[{self.word}]"
        return f"{{{','.join(map(str, self.points))}}}"


@dataclass
class PropertyVerdict:
    name: str
    verdict: str              # holds | fails | inconclusive
    horizon: int
    params: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)


def ball(center: int, radius: float) -> OpenSet:
    return OpenSet("ball", center=center, radius=radius)


def cylinder(word: str) -> OpenSet:
    return OpenSet("cylinder", word=word)


# ---------------------------------------------------------------------------
# distance plumbing
# ---------------------------------------------------------------------------


def _check_distance_cells(model: CascadeModel) -> int:
    n = model.n_points
    envelope_mod.check_cells(n * n, f"distance matrix of {model.name} ({n} points)")
    return n


def full_distance_matrix(model: CascadeModel) -> np.ndarray:
    """All N^2 sample distances, filled block by block through the carrier's
    ``distance_rows``; refused before allocating over ``CELL_BUDGET`` cells."""
    out = np.empty((_check_distance_cells(model),) * 2)
    for rows in model.distance_blocks():
        out[rows[0]:rows[-1] + 1] = model.distance_rows(rows)
    return out


def _distance_scan(model: CascadeModel, radius: float):
    """One pass over ``model.distance_rows`` in the carrier's row blocks,
    holding no N x N float array.  Returns

    - the nearest-neighbour pairs (xs, ys), row-major: each point's nearest
      other points, ties within a factor 1 + 1e-12 included, none when that
      distance is not finite; a lone point is its own mate;
    - ``first``, the distance from each point to its first mate in column
      order (inf without a mate);
    - ``ball``, the rows of [d <= radius] bit-packed with ``np.packbits``
      (N^2 / 8 bytes), and ``counts``, the number of points in each row.

    Refused over ``CELL_BUDGET`` streamed cells, before the first row."""
    n = _check_distance_cells(model)
    ball = np.empty((n, -(-n // 8)), dtype=np.uint8)
    counts = np.empty(n, dtype=np.int64)
    first = np.full(n, np.inf)
    xs, ys = [], []
    for rows in model.distance_blocks():
        block = model.distance_rows(rows)
        inside = block <= radius
        ball[rows] = np.packbits(inside, axis=1)
        counts[rows] = inside.sum(axis=1)
        if n > 1:               # a lone point is its own mate
            block[np.arange(len(rows)), rows] = np.inf
        nn = block.min(axis=1)
        near = block <= (nn * (1 + 1e-12))[:, None]
        near &= np.isfinite(nn)[:, None]
        r, mates = np.divmod(np.flatnonzero(near), n)      # 3x np.nonzero's speed
        xs.append(rows[r])
        ys.append(mates)
        lead = np.flatnonzero(np.diff(r, prepend=-1))    # each row's first mate
        first[rows[r[lead]]] = block[r[lead], mates[lead]]
    return (np.concatenate(xs).astype(np.int64, copy=False),
            np.concatenate(ys).astype(np.int64, copy=False), first, ball, counts)


def _times(model: CascadeModel, horizon: int, out: np.ndarray | None = None):
    """Yield (n, f^n) for n = 1, 2, ... up to ``horizon``, stopping at the first
    n with ``model.fold(n - 1) < n - 1``: every later iterate is a map met
    before.  The fold is read inside the loop: a sampled carrier learns it
    while stepping.  Once all are consumed, each later row n of ``out``
    (indexed by time) copies row fold(n - 1) + 1, never row 0, in whole
    periods doubling."""
    n = 1
    while n <= horizon and model.fold(n - 1) == n - 1:
        yield n, model.iterate_images(n)
        n += 1
    while out is not None and n < len(out):
        back = n - 1 - model.fold(n - 1)
        out[n:n + back] = out[n - back:n][:len(out) - n]
        n += back


def _point_return_matrix(model: CascadeModel, horizon: int, tau: float) -> np.ndarray:
    """R[n, i] true when the n-th image of point i is within tau of it; refused,
    as are other time tables of its shape, over ``CELL_BUDGET`` cells."""
    n_pts = model.n_points
    envelope_mod.check_cells((horizon + 1) * n_pts,
                             f"a time table of {n_pts} points at horizon {horizon}")
    ident = model.iterate_images(0)
    out = np.zeros((horizon + 1, n_pts), dtype=bool)
    out[0] = True
    for n, imgs in _times(model, horizon, out):
        out[n] = model.image_pair_dist(imgs, ident) <= tau
    return out


# ---------------------------------------------------------------------------
# hitting sets and transitivity
# ---------------------------------------------------------------------------


def hitting_set(target, u, v, horizon: int) -> list[int]:
    """Times n in [1, horizon] at which the n-th image of U meets V: one pair
    of ``hitting_tensor``.  On a shift space a word names its cylinder."""
    sets = [cylinder(s) if isinstance(s, str) else s for s in (u, v)]
    hits = hitting_tensor(target, sets, horizon)[1:, 0, 1]
    return (np.flatnonzero(hits) + 1).tolist()


def default_cover(model: CascadeModel, granularity: float | None = None) -> list[OpenSet]:
    """Balls of radius ``granularity`` around every ``stride``-th point,
    stride N // 360 or 1, or around every point when the strided balls miss
    one.  A ball of positive radius holds its centre, so a cover at stride 1
    is not tested.  A granularity that is not > 0 (NaN too) is refused with
    ``InvalidParameterError``."""
    if granularity is None:
        # a one-point sample has diameter 0, and a ball of radius 0 is empty
        granularity = min(4.0 * model.resolution, model.diameter / 4.0) or model.resolution
    if not granularity > 0:
        raise InvalidParameterError(f"granularity={granularity} is not positive")
    g = granularity
    stride = max(1, model.n_points // 360)
    cover = [ball(c, g) for c in range(0, model.n_points, stride)]
    if stride > 1 and not _cover_membership(model, cover).any(axis=0).all():
        cover = [ball(c, g) for c in range(model.n_points)]
    return cover


def transitivity_cover(target, cylinder_length: int | None = None,
                       granularity: float | None = None) -> list[OpenSet]:
    """Cylinders of every word up to ``cylinder_length`` (3 by default) on a
    shift space, the default ball cover at ``granularity`` on a model.  A
    parameter that the target does not read, and a cylinder length that is
    not an integer >= 1, are refused with ``InvalidParameterError``."""
    if isinstance(target, Subshift):
        if granularity is not None:
            raise InvalidParameterError("granularity is not read by a shift's cylinder cover")
        length = check_int(3 if cylinder_length is None else cylinder_length, 1, "cylinder_length")
        return [cylinder(w) for L in range(1, length + 1) for w in sorted(target.words(L))]
    if cylinder_length is not None:
        raise InvalidParameterError("cylinder_length is not read by a model's ball cover")
    return default_cover(target, granularity)


def _cover_membership(model: CascadeModel, sets) -> np.ndarray:
    """K x N booleans, M[i, x] when point x lies in sets[i]: each set resolved once."""
    member = np.zeros((len(sets), model.n_points), dtype=bool)
    for i, s in enumerate(sets):
        member[i, s.resolve(model)] = True
    return member


def _target_membership(model: CascadeModel, sets, imgs) -> np.ndarray:
    """V[x, j] = 1 when image entry x lies in the ball sets[j], by
    ``image_point_dist`` to its centre: images that are not point ids."""
    out = np.empty((model.n_points, len(sets)), dtype=np.float32)
    for j, v in enumerate(sets):
        out[:, j] = model.image_point_dist(imgs, v.center) < v.radius
    return out


def hitting_tensor(target, sets, horizon: int) -> np.ndarray:
    """Every hitting set of a cover at once: ``hits[n, i, j]`` is true when
    the n-th image of sets[i] meets sets[j], for n in [1, horizon].  Row 0
    stays false, so the row index is the time.

    On a model, U[i, x] = [x in U_i] and V_n[x, j] = [f^n x in V_j] give
    ``hits[n] = U @ V_n > 0``, one K x N by N x K product per iterate, U from
    ``_cover_membership``.  On finite-exact carriers, whose images are point
    ids, V_n is U's transpose gathered at f^n; explicit point sets need such
    ids.  Shift spaces go to ``symbolic.cylinder_tensor``.  Refused, before
    anything is allocated, with ``InvalidParameterError`` for a negative
    horizon and with ``EnvelopeBudgetError`` over ``CELL_BUDGET`` cells.
    """
    horizon = check_int(horizon, 0, "horizon")
    k = len(sets)
    envelope_mod.check_cells((horizon + 1) * k * k,
                             f"the hitting tensor of {k} sets at horizon {horizon}")
    if isinstance(target, Subshift):
        return cylinder_tensor(target, [s.word for s in sets], horizon)
    model = target
    member = _cover_membership(model, sets).astype(np.float32)
    table = None
    if isinstance(model, FiniteModel):
        table = np.ascontiguousarray(member.T)
    elif any(v.kind == "points" for v in sets):
        raise InvalidParameterError("explicit point sets need a finite-exact model")
    hits = np.zeros((horizon + 1, k, k), dtype=bool)
    for n, imgs in _times(model, horizon, hits):
        target_n = _target_membership(model, sets, imgs) if table is None else table[imgs]
        hits[n] = member @ target_n > 0
    return hits


def _thick(masks: np.ndarray, run: int) -> np.ndarray:
    """Per row: some ``run`` >= 1 consecutive times all hit."""
    counts = np.zeros((masks.shape[0], masks.shape[1] + 1), dtype=np.int32)
    np.cumsum(masks, axis=1, out=counts[:, 1:])
    return (counts[:, run:] - counts[:, :-run] == run).any(axis=1)


def _first_disjoint_pair(masks: np.ndarray):
    """First (a, b) in row-major order whose rows share no time, or None.

    Chunks of rows of the mask matrix are multiplied by its transpose in
    float32: a zero entry is exactly a pair with no common hit.
    """
    m = masks.astype(np.float32)
    chunk = max(1, (1 << 18) // max(1, len(m)))
    for lo in range(0, len(m), chunk):
        zero = m[lo:lo + chunk] @ m.T == 0
        rows = np.nonzero(zero.any(axis=1))[0]
        if rows.size:
            r = int(rows[0])
            return lo + r, int(np.argmax(zero[r]))
    return None


def classify_transitivity(target, horizon: int, cylinder_length: int | None = None,
                          thick_run: int = 10, granularity: float | None = None) -> dict:
    """Transitive / weakly mixing / mixing verdicts over a finite open cover.

    Shift spaces use all cylinders up to ``cylinder_length`` (3 by default);
    models use metric balls at the given granularity.  Weak mixing combines the
    product-pair test with a thickness scan of every hitting set.

    Every verdict reads one boolean tensor ``hitting_tensor(target, sets,
    horizon)``: K^2 (H+1) booleans for K sets at horizon H, built with one
    K x K product per iterate.  Its pair rows, in row-major (U, V) order,
    form the K^2 x (H+1) mask matrix that the scans share: a cumulative sum
    gives the thickness scan, the trailing run of hits the mixing tail, and
    chunked products of the mask matrix with its transpose the first
    disjoint pair of the weak-mixing test.  A negative horizon, a
    ``thick_run`` below 1, a granularity that is not > 0 and the cover
    parameters that ``transitivity_cover`` refuses are refused with
    ``InvalidParameterError``.
    """
    horizon = check_int(horizon, 0, "horizon")
    if not thick_run >= 1:
        raise InvalidParameterError(f"thick_run={thick_run} is not >= 1")
    sets = transitivity_cover(target, cylinder_length, granularity)
    labels = [s.label() for s in sets]
    k = len(sets)
    hits = hitting_tensor(target, sets, horizon)
    keys = [(i, j) for i in range(k) for j in range(k)]
    masks = np.ascontiguousarray(hits.reshape(horizon + 1, k * k).T)
    run = min(thick_run, max(2, horizon // 4))
    hit_any = masks.any(axis=1)
    empty = [(labels[i], labels[j]) for (i, j), h in zip(keys, hit_any) if not h]
    transitive = not empty
    thick_fail = [(labels[i], labels[j]) for (i, j), ok in zip(keys, _thick(masks, run))
                  if not ok]
    # every time past the first m with fold(m) < m repeats an earlier one;
    # a shift space has no fold
    last = horizon if isinstance(target, Subshift) else next(
        (m for m in range(horizon + 1) if target.fold(m) < m), horizon)
    disjoint = _first_disjoint_pair(masks[:, :last + 1])
    pair_fail = [] if disjoint is None else [(keys[disjoint[0]], keys[disjoint[1]])]
    weakly = transitive and not thick_fail and not pair_fail
    # column 0 is never a hit, so every reversed row has a first miss
    trailing = np.argmin(masks[:, ::-1], axis=1)
    tails = {key: (horizon - int(t) + 1 if t else None) for key, t in zip(keys, trailing)}
    mixing = transitive and all(n0 is not None for n0 in tails.values())
    verdicts = {
        "transitive": PropertyVerdict(
            "transitive", "holds" if transitive else "fails", horizon,
            {"sets": labels},
            witnesses=[] if empty else [int(t) for t in np.argmax(masks[:4], axis=1)],
            counterexamples=empty[:4]),
        "weakly_mixing": PropertyVerdict(
            "weakly_mixing", "holds" if weakly else "fails", horizon,
            {"thick_run": run}, counterexamples=(thick_fail + pair_fail)[:4]),
        "mixing": PropertyVerdict(
            "mixing", "holds" if mixing else "fails", horizon,
            {}, witnesses=[max(n for n in tails.values() if n is not None)] if mixing else []),
    }
    chain_ok = (not mixing or weakly) and (not weakly or transitive)
    return {"verdicts": verdicts, "chain_ok": chain_ok, "tails": tails}


def strong_transitivity_check(model: CascadeModel, horizon: int) -> dict:
    """Backward-orbit density of every point, cross-checked against
    minimality (forward-orbit density) for invertible models.

    With member[y, j] = [y in V_j] over the default cover, back[x, j] marks
    some y in V_j with f^t y = x, and fwd[x, j] some f^t x in V_j, for
    t <= horizon (forward orbits stop after N steps); one pass over the
    iterates of ``_times``, which are all the maps, fills both."""
    if not isinstance(model, FiniteModel):
        raise InvalidParameterError("strong transitivity needs enumerable preimages")
    horizon = check_int(horizon, 0, "horizon")
    n = model.n_points
    member = np.ascontiguousarray(_cover_membership(model, default_cover(model)).T)
    ys, js = np.nonzero(member)
    back, fwd = member.copy(), member.copy()
    for t, imgs in _times(model, horizon):
        back[imgs[ys], js] = True
        if t <= n:
            fwd |= member[imgs]
    failures = np.flatnonzero(~back.all(axis=1)).tolist()
    strongly = not failures
    minimal = bool(fwd.all()) if model.invertible else None
    return {
        "strongly_transitive": PropertyVerdict(
            "strongly_transitive", "holds" if strongly else "fails", horizon,
            {}, counterexamples=failures[:4]),
        "minimal": minimal,
        "agrees_with_minimality": None if minimal is None else (strongly == minimal),
    }


# ---------------------------------------------------------------------------
# equicontinuity / sensitivity
# ---------------------------------------------------------------------------


def _pair_sup_divergence(model, xs, ys, horizon):
    """sup over n <= horizon of d(f^n x, f^n y) for the index pairs (xs, ys),
    through ``image_pair_dist``: on a finite carrier the same floats that
    ``distance_rows`` gives for the image ids, at time 0 and at ``_times``."""
    sup = np.zeros(len(xs))
    for _, imgs in chain([(0, model.iterate_images(0))], _times(model, horizon)):
        sup = np.maximum(sup, model.image_pair_dist(model.apply_to_indices(imgs, xs),
                                                    model.apply_to_indices(imgs, ys)))
    return sup


def _check_eps(eps_list) -> list:
    eps_list = sorted(eps_list)
    if not eps_list:
        raise InvalidParameterError("eps_list is empty")
    if any(math.isnan(e) for e in eps_list):
        raise InvalidParameterError(f"eps_list={eps_list} holds a NaN")
    return eps_list


def equicontinuity_scan(model: CascadeModel, eps_list, horizon: int) -> dict:
    """Per-epsilon equicontinuity points at nearest-neighbor scale.

    A point passes for epsilon when every nearest neighbor stays within
    epsilon along the whole horizon; almost equicontinuity asks the passing
    set to be dense at the model's granularity, and sensitivity is the absence
    of passing points at the smallest epsilon.

    One ``_distance_scan`` at the granularity reads the neighbours and the
    granularity balls, N^2 / 8 bytes bit-packed, with no N x N float array;
    the density test is (ball & passing).any() per row on the packed bits.
    Refused with ``EnvelopeBudgetError`` over ``CELL_BUDGET`` streamed
    cells, and with ``InvalidParameterError`` for an empty ``eps_list`` or a
    negative horizon.
    """
    eps_list = _check_eps(eps_list)
    horizon = check_int(horizon, 0, "horizon")
    g = model.granularity
    xs, ys, first, ball, _ = _distance_scan(model, g)
    # a point whose first mate (in column order) is beyond the granularity is
    # isolated at cover scale: vacuously equicontinuous
    keep = ~(first[xs] > g)
    xs, ys = xs[keep], ys[keep]
    sup = _pair_sup_divergence(model, xs, ys, horizon)
    worst = np.zeros(model.n_points)
    np.maximum.at(worst, xs, sup)
    result = {}
    for eps in eps_list:
        passing = worst < eps
        eq_points = np.flatnonzero(passing).tolist()
        # some passing point within the granularity of every point
        dense = bool(eq_points) and bool((ball & np.packbits(passing)).any(axis=1).all())
        result[eps] = {"equicontinuity_points": eq_points, "ae": dense}
    smallest = eps_list[0]
    sensitive = not result[smallest]["equicontinuity_points"]
    return {
        "per_epsilon": result,
        "ae": all(result[e]["ae"] for e in eps_list),
        "sensitive": sensitive,
        "sensitivity_constant": float(worst.min()) if sensitive else None,
        "horizon": horizon,
        "granularity": g,
    }


def hyper_equicontinuity_crosscheck(base_model: CascadeModel, k: int, eps_list,
                                    horizon: int) -> dict:
    """Almost-equicontinuity agreement between a model and its finite-subset
    hyperspace at cardinality k."""
    _check_eps(eps_list)
    horizon = check_int(horizon, 0, "horizon")
    hyper = build_hyper_model(base_model, k)
    base = equicontinuity_scan(base_model, eps_list, horizon)
    hyp = equicontinuity_scan(hyper, eps_list, horizon)
    return {
        "base_ae": base["ae"],
        "hyper_ae": hyp["ae"],
        "agree": base["ae"] == hyp["ae"],
        "base": base,
        "hyper": hyp,
    }


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------


UNIFORM_WITNESSES = 3      # full returns that uniform rigidity asks for
TUPLE_SIZE = 3             # largest sampled tuple of the weak rigidity test


def rigidity_battery(model: CascadeModel, horizon: int, tau: float) -> dict:
    """Weak / pointwise / uniform rigidity at tolerance tau.

    Weak rigidity samples tuples (all singletons plus 32 tuples drawn with
    seed 0) and asks each for a common return time; pointwise rigidity asks
    one return time for the whole sample; uniform rigidity asks for
    recurring full returns (at least ``UNIFORM_WITNESSES`` of them), the
    finite shadow of a sequence of uniform returns marching to infinity.
    """
    if not tau > 0:
        raise InvalidParameterError("tau must be positive")
    horizon = check_int(horizon, 0, "horizon")
    r = _point_return_matrix(model, horizon, tau)
    n_pts = model.n_points
    # full-sample simultaneous returns
    full = np.nonzero(r[1:].all(axis=1))[0] + 1
    rigid = full.size >= 1
    uniform = full.size >= UNIFORM_WITNESSES
    # tuple tests
    rng = np.random.default_rng(0)
    tuples = [(i,) for i in range(n_pts)]
    for _ in range(32):
        size = int(rng.integers(2, TUPLE_SIZE + 1))
        tuples.append(tuple(int(v) for v in rng.integers(0, n_pts, size)))
    weak_fail = next((t for t in tuples if not r[1:, list(t)].all(axis=1).any()), None)
    weakly = weak_fail is None
    chain_ok = (not uniform or rigid) and (not rigid or weakly)
    return {
        "weakly_rigid": PropertyVerdict(
            "weakly_rigid", "holds" if weakly else "fails", horizon,
            {"tau": tau, "tuple_size": TUPLE_SIZE},
            counterexamples=[] if weakly else [list(weak_fail)]),
        "rigid": PropertyVerdict(
            "rigid", "holds" if rigid else "fails", horizon, {"tau": tau},
            witnesses=[int(v) for v in full[:4]]),
        "uniformly_rigid": PropertyVerdict(
            "uniformly_rigid", "holds" if uniform else "fails", horizon,
            {"tau": tau, "required_witnesses": UNIFORM_WITNESSES},
            witnesses=[int(v) for v in full[:UNIFORM_WITNESSES]]),
        "full_return_times": [int(v) for v in full],
        "chain_ok": chain_ok,
    }


# ---------------------------------------------------------------------------
# recurrence taxonomy
# ---------------------------------------------------------------------------


def _ball_pairs(ball: np.ndarray, lo: int, hi: int, n: int):
    """(row, column) of the set bits in the packed ball rows lo..hi-1, row-major,
    unpacked about ``BLOCK_CELLS`` bits at a time."""
    xs, ys = [], []
    for rows in row_blocks(hi - lo, n):
        r, c = np.divmod(np.flatnonzero(np.unpackbits(ball[lo + rows], axis=1, count=n)), n)
        xs.append(lo + rows[r])
        ys.append(c)
    return np.concatenate(xs), np.concatenate(ys)


def _return_gaps(r: np.ndarray) -> np.ndarray:
    """Per point, the longest gap before a return at a time n >= 1 of the
    time table ``r``: n minus the latest return before it (time 0 counts), 0
    with none.  Rows go in blocks of about ``BLOCK_CELLS`` cells that carry
    each point's latest return, so no temporary spans the whole table."""
    latest = np.zeros(r.shape[1], dtype=np.int64)
    gaps = np.zeros(r.shape[1], dtype=np.int64)
    for rows in row_blocks(len(r) - 1, r.shape[1]):
        block, times = r[rows + 1], rows[:, None] + 1
        run = np.maximum.accumulate(np.where(block, times, latest), axis=0)
        before = np.concatenate([latest[None], run[:-1]])
        np.maximum(gaps, np.where(block, times - before, 0).max(axis=0), out=gaps)
        latest = run[-1]
    return gaps


def recurrence_report(model: CascadeModel, horizon: int, tau: float) -> dict:
    """Per-point recurrence flags at tolerance tau.

    x is nonwandering when some n <= horizon brings a point y of its tau-ball
    within tau of x.  The tau-balls come from one ``_distance_scan``,
    bit-packed (N^2 / 8 bytes, no N x N float array); their pairs (x, y) are
    compared once per iterate of ``_times``, in blocks of rows that hold at
    most N pairs each.  Essential nonwandering asks that every n from some
    start on hits, which holds exactly when n = horizon hits.  A negative
    horizon, or a tau that is negative or NaN, is refused with
    ``InvalidParameterError``, and (horizon + 1) x N time tables over
    ``CELL_BUDGET`` cells with ``EnvelopeBudgetError``.
    """
    horizon = check_int(horizon, 0, "horizon")
    if not tau >= 0:
        raise InvalidParameterError(f"tau={tau} is negative or NaN")
    r = _point_return_matrix(model, horizon, tau)
    n_pts = model.n_points
    *_, ball, counts = _distance_scan(model, tau)
    ends = np.cumsum(counts)
    ident = model.iterate_images(0)
    # point-major, so that the later times of a block of rows fill in runs
    hit = np.zeros((n_pts, horizon + 1), dtype=bool)
    lo = 0
    while lo < n_pts:
        # rows lo..hi-1 hold at most n_pts ball pairs, as many as one ball
        # may: no call compares more pairs than the per-point loop did
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + n_pts, "right")))
        xs, ys = _ball_pairs(ball, lo, hi, n_pts)
        at_x = model.apply_to_indices(ident, xs)
        for n, imgs in _times(model, horizon, hit[lo:hi].T):
            sub = model.apply_to_indices(imgs, ys)
            hit[xs[model.image_pair_dist(sub, at_x) <= tau], n] = True
        lo = hi
    nonwandering = hit[:, 1:].any(axis=1)
    returns = r[1:].sum(axis=0)
    gaps = _return_gaps(r)
    points = [{
        "point": x,
        "recurrent": bool(returns[x] >= 2),
        "nonwandering": bool(nonwandering[x]),
        "essentially_nonwandering": bool(hit[x, horizon]),
        "almost_periodic_gap": int(gaps[x]) if returns[x] >= 2 else None,
    } for x in range(n_pts)]
    return {"horizon": horizon, "tau": tau, "points": points}


# ---------------------------------------------------------------------------
# WAP proxy and semiflow distality
# ---------------------------------------------------------------------------


def wap_proxy_check(env) -> dict:
    """Discrete continuity modulus of the envelope's adherence elements.

    Iterates of the generator are continuous by construction, so only the
    elements the iterates accumulate on are eligible for the discontinuity
    flag: the cycle part of an exact envelope, the limit and composite
    clusters of an approximate one.  An element is flagged when its modulus
    collapses to the sample resolution while neighbors map at least eps
    apart, for eps a quarter and an eighth of the diameter.
    """
    model = env.model
    eps_grid = [model.diameter / 4.0, model.diameter / 8.0]
    dist = full_distance_matrix(model)
    n = model.n_points
    iu = np.triu_indices(n, k=1)
    base = dist[iu]
    scale = model.resolution * (1 + 1e-9)
    if isinstance(env, envelope_mod.ExactEnvelope):  # the cycle part is the adherence set
        eligible = set(range(env.index, env.index + env.period))
    else:
        eligible = {i for i, el in enumerate(env.elements)
                    if el.is_limit or el.provenance == "composite"}
    report = []
    all_cont = True
    for el_idx, name in enumerate(env.element_names()):
        imgs = env.element_images(el_idx)
        a = model.apply_to_indices(imgs, iu[0])
        b = model.apply_to_indices(imgs, iu[1])
        # a finite carrier's images are point ids: read the matrix, bitwise
        # the floats that image_pair_dist computes
        img_d = dist[a, b] if isinstance(model, FiniteModel) else model.image_pair_dist(a, b)
        entry = {"element": name, "moduli": {}}
        discont = False
        for eps in eps_grid:
            viol = img_d >= eps
            delta = float(base[viol].min()) if viol.any() else math.inf
            entry["moduli"][eps] = None if math.isinf(delta) else delta
            if delta <= scale:
                discont = True
        entry["adherence"] = el_idx in eligible
        entry["continuous"] = not discont
        if el_idx in eligible:
            all_cont &= not discont
        report.append(entry)
    worst = min(
        (m for e in report for m in e["moduli"].values() if m is not None),
        default=None,
    )
    return {"all_elements_continuous": all_cont, "worst_modulus": worst,
            "elements": report}


def distal_semiflow_check(env) -> dict:
    """Distality of a finite semicascade, read from its exact envelope, and
    the theorem consequences: pointwise almost periodicity and surjectivity
    must follow exactly.

    Distal means no proximal pair: every envelope map f^k is injective,
    which on a finite set holds exactly when f^index is, so the envelope's
    ``proximal_pair_count`` answers with no envelope map built.
    Every point is periodic exactly when every tail of the functional graph
    is 0, that is when the index is 0.  An approximate envelope is
    refused."""
    if not isinstance(env, envelope_mod.ExactEnvelope):
        raise InvalidParameterError("semiflow distality needs an exact envelope")
    model = env.model
    distal = env.proximal_pair_count == 0
    surjective = len(set(int(v) for v in model.map_table)) == model.n_points
    pap = env.index == 0
    return {
        "distal": distal,
        "pointwise_almost_periodic": pap,
        "surjective": surjective,
        "consequences_hold": (not distal) or (pap and surjective),
    }

