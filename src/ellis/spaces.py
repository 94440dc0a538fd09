"""Phase-space models and the example catalog.

A model is a compact metric space sampled (or realized exactly) at finitely
many points, together with a self-map.  Three carrier flavors exist:

* finite-exact: the map is a total index table, all arithmetic is exact;
* sampled: points carry coordinates, the map is a coordinate evaluator and
  images are snapped to the nearest sample point (snap error reported);
* window: points are bi-infinite binary sequences with finite support, the
  map is the shift, evaluated exactly (never snapped mid-orbit).

Iterates of sampled models are computed by composing the raw evaluator and
snapping once at the end, so discretization error does not compound.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

PointId = int

# rows per chunk of a sampled sup distance: 8192 float64 rows are 64 KiB,
# under glibc's 128 KiB threshold for serving an allocation by a fresh mmap
SUP_CHUNK = 8192

# cells per row block of a float64 temporary (128 KiB), so that a block and
# the reductions over it stay in cache
BLOCK_CELLS = 1 << 14


# cells the int64 maps or the table of one exact envelope, one float64
# distance matrix, or one window snap may hold: 1 GiB
CELL_BUDGET = 2 ** 27

# bytes of iterates one model keeps memoized, past its two newest entries
ITERATE_CACHE_BYTES = 2 ** 23


class EnvelopeBudgetError(RuntimeError):
    """An envelope, a distance matrix or a snap would exceed its cell budget."""


def check_cells(cells: int, what: str) -> None:
    """Refuse, before allocating, an array of more than ``CELL_BUDGET`` cells."""
    if cells > CELL_BUDGET:
        raise EnvelopeBudgetError(f"{what} needs {cells} cells, over the budget of {CELL_BUDGET}")


class UnknownExampleError(KeyError):
    """Requested catalog name does not exist."""


class InvalidParameterError(ValueError):
    """Catalog parameters outside their documented range."""


class NegativePowerError(ValueError):
    """Negative iterate requested on a non-invertible model."""


def _integral(value) -> bool:
    """A real number with an integer value: not a bool, NaN or infinity."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and float(value).is_integer())


def check_index(value, size: int, what: str) -> int:
    """``value`` as an index into ``size`` items; no wrapping, no clamping,
    no truncation, and a bool or NaN is refused too."""
    if not _integral(value) or not 0 <= value < size:
        raise InvalidParameterError(f"{what}={value} is not an integer in [0, {size})")
    return int(value)


def check_int(value, floor: float, what: str) -> int:
    """``value`` as an integer >= ``floor``; a bool, a non-integral number
    and NaN are refused too."""
    if not _integral(value) or value < floor:
        raise InvalidParameterError(f"{what}={value!r} is not an integer >= {floor}")
    return int(value)


def _same_bits(a, b) -> bool:
    """Whether two images hold the same bits: every ``len // 64``-th entry
    compared by value first, then the whole arrays, bit for bit, in slices
    of ``SUP_CHUNK`` entries."""
    if b is None or a.shape != b.shape or a.dtype != b.dtype:
        return False
    step = max(1, len(a) // 64)
    if not np.array_equal(a[::step], b[::step]):
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    a, b = a.view(bits), b.view(bits)
    return all(np.array_equal(a[i:i + SUP_CHUNK], b[i:i + SUP_CHUNK])
               for i in range(0, len(a), SUP_CHUNK))


def _minarc(a, b):
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _circ2(a, b):
    # arc distance on a circle of circumference 2 parametrized by [-1, 1]
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.minimum(d, 2.0 - d)


def row_blocks(count: int, width: int) -> list[np.ndarray]:
    """Consecutive blocks of the row ids 0..count-1, each block of rows of
    ``width`` cells holding about ``BLOCK_CELLS`` cells."""
    step = max(1, BLOCK_CELLS // max(1, width))
    return [np.arange(lo, min(count, lo + step)) for lo in range(0, count, step)]


def cycle_structure(table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps to the cycle, cycle length and cycle id (its least point) of
    every point of the map x -> table[x], in one pass linear in the points."""
    nxt = np.asarray(table, dtype=np.int64).tolist()
    tail, length, root = [-1] * len(nxt), [0] * len(nxt), [0] * len(nxt)
    for start in range(len(nxt)):
        path, x = [], start
        while tail[x] == -1:
            tail[x] = -2                  # on the current walk
            path.append(x)
            x = nxt[x]
        if tail[x] == -2:                 # the walk closed a new cycle at x
            cycle = path[path.index(x):]
            del path[-len(cycle):]
            least = min(cycle)
            for y in cycle:
                tail[y], length[y], root[y] = 0, len(cycle), least
        for y in reversed(path):
            z = nxt[y]
            tail[y], length[y], root[y] = tail[z] + 1, length[z], root[z]
    return tuple(np.asarray(v, dtype=np.int64) for v in (tail, length, root))


# ---------------------------------------------------------------------------
# model classes
# ---------------------------------------------------------------------------


class CascadeModel:
    """Shared interface for all carriers.

    Subclasses provide the raw-image protocol used by the envelope,
    property and hyperspace modules: ``iterate_images(n)`` returns the image
    of the whole sample under f^n, and the ``image_*``, ``snap_images``,
    ``apply_to_indices`` and ``cluster_key`` methods interpret it, so callers
    never need to know which carrier they hold.

    A carrier must define ``n_points``, ``point_dist``, ``resolution``,
    ``diameter``, ``_identity_images`` and ``_advance`` (or its own
    ``iterate_images``), ``image_pair_dist``, ``snap_images``,
    ``orbit_entry`` and ``point_data``.  It inherits
    ``apply_to_indices`` (a gather along the leading axis),
    ``image_point_dist`` (``image_pair_dist`` against the identity image at
    the point), ``image_sup_dist``, ``distance_rows``, ``cluster_key``
    (none) and a ``to_json`` of the six ``ellis.model/1`` keys, to which it
    adds its own (hyperspace carriers export ``ellis.hypermodel/1``
    instead).  The image type is:

    * finite-exact: an int64 ndarray of sample-point ids, one per point;
    * sampled: a float ndarray of raw coordinates, sample on the leading
      axis (never snapped mid-orbit);
    * hyperspace: an ndarray with the sample of hyperpoints on the leading
      axis: hyperpoint ids over a finite base, padded ``(H, k, *point)``
      raw member arrays over a sampled base;
    * window: a ``ShiftImage``, the exponent plus the sample rows it covers,
      so deep shifts stay exact.

    Models are immutable after construction; the iterate cache only
    memoizes pure results.  It holds at most ``ITERATE_CACHE_BYTES`` of
    iterates, or more only while it holds two entries: past the budget it
    drops the least recently used entries, and the two newest stay, since
    two-sided sweeps alternate n and -n.  f^n is always f applied n times to
    the identity (f^-1 |n| times for n < 0), so an evicted iterate comes
    back bitwise equal, and once f^e equals f^(e-p) bit for bit every deeper
    iterate of that sign repeats with period p: ``fold(n)`` names the least
    exponent known to hold f^n's bits, and the cache is read at it.
    """

    name: str = "anonymous"
    params: dict = {}
    kind: str = "finite-exact"
    invertible: bool = False
    metric_name: str = "euclidean"

    def __init__(self):
        self._iter_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._iter_bytes = 0
        self._repeats: dict[bool, tuple[int, int]] = {}   # n > 0 -> (index, period)

    # -- metric ------------------------------------------------------------

    @property
    def n_points(self) -> int:
        raise NotImplementedError

    def point_dist(self, a, b):
        """Vectorized metric between sample-point index arrays."""
        raise NotImplementedError

    def distance_rows(self, rows) -> np.ndarray:
        """Distances from each point of ``rows`` to every sample point, one
        ``point_dist`` call per row: a whole block in one call runs slower,
        bound by memory bandwidth."""
        n = self.n_points
        idx = np.arange(n)
        out = np.empty((len(rows), n))
        for r, i in enumerate(rows):
            out[r] = self.point_dist(np.full(n, i), idx)
        return out

    def distance_blocks(self) -> list[np.ndarray]:
        """The row blocks in which a scan of all N^2 distances asks for
        ``distance_rows``: about ``BLOCK_CELLS`` cells each."""
        return row_blocks(self.n_points, self.n_points)

    def metric(self, a: PointId, b: PointId) -> float:
        a, b = (check_index(p, self.n_points, "point") for p in (a, b))
        return float(self.point_dist(np.asarray([a]), np.asarray([b]))[0])

    @property
    def resolution(self) -> float:
        """Smallest positive pairwise distance (sample scale)."""
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    @property
    def granularity(self) -> float:
        """Neighbor scale of the equicontinuity scan: 4x the resolution."""
        return 4.0 * self.resolution

    # -- dynamics (raw-image protocol) --------------------------------------

    def fold(self, n: int) -> int:
        """The least exponent of n's sign known to have the images of f^n:
        with the index and period of the iterates of that sign, index +
        (|n| - index) mod period, signed, once |n| reaches index + period,
        and n itself before that or while no repeat is known."""
        cycle = self._cycle(n > 0)
        if cycle is None or abs(n) < sum(cycle):
            return n
        index, period = cycle
        m = index + (abs(n) - index) % period
        return m if n > 0 else -m

    def _cycle(self, forward: bool) -> tuple[int, int] | None:
        """(index, period) of the forward or backward iterates: the repeat
        that the stepping loop of ``iterate_images`` has seen, if any."""
        return self._repeats.get(forward)

    def iterate_images(self, n: int):
        """The images of the whole sample under f^n, read from the iterate
        cache at ``fold(n)``.

        A miss steps from the neighbour of fold(n) toward 0 when that is
        cached, else from the nearest cached exponent between 0 and fold(n),
        or from the identity: never across 0 and never backwards.  Each step
        to an exponent e compares the new image, bit for bit, with the one it
        stepped from (p = 1) and with f^(e-2) when the cache holds it
        (p = 2), while no repeat of that sign is known.  At the first match
        the loop records index |e| - p and period p for e's sign and stops,
        since f^n is then f^fold(n), either the image it stepped from or the
        cached f^(e-2).  The check reads only what the loop and the cache
        hold."""
        if n < 0 and not self.invertible:
            raise NegativePowerError(f"negative power {n} on non-invertible model")
        n = self.fold(n)
        cache = self._iter_cache
        if n in cache:
            cache.move_to_end(n)
            return cache[n]
        sign = 1 if n > 0 else -1
        near = n - sign
        if n and near in cache:
            base = near
        elif n > 0:
            base = max((m for m in cache if 0 <= m < n), default=0)
        else:
            base = min((m for m in cache if n < m <= 0), default=0)
        img = cache[base] if base in cache else self._identity_images()
        seek = self._cycle(sign > 0) is None
        e = base
        while abs(e) < abs(n):
            e += sign
            prev, img = img, self._advance(img, sign)
            if not seek:
                continue
            period = (1 if _same_bits(img, prev) else
                      2 if abs(e) > 1 and _same_bits(img, cache.get(e - 2 * sign)) else 0)
            if period:
                self._repeats[sign > 0] = (abs(e) - period, period)
                n = self.fold(n)          # e - sign, or e - 2 sign, which is cached
                if n in cache:
                    cache.move_to_end(n)
                    return cache[n]
                if n == e - sign:
                    img = prev
        cache[n] = img
        self._iter_bytes += img.nbytes
        while self._iter_bytes > ITERATE_CACHE_BYTES and len(cache) > 2:
            self._iter_bytes -= cache.popitem(last=False)[1].nbytes
        return img

    def _identity_images(self):
        raise NotImplementedError

    def _advance(self, images, direction: int):
        raise NotImplementedError

    def image_pair_dist(self, a_imgs, b_imgs) -> np.ndarray:
        """Per-sample-point distances between two image objects."""
        raise NotImplementedError

    def image_sup_dist(self, a_imgs, b_imgs) -> float:
        return float(np.max(self.image_pair_dist(a_imgs, b_imgs)))

    def image_point_dist(self, imgs, point: PointId) -> np.ndarray:
        """Distance from every image entry to one fixed sample point:
        ``image_pair_dist`` against the identity image at ``point``,
        broadcast over ``imgs``."""
        at = self.iterate_images(0)[point]
        return self.image_pair_dist(imgs, np.broadcast_to(at, np.shape(imgs)))

    def snap_images(self, imgs) -> tuple[np.ndarray, float]:
        """Nearest sample index per image entry, plus max snap error."""
        raise NotImplementedError

    def apply_to_indices(self, imgs, idx: np.ndarray):
        """Restrict an image object to a subset/reordering of sample points:
        the entries at ``idx`` of an image with the sample on its leading axis."""
        return np.asarray(imgs)[idx]

    def cluster_key(self, imgs, tau: float):
        """Optional array that refines sup-distance ``tau`` clustering: images
        whose keys are equal cluster together, compared by value.

        ``None`` means callers must fall back to pairwise distances.
        """
        return None

    def orbit_entry(self, imgs, x: PointId):
        """JSON-ready description of the image of sample point ``x``."""
        raise NotImplementedError

    # -- serialization -------------------------------------------------------

    def point_data(self, i: PointId):
        raise NotImplementedError

    def to_json(self) -> dict:
        """The ``ellis.model/1`` keys that every carrier shares; each carrier
        adds its own."""
        return {
            "schema": "ellis.model/1",
            "name": self.name,
            "params": self.params,
            "kind": self.kind,
            "metric": self.metric_name,
            "invertible": self.invertible,
        }


class FiniteModel(CascadeModel):
    """Finite-exact carrier: the map is an index table, and its iterates are
    f^0 .. f^(index+period-1)."""

    kind = "finite-exact"

    def __init__(self, name, params, coords, dist_fn, map_table,
                 inverse_table=None, metric_name="euclidean",
                 point_labels=None):
        super().__init__()
        self.name = name
        self.params = dict(params)
        self.coords = coords
        self._dist_fn = dist_fn
        self.map_table = np.asarray(map_table, dtype=np.int64)
        if self.map_table.min() < 0 or self.map_table.max() >= len(self.map_table):
            raise InvalidParameterError("map table image out of range")
        self.inverse_table = (
            None if inverse_table is None else np.asarray(inverse_table, dtype=np.int64)
        )
        self.invertible = self.inverse_table is not None
        self.metric_name = metric_name
        self._labels = point_labels

    @property
    def n_points(self):
        return int(len(self.map_table))

    def point_dist(self, a, b):
        return self._dist_fn(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    @cached_property
    def cycles(self) -> tuple[int, int, np.ndarray]:
        """Index (longest tail), period (lcm of cycle lengths), cycle lengths."""
        tail, length, _ = cycle_structure(self.map_table)
        return int(tail.max()), math.lcm(*set(length.tolist())), length

    @property
    def index(self) -> int:
        return self.cycles[0]

    @property
    def period(self) -> int:
        return self.cycles[1]

    def _cycle(self, forward):
        # the closed form, least index and period; an inverse table is a
        # permutation, of index 0, so f^-1 repeats with the same period
        return self.index, self.period

    @cached_property
    def _scale(self) -> tuple[float, float]:
        """(resolution, diameter) from one scan of all N^2 distances; a lone
        point's resolution is 1."""
        res, diam = math.inf, 0.0
        for rows in row_blocks(self.n_points, self.n_points):
            d = self.distance_rows(rows)
            pos = d[d > 0]
            if pos.size:
                res = min(res, float(pos.min()))
            diam = max(diam, float(d.max()))
        return (res if res < math.inf else 1.0), diam

    @property
    def resolution(self):
        return self._scale[0]

    @property
    def diameter(self):
        return self._scale[1]

    def _identity_images(self):
        return np.arange(self.n_points, dtype=np.int64)

    def _advance(self, images, direction):
        table = self.map_table if direction > 0 else self.inverse_table
        if table is None:
            raise NegativePowerError("model has no inverse table")
        return table[images]

    def image_pair_dist(self, a_imgs, b_imgs):
        return self.point_dist(a_imgs, b_imgs)

    def snap_images(self, imgs):
        return np.asarray(imgs, dtype=np.int64), 0.0

    def cluster_key(self, imgs, tau):
        if tau < self.resolution:
            return imgs
        return None

    def orbit_entry(self, imgs, x):
        return int(imgs[x])

    def point_data(self, i):
        if self._labels is not None:
            return self._labels[i]
        if self.coords is None:
            return i
        c = self.coords[i]
        return [float(v) for v in np.atleast_1d(c)]

    def to_json(self):
        return {
            **super().to_json(),
            "points": [self.point_data(i) for i in range(self.n_points)],
            "map": [int(v) for v in self.map_table],
        }


class SampledModel(CascadeModel):
    """Sampled carrier: coordinates plus a raw coordinate evaluator."""

    kind = "sampled"

    def __init__(self, name, params, points, step_raw, inverse_raw,
                 raw_dist, snap_raw, epsilon, metric_name):
        super().__init__()
        self.name = name
        self.params = dict(params)
        self.points = np.asarray(points, dtype=float)
        self._step_raw = step_raw
        self._inverse_raw = inverse_raw
        self._raw_dist = raw_dist
        self._snap_raw = snap_raw
        self.epsilon = float(epsilon)
        self.invertible = inverse_raw is not None
        self.metric_name = metric_name

    @property
    def n_points(self):
        return int(self.points.shape[0])

    def point_dist(self, a, b):
        return self._raw_dist(self.points[np.asarray(a)], self.points[np.asarray(b)])

    @property
    def resolution(self):
        return self.epsilon

    @cached_property
    def diameter(self):
        d = 0.0
        for i in range(0, self.n_points, max(1, self.n_points // 32)):
            row = self._raw_dist(
                np.broadcast_to(self.points[i], self.points.shape), self.points
            )
            d = max(d, float(row.max()))
        return d

    def _identity_images(self):
        return self.points.copy()

    def _advance(self, images, direction):
        if direction > 0:
            return self._step_raw(images)
        if self._inverse_raw is None:
            raise NegativePowerError("model has no exact inverse evaluator")
        return self._inverse_raw(images)

    def image_pair_dist(self, a_imgs, b_imgs):
        return self._raw_dist(a_imgs, b_imgs)

    def image_sup_dist(self, a_imgs, b_imgs):
        # chunked, so that every temporary stays below glibc's mmap threshold
        # and comes off the heap, whatever the heap's layout
        return max(float(np.max(self._raw_dist(a_imgs[i:i + SUP_CHUNK], b_imgs[i:i + SUP_CHUNK])))
                   for i in range(0, len(a_imgs), SUP_CHUNK))

    def snap_images(self, imgs):
        idx = self._snap_raw(imgs)
        err = self._raw_dist(imgs, self.points[idx])
        return idx, float(np.max(err)) if len(err) else 0.0

    def orbit_entry(self, imgs, x):
        # the raw image and its snap, so discretization is never silent
        raw = imgs[[x]]
        idx, err = self.snap_images(raw)
        return {"raw": [float(v) for v in np.atleast_1d(raw[0])], "snapped": int(idx[0]),
                "snap_error": err}

    def point_data(self, i):
        return [float(v) for v in np.atleast_1d(self.points[i])]

    def to_json(self):
        return {
            **super().to_json(),
            "epsilon": self.epsilon,
            "points": self.points.reshape(self.n_points, -1).tolist(),
            "map": np.asarray(self._step_raw(self.points), dtype=float)
                     .reshape(self.n_points, -1).tolist(),
        }


class ShiftImage:
    """Lazy image of sample rows under sigma^n (window models).

    ``rows`` lists the sample points the image covers, in order, so window
    images re-index like every other carrier's.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: np.ndarray):
        self.n = int(n)
        self.rows = rows

    def __repr__(self):
        return f"ShiftImage({self.n}, {len(self.rows)} rows)"


class WindowSampleModel(CascadeModel):
    """Finite sample of a two-sided shift space under the exact shift map.

    Points are binary sequences with support inside ``[-radius, radius]``;
    the shift is evaluated exactly via index arithmetic (a ``ShiftImage``
    handle), so arbitrarily deep iterates stay exact.  Distances use the
    standard dyadic sequence metric, read off positions ``[-pad, pad]``.

    The symbols are packed one bit per symbol, eight sample points per byte
    in ``np.packbits`` order, in position-major rows: row p + pad + 1 holds
    position p, between two all-zero rows, so clipping a position off the
    stored support lands on a zero row.  The constructor packs unpacked
    ``bits`` (one row per sample point) once; ``sample_window_model`` draws
    through a bounded scratch and packs it block by block.
    """

    kind = "window"
    metric_name = "shift-dyadic"

    def __init__(self, name, params, bits: np.ndarray, radius: int, pad: int):
        super().__init__()
        self.name = name
        self.params = dict(params)
        self.radius = int(radius)
        self.pad = int(pad)
        width = 2 * pad + 1
        self._packed = np.zeros((width + 2, -(-bits.shape[0] // 8)), dtype=np.uint8)
        lo = pad - radius + 1
        self._packed[lo : lo + bits.shape[1]] = np.packbits(bits.T, axis=1)
        self._rows = np.arange(bits.shape[0])
        self.invertible = True
        # positions -pad..pad in order of distance from the origin
        pos = np.arange(-pad, pad + 1)
        self._scan_order = np.argsort(np.abs(pos), kind="stable")
        self._scan_weight = 2.0 ** (-np.abs(pos[self._scan_order]))

    @property
    def n_points(self):
        return len(self._rows)

    def _stored(self, n: int, w: int) -> np.ndarray:
        """The packed rows of positions n-w..n+w, clipped onto the zero rows:
        a view when none is clipped."""
        lo, hi = n - w + self.pad + 1, n + w + self.pad + 2
        if 0 <= lo <= hi <= len(self._packed):
            return self._packed[lo:hi]
        return self._packed.take(np.arange(lo, hi), axis=0, mode="clip")

    def _symbols(self, n: int, w: int, rows) -> np.ndarray:
        """The symbols at positions n-w..n+w of the sample points ``rows``,
        unpacked: one uint8 row per position."""
        rows = self._rows[rows]         # an id in the last byte's padding bits raises too
        out = self._stored(n, w).take(rows >> 3, axis=1)
        out >>= (7 - (rows & 7)).astype(np.uint8)
        out &= 1
        return out

    @property
    def bits(self) -> np.ndarray:
        """Symbols at positions -pad..pad, one row per sample point."""
        return self._symbols(0, self.pad, self._rows).T

    def symbol(self, i: PointId, pos: int) -> int:
        return int(self._symbols(pos, 0, [i])[0, 0])

    def key_matrix(self, imgs, w: int) -> np.ndarray:
        """Packed symbols of an image on the window ``[-w, w]``, position-major.

        Row j holds the symbols of sigma^n(x) at position j - w for the
        sample points x = ``imgs.rows``, packed eight per byte; 0 off the
        stored support, and no positions at all for ``w = -1``.  An image of
        every sample point, in order, whose window lies inside the stored
        rows reads a contiguous slice of them: a view, never to be written.
        Any other image packs its gathered symbols, so equal windows give
        equal keys.
        """
        if imgs.rows is self._rows:
            return self._stored(imgs.n, w)
        return np.packbits(self._symbols(imgs.n, w, imgs.rows), axis=1)

    def _first_diff(self, xor, count: int):
        # the XOR of two packed keys on positions -pad..pad, for ``count``
        # points: the disagreement nearest the origin, at position p, gives
        # 2^-|p|; none gives 0
        diff = np.unpackbits(xor[self._scan_order], axis=1, count=count).view(bool)
        first = np.argmax(diff, axis=0)
        return np.where(diff.any(axis=0), self._scan_weight[first], 0.0)

    def point_dist(self, a, b):
        a, b = (ShiftImage(0, np.atleast_1d(p)) for p in (a, b))
        return self.image_pair_dist(a, b)

    @property
    def resolution(self):
        return 2.0 ** (-self.radius)

    @property
    def diameter(self):
        return 1.0

    @property
    def granularity(self):
        # window samples live at cylinder scale, not at the sample resolution
        return 0.5

    def iterate_images(self, n: int):
        return ShiftImage(n, self._rows)

    def image_pair_dist(self, a_imgs, b_imgs):
        xor = self.key_matrix(a_imgs, self.pad) ^ self.key_matrix(b_imgs, self.pad)
        return self._first_diff(xor, len(a_imgs.rows))

    def image_point_dist(self, imgs, point):
        # the point's symbols as whole bytes, 0x00 or 0xFF, against every packed column
        at = np.uint8(255) * self._symbols(0, self.pad, [point])
        return self._first_diff(self.key_matrix(imgs, self.pad) ^ at, len(imgs.rows))

    def snap_images(self, imgs):
        check_cells(len(imgs.rows) * self.n_points * (2 * self.pad + 1),
                    f"snapping {len(imgs.rows)} window rows onto {self.n_points} points")
        block = np.uint8(255) * self._symbols(imgs.n, self.pad, imgs.rows)
        seqs = self._packed[1:-1]
        idx = np.empty(block.shape[1], dtype=np.int64)
        err = 0.0
        for r in range(block.shape[1]):
            d = self._first_diff(seqs ^ block[:, [r]], self.n_points)
            idx[r] = int(np.argmin(d))
            err = max(err, float(d[idx[r]]))
        return idx, err

    def apply_to_indices(self, imgs, idx):
        return ShiftImage(imgs.n, imgs.rows[np.asarray(idx)])

    def window_radius(self, tau: float) -> int:
        # distances are 0 or 2^-k, so d <= tau exactly when the sequences
        # agree on [-w, w] for the largest w with 2^-w > tau (-1 if tau >= 1)
        w = -1
        while 2.0 ** (-(w + 1)) > tau:
            w += 1
        return w

    def cluster_key(self, imgs, tau):
        return self.key_matrix(imgs, self.window_radius(tau))

    def orbit_entry(self, imgs, x):
        return {"shift": imgs.n, "point": int(imgs.rows[x])}

    def point_data(self, i):
        sup = np.nonzero(self._symbols(0, self.pad, [i])[:, 0])[0] - self.pad
        return {"support": [int(v) for v in sup]}

    def to_json(self):
        return {**super().to_json(), "count": self.n_points, "radius": self.radius}


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@dataclass
class CatalogEntry:
    name: str
    builder: Callable[..., CascadeModel]
    defaults: dict
    summary: str


def _interval_model(name, params, lo, hi, grid, fwd, inv):
    grid = check_int(grid, 2, "grid")
    pts = np.linspace(lo, hi, grid)
    eps = (hi - lo) / (grid - 1)

    def dist(a, b):
        return np.abs(np.asarray(a, dtype=float).ravel() - np.asarray(b, dtype=float).ravel())

    def snap(raw):
        x = np.asarray(raw, dtype=float).ravel()
        idx = np.rint((x - lo) / eps).astype(np.int64)
        return np.clip(idx, 0, grid - 1)

    return SampledModel(
        name, params, pts,
        step_raw=lambda x: fwd(np.asarray(x, dtype=float)),
        inverse_raw=None if inv is None else (lambda x: inv(np.asarray(x, dtype=float))),
        raw_dist=dist, snap_raw=snap, epsilon=eps, metric_name="interval",
    )


def build_square_map(grid=1001):
    return _interval_model(
        "square-map", {"grid": grid}, 0.0, 1.0, grid,
        fwd=lambda x: x * x, inv=np.sqrt,
    )


def build_neg_cube(grid=2001):
    return _interval_model(
        "neg-cube", {"grid": grid}, -1.0, 1.0, grid,
        fwd=lambda x: -(x * x * x), inv=lambda x: -np.cbrt(x),
    )


def build_identity(n=5):
    n = check_int(n, 1, "n")
    coords = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)

    def dist(a, b):
        return np.abs(coords[a] - coords[b])

    idx = np.arange(n)
    return FiniteModel("identity", {"n": n}, coords, dist, idx, idx, "interval")


def _rotation_steps(alpha, grid):
    """(steps, grid) of the rotation by ``alpha``, or InvalidParameterError;
    a fraction "p/q" defaults the grid to q and needs a multiple of it."""
    try:
        if isinstance(alpha, str) and "/" in alpha:
            frac = Fraction(alpha)
            grid = frac.denominator if grid is None else grid
            if grid % frac.denominator:
                raise InvalidParameterError("grid must be a multiple of the rotation denominator")
            steps = frac.numerator * (grid // frac.denominator)
        else:
            grid = 144 if grid is None else grid
            steps = int(round(float(alpha) * grid))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(str(exc)) from None
    if grid < 2:
        raise InvalidParameterError("rotation grid must be >= 2")
    return steps % grid, grid


def build_irrational_rotation(alpha="0.6180339887498949", grid=None):
    steps, grid = _rotation_steps(alpha, grid)
    theta = TWO_PI * np.arange(grid) / grid
    coords = theta

    def dist(a, b):
        return _minarc(coords[a], coords[b])

    fwd = (np.arange(grid) + steps) % grid
    inv = (np.arange(grid) - steps) % grid
    return FiniteModel(
        "irrational-rotation", {"alpha": str(alpha), "grid": grid, "steps": steps},
        coords, dist, fwd, inv, "circle-arc",
    )


def build_double_circle_rotation(alpha="0.6180339887498949", grid=36):
    steps, grid = _rotation_steps(alpha, grid)
    theta = TWO_PI * np.arange(grid) / grid
    radius = np.concatenate([np.ones(grid), 2.0 * np.ones(grid)])
    angle = np.concatenate([theta, theta])
    coords = np.stack([radius, angle], axis=1)

    def dist(a, b):
        return np.abs(radius[a] - radius[b]) + _minarc(angle[a], angle[b])

    one = (np.arange(grid) + steps) % grid
    fwd = np.concatenate([one, one + grid])
    ione = (np.arange(grid) - steps) % grid
    inv = np.concatenate([ione, ione + grid])
    return FiniteModel(
        "double-circle-rotation", {"alpha": str(alpha), "grid": grid, "steps": steps},
        coords, dist, fwd, inv, "radial-plus-arc",
    )


def _circle_stack(name, params, base, levels, mult, step_of_level):
    """Concentric circles r = 1 - base^-j plus the center point and the unit
    circle; each circle rotates by an exact number of grid steps."""
    levels, mult = check_int(levels, 1, "levels"), check_int(mult, 1, "mult")
    g = (base ** levels) * mult
    radii = [1.0 - base ** (-j) for j in range(1, levels + 1)] + [1.0]
    xs, ys, fwd, inv = [0.0], [0.0], [0], [0]  # center point, fixed
    offset = 1
    for j, r in enumerate(radii, start=1):
        steps = step_of_level(j, g) if j <= levels else 0
        theta = TWO_PI * np.arange(g) / g
        xs.extend(r * np.cos(theta))
        ys.extend(r * np.sin(theta))
        fwd.extend(offset + (np.arange(g) + steps) % g)
        inv.extend(offset + (np.arange(g) - steps) % g)
        offset += g
    coords = np.stack([np.asarray(xs), np.asarray(ys)], axis=1)

    def dist(a, b):
        d = coords[a] - coords[b]
        return np.hypot(d[..., 0], d[..., 1])

    return FiniteModel(name, params, coords, dist, fwd, inv, "euclidean")


def build_dyadic_circle_stack(levels=5, mult=4):
    return _circle_stack(
        "dyadic-circle-stack", {"levels": levels, "mult": mult}, 2, levels, mult,
        lambda j, g: (-(g >> j)) % g,
    )


def build_dyadic_circle_stack_inward(levels=8, mult=1):
    return _circle_stack(
        "dyadic-circle-stack-inward", {"levels": levels, "mult": mult}, 2, levels, mult,
        lambda j, g: (g >> j) % g,
    )


def build_triadic_circle_stack(levels=3, mult=2):
    return _circle_stack(
        "triadic-circle-stack", {"levels": levels, "mult": mult}, 3, levels, mult,
        lambda j, g: (-(g // (3 ** j))) % g,
    )


def _periodic_stacks(name, n, truncate, union):
    """Disjoint periodic stacks, one per size c (c = 1..n for a union, else
    only n), their metric 3 larger across stacks.  Stack c holds the points
    (k, l), k in -truncate..truncate plus infinity and l in 1..c, k-major; f
    moves k one step toward infinity and l to l mod c + 1.  Point (k, l) of stack c is offset_c + pos(k)·c + l - 1,
    with pos(k) = k + truncate and pos(infinity) = 2·truncate + 1."""
    params = {"n": n, "truncate": truncate}
    n, truncate = check_int(n, 1, "n"), check_int(truncate, 1, "truncate")
    sizes = list(range(1, n + 1)) if union else [n]
    rows = 2 * truncate + 2
    counts = [rows * c for c in sizes]
    comp_arr = np.repeat(np.asarray(sizes, dtype=np.int64), counts)
    offset = np.repeat(np.cumsum([0] + counts[:-1]), counts)
    pos, l0 = np.divmod(np.arange(len(comp_arr)) - offset, comp_arr)
    k = pos - truncate
    arc = np.where(pos == rows - 1, 1.0, k / (1.0 + np.abs(k)))
    lab = l0 + 1

    def dist(a, b):
        return (
            3.0 * (comp_arr[a] != comp_arr[b]).astype(float)
            + _circ2(arc[a], arc[b])
            + (lab[a] != lab[b]).astype(float)
        )

    fwd = offset + np.minimum(pos + 1, rows - 1) * comp_arr + lab % comp_arr
    labels = [{"n": c, "k": "inf" if j > truncate else j, "l": l}
              for c, j, l in zip(comp_arr.tolist(), k.tolist(), lab.tolist())]
    return FiniteModel(name, params, None, dist, fwd, None, "compactified-line-plus-label",
                       point_labels=labels)


def build_periodic_stack(n=3, truncate=100):
    return _periodic_stacks("periodic-stack", n, truncate, union=False)


def build_periodic_union(n=3, truncate=100):
    return _periodic_stacks("periodic-union", n, truncate, union=True)


def build_isolated_ones_subshift(truncate=12):
    truncate = check_int(truncate, 1, "truncate")
    # points: x^j (single 1 at position j), |j| <= truncate, plus all-zero
    js = list(range(-truncate, truncate + 1))
    n = len(js) + 1
    zero = n - 1
    # the 1 of x^j sits at radius |j|; the zero sequence has none
    radius = np.append(np.abs(np.asarray(js, dtype=float)), np.inf)

    def dist(a, b):
        # first disagreement sits at the 1 of smallest |position|
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        return np.where(a == b, 0.0, 2.0 ** -np.minimum(radius[a], radius[b]))

    fwd = []
    for j in js:
        fwd.append(zero if j - 1 < -truncate else js.index(j - 1))
    fwd.append(zero)
    labels = [{"one_at": j} for j in js] + [{"one_at": None}]
    return FiniteModel(
        "isolated-ones-subshift", {"truncate": truncate}, None, dist, fwd, None,
        "shift-dyadic", point_labels=labels,
    )


def build_annulus_skew(radial=5, grid=36, alpha=0.6180339887498949):
    radial, grid = check_int(radial, 0, "radial"), check_int(grid, 2, "grid")
    r_grid = np.linspace(1.0, 2.0, radial + 2)
    t_grid = TWO_PI * np.arange(grid) / grid
    rr, tt = np.meshgrid(r_grid, t_grid, indexing="ij")
    pts = np.stack([rr.ravel(), tt.ravel()], axis=1)
    d_theta = TWO_PI * float(alpha)

    def fwd(raw):
        raw = np.atleast_2d(raw)
        r, t = raw[:, 0], raw[:, 1]
        return np.stack([1.0 + (r - 1.0) ** 2, (t + d_theta) % TWO_PI], axis=1)

    def inv(raw):
        raw = np.atleast_2d(raw)
        r, t = raw[:, 0], raw[:, 1]
        return np.stack([1.0 + np.sqrt(np.maximum(r - 1.0, 0.0)), (t - d_theta) % TWO_PI], axis=1)

    def dist(a, b):
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        return np.abs(a[:, 0] - b[:, 0]) + _minarc(a[:, 1], b[:, 1])

    def snap(raw):
        raw = np.atleast_2d(raw)
        ri = np.clip(np.rint((raw[:, 0] - 1.0) * (radial + 1)), 0, radial + 1).astype(np.int64)
        ti = np.rint(raw[:, 1] / (TWO_PI / grid)).astype(np.int64) % grid
        return ri * grid + ti

    eps = min(1.0 / (radial + 1), TWO_PI / grid)
    return SampledModel(
        "annulus-skew", {"radial": radial, "grid": grid, "alpha": alpha}, pts,
        fwd, inv, dist, snap, eps, "radial-plus-arc",
    )


CATALOG: dict[str, CatalogEntry] = {}


def _register(name, builder, defaults, summary):
    CATALOG[name] = CatalogEntry(name, builder, defaults, summary)


_register("square-map", build_square_map, {"grid": 1001},
          "interval squaring map; iterates limit onto two idempotent step maps")
_register("neg-cube", build_neg_cube, {"grid": 2001},
          "odd cubing map with sign flip; four limit maps forming two 2-element ideals")
_register("identity", build_identity, {"n": 5},
          "identity map on n points")
_register("irrational-rotation", build_irrational_rotation,
          {"alpha": "0.6180339887498949", "grid": None},
          "circle rotation resolved exactly on the angular grid")
_register("double-circle-rotation", build_double_circle_rotation,
          {"alpha": "0.6180339887498949", "grid": 36},
          "same rotation on two disjoint circles; distal but not transitive")
_register("dyadic-circle-stack", build_dyadic_circle_stack, {"levels": 5, "mult": 4},
          "circles at radii 1-2^-j rotating by -2*pi/2^j; locally rigid stack")
_register("dyadic-circle-stack-inward", build_dyadic_circle_stack_inward,
          {"levels": 8, "mult": 1},
          "circles at radii 1-2^-j rotating by +2*pi/2^j; pointwise returns along powers of 2")
_register("triadic-circle-stack", build_triadic_circle_stack, {"levels": 3, "mult": 2},
          "base-3 analogue of the dyadic stack")
_register("periodic-stack", build_periodic_stack, {"n": 3, "truncate": 100},
          "compactified integer line crossed with an n-cycle; envelope gains an n-periodic idempotent")
_register("periodic-union", build_periodic_union, {"n": 3, "truncate": 100},
          "disjoint union of periodic stacks 1..n; single limit idempotent of period lcm(1..n)")
_register("isolated-ones-subshift", build_isolated_ones_subshift, {"truncate": 12},
          "orbit of the single-1 sequence plus the zero sequence; constant limit map")
_register("annulus-skew", build_annulus_skew, {"radial": 5, "grid": 36, "alpha": 0.6180339887498949},
          "rotation with quadratic radial drift between two invariant boundary circles")


def load_example(name: str, **params) -> CascadeModel:
    if name not in CATALOG:
        raise UnknownExampleError(name)
    entry = CATALOG[name]
    merged = dict(entry.defaults)
    for key, value in params.items():
        if key not in entry.defaults:
            raise InvalidParameterError(f"{name} has no parameter {key!r}")
        merged[key] = value
    return entry.builder(**merged)


def list_catalog() -> list[dict]:
    return [
        {"name": e.name, "params": dict(e.defaults), "summary": e.summary}
        for e in (CATALOG[k] for k in sorted(CATALOG))
    ]


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------


def orbit_segment(model: CascadeModel, x: PointId, n_from: int, n_to: int):
    """The orbit entries of ``x`` under f^n for n = n_from..n_to: a point id
    on a finite-exact model, the raw image, its snap and the snap error on a
    sampled one, the shift handle on a window one."""
    n_from, n_to = check_int(n_from, -math.inf, "n_from"), check_int(n_to, -math.inf, "n_to")
    if n_from > n_to:
        raise InvalidParameterError("n_from must be <= n_to")
    if n_from < 0 and not model.invertible:
        raise NegativePowerError("negative powers need an invertible model")
    x = check_index(x, model.n_points, "point")
    return [model.orbit_entry(model.iterate_images(n), x) for n in range(n_from, n_to + 1)]


def omega_limit_estimate(model: CascadeModel, x: PointId, horizon: int, tol: float) -> set[PointId]:
    """Sample points hit at least twice by the tail half of the orbit; a
    ``tol`` that is negative or NaN is refused."""
    horizon = check_int(horizon, 1, "horizon")
    if not tol >= 0:
        raise InvalidParameterError(f"tol={tol} is negative or NaN")
    x = check_index(x, model.n_points, "point")
    hits = np.zeros(model.n_points, dtype=np.int64)
    ident = model.iterate_images(0)
    copies_of_x = np.full(model.n_points, x, dtype=np.int64)
    for n in range(horizon // 2 + 1, horizon + 1):
        # distance from the n-th image of x to every sample point
        imgs = model.apply_to_indices(model.iterate_images(n), copies_of_x)
        hits[model.image_pair_dist(imgs, ident) <= tol] += 1
    return {int(i) for i in np.nonzero(hits >= 2)[0]}


def sample_window_model(count=64, radius=64, seed=0, density=0.5) -> WindowSampleModel:
    """Seeded sample of finite-support sequences from the full 2-shift, each
    symbol 1 with probability ``density``; a ``count`` or ``radius`` that is
    not an integer >= 1, and a density outside [0, 1] (NaN too), are
    refused."""
    count, radius = check_int(count, 1, "count"), check_int(radius, 1, "radius")
    if not 0 <= density <= 1:
        raise InvalidParameterError(f"density={density} is not in [0, 1]")
    width, pad = 2 * radius + 1, radius + 2
    # all-zero sequences, whose packed rows then take the draw block by block
    model = WindowSampleModel(
        "two-shift-window", {"count": count, "radius": radius, "seed": seed, "density": density},
        np.empty((count, 0), dtype=np.uint8), radius, pad,
    )
    # rng.random() < density read off the raw words: random() is
    # (word >> 11) * 2^-53, below density exactly when word >> 11 < T for
    # T = ceil(density * 2^53), so when word < T * 2^11
    cut = math.ceil(density * 2 ** 53)
    if cut:
        rng = np.random.default_rng(seed)
        below = np.uint64(cut * 2 ** 11 - 1)
        packed = model._packed[pad - radius + 1:pad + radius + 2]
        # the symbols of `points` sample points at a time land in a bool
        # scratch of about 1 MiB, which stays in cache and is packed along its
        # rows in one call (packing each word block's tiny rows ran slower)
        points = max(8, 2 ** 20 // width // 8 * 8)
        scratch = np.empty((width, min(count, points)), dtype=bool)
        # rows per word block: 512 KiB of words, so that each scratch row
        # takes runs of 16 symbols at width 4003
        step = max(1, 2 ** 16 // width)
        for start in range(0, count, points):
            end = min(count, start + points)
            for lo in range(start, end, step):
                hi = min(end, lo + step)
                words = rng.bit_generator.random_raw((hi - lo) * width).reshape(hi - lo, width)
                np.less_equal(words.T, below, out=scratch[:, lo - start:hi - start])
            packed[:, start // 8:-(-end // 8)] = np.packbits(scratch[:, :end - start], axis=1)
    return model
