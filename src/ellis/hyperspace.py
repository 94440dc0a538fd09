"""Hyperspace of finite subsets under the Hausdorff metric.

The full hyperspace of closed sets is approximated by the bounded-cardinality
finite-subset lattice, which is dense in it; the induced map acts elementwise
with dedup after snapping (Bauer & Sigmund 1975, Monatsh. Math. 79).

Every hyperpoint is stored as a padded row of exactly k base points: a set
with j < k members repeats its first member k - j times.  Repeating a member
leaves the set unchanged, and the Hausdorff distance depends only on the two
sets, so the min/max reduction of a (k, k) table of member distances is the
exact Hausdorff distance even with repeats.

Between hyperpoints every such table is a gather from one base distance
matrix D[x, y] = base.point_dist(x, y), built once per hyperspace: P pairs
read one C-contiguous (k, k, P) block of D and reduce it, and whole rows
take the closed form of ``HyperCascadeModel.distance_rows``.  Raw images
of a sampled base, which are not sample points, and queries too small to
pay for D still reduce a (k, k, P) tensor of base distances.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from .spaces import (BLOCK_CELLS, CascadeModel, FiniteModel, InvalidParameterError,
                     WindowSampleModel, check_cells, check_index, row_blocks)


class HyperBudgetError(RuntimeError):
    """Requested enumeration exceeds the configured budget."""


HyperPoint = tuple  # canonical: sorted tuple of distinct PointIds


def canonical(members) -> HyperPoint:
    out = tuple(sorted(set(int(m) for m in members)))
    if not out:
        raise InvalidParameterError("hyperpoints are nonempty")
    return out


def _hausdorff(d: np.ndarray) -> np.ndarray:
    """Hausdorff distances from a (|A|, |B|, P) tensor of member distances;
    the pair axis comes last so each reduction runs over whole vectors."""
    return np.maximum(d.min(axis=1).max(axis=0), d.min(axis=0).max(axis=0))


def hausdorff_distance(model: CascadeModel, a, b) -> float:
    """Max of the two directed sup-min distances between finite subsets; a
    point id outside [0, N) is refused with ``InvalidParameterError``."""
    a, b = (canonical(check_index(m, model.n_points, "point") for m in s) for s in (a, b))
    ia = np.asarray(a, dtype=np.int64)
    ib = np.asarray(b, dtype=np.int64)
    d = model.point_dist(np.repeat(ia, len(ib)), np.tile(ib, len(ia)))
    return float(_hausdorff(d.reshape(len(ia), len(ib), 1))[0])


class HyperCascadeModel(CascadeModel):
    """Enumeration of all subsets of size <= max_cardinality of a base model.

    Holds what both hyperspace carriers share: the padded member rows, their
    ids (by cardinality, then lexicographic, so {x} has id x), the Hausdorff
    metric, and the scales of the base.  ``build_hyper_model`` picks the
    carrier; each satisfies the raw-image protocol, so envelope and property
    machinery runs on it unchanged.
    """

    kind = "hyper"

    def _enumerate(self, base: CascadeModel, max_cardinality: int, budget: int):
        if max_cardinality < 1:
            raise InvalidParameterError("max cardinality must be >= 1")
        n, k = base.n_points, int(max_cardinality)
        counts = [math.comb(n, j) for j in range(1, k + 1)]
        if sum(counts) > budget:
            raise HyperBudgetError(f"{sum(counts)} hyperpoints exceeds budget {budget}")
        self.base = base
        self.max_cardinality = k
        self.name = f"hyper({base.name}, k={k})"
        self.params = {"base": base.name, "k": k, **base.params}
        self.metric_name = f"hausdorff[{base.metric_name}]"
        blocks = []
        for j, count in enumerate(counts, start=1):
            sets = np.fromiter(chain.from_iterable(combinations(range(n), j)),
                               dtype=np.int64, count=count * j).reshape(count, j)
            blocks.append(np.concatenate([sets, np.repeat(sets[:, :1], k - j, axis=1)], axis=1))
        self.members = np.concatenate(blocks)
        # C(a, b) for a < n, b <= k: column b is the running sum of column b - 1
        self._binom = np.zeros((n, k + 1), dtype=np.int64)
        self._binom[:, 0] = 1
        for b in range(1, k + 1):
            self._binom[1:, b] = np.cumsum(self._binom[:-1, b - 1])
        # the last id of each cardinality j (index j; -1 before the first)
        self._last = np.cumsum([-1] + counts)
        self._base_dist = None
        self._point_set_dist = None       # C of ``distance_rows``

    def hyper_ids(self, rows) -> np.ndarray:
        """Ids of rows of at most k base point ids, repeats allowed: the j-set
        {c_1 < ... < c_j} has lex rank C(n, j) - 1 - sum_t C(n-1-c_t, j-t+1)
        among the j-sets (Knuth, TAOCP 4A, 7.2.1.3)."""
        s = np.sort(np.asarray(rows, dtype=np.int64), axis=1)
        first = np.ones(s.shape, dtype=bool)
        first[:, 1:] = s[:, 1:] != s[:, :-1]
        size = first.sum(axis=1)
        terms = self._binom[self.base.n_points - 1 - s, size[:, None] - np.cumsum(first, axis=1) + 1]
        return self._last[size] - np.where(first, terms, 0).sum(axis=1)

    def member_rows(self, imgs) -> np.ndarray:
        """Padded member rows of an image: base point ids over a finite base."""
        return self.members[imgs]

    @property
    def hyperpoints(self) -> list[HyperPoint]:
        """The canonical subsets in id order, read off the member rows."""
        return [tuple(dict.fromkeys(r)) for r in self.members.tolist()]

    def _member_images(self, hyper_ids) -> np.ndarray:
        # base identity images of the padded members, (P, k, ...)
        ident = self.base.iterate_images(0)
        return self.base.apply_to_indices(ident, self.members[hyper_ids])

    @property
    def base_dist(self) -> np.ndarray:
        """D[x, y] = base.point_dist(x, y) over the base sample, built once and
        refused over ``spaces.CELL_BUDGET`` cells."""
        if self._base_dist is None:
            n = self.base.n_points
            check_cells(n * n, f"base distance matrix of {self.name}")
            self._base_dist = self.base.distance_rows(np.arange(n))
        return self._base_dist

    def _member_hausdorff(self, a, b) -> np.ndarray:
        # a, b: (P, k, ...) padded base images; one base distance call on
        # every member pair (i, j), laid out as (k, k, P)
        k, point = a.shape[1], a.shape[2:]
        shape = (k, k) + a.shape[:1] + point
        rows_a = np.broadcast_to(np.moveaxis(a, 1, 0)[:, None], shape).reshape(-1, *point)
        rows_b = np.broadcast_to(np.moveaxis(b, 1, 0)[None, :], shape).reshape(-1, *point)
        return _hausdorff(self.base.image_pair_dist(rows_a, rows_b).reshape(k, k, -1))

    # -- structure -----------------------------------------------------------

    @property
    def n_points(self):
        return len(self.members)

    # -- metric ---------------------------------------------------------------

    def pairwise_hausdorff(self, a_idx, b_idx) -> np.ndarray:
        """Vectorized Hausdorff distances between two hyperpoint index arrays.

        Once D is built, or when the k^2 member pairs of the query hold as
        many cells as D, one gather of D through a C-contiguous (k, k, P)
        index; an index in the strided layout of ``members[a].T`` made the
        gather and reduction about 8x slower (200k pairs, k = 2).  A smaller
        query before that calls the base metric on its member pairs, so a
        few pairs never build D."""
        a = np.atleast_1d(np.asarray(a_idx, dtype=np.int64))
        b = np.atleast_1d(np.asarray(b_idx, dtype=np.int64))
        n, k = self.base.n_points, self.max_cardinality
        if self._base_dist is None and k * k * max(len(a), len(b)) < n * n:
            return self._member_hausdorff(self._member_images(a), self._member_images(b))
        flat = (np.ascontiguousarray(self.members[a].T)[:, None] * n
                + np.ascontiguousarray(self.members[b].T)[None, :])
        return _hausdorff(self.base_dist.ravel()[flat])

    def point_dist(self, a, b):
        return self.pairwise_hausdorff(a, b)

    def distance_rows(self, rows) -> np.ndarray:
        """Hausdorff rows in closed form over D.  With C[x, B] = min_j D[x, b_j]
        and M[A, y] = min_i D[a_i, y], the row of A is max(max_i C[a_i, :],
        max_j M[A, b_j]): k gathers of C and k of M per block of rows, folded
        into one (R, N) output with no (R, k, N) temporary, and D need not be
        symmetric.  C is built once, one column gather of D at a time, and D
        and C together are refused over ``spaces.CELL_BUDGET`` cells."""
        if self._point_set_dist is None:
            n = self.base.n_points
            check_cells(n * (n + self.n_points), f"base distance matrix and point-to-set "
                        f"distances of {self.name}")
            c = self.base_dist[:, self.members[:, 0]]
            for col in self.members.T[1:]:
                np.minimum(c, self.base_dist[:, col], out=c)
            self._point_set_dist = c
        a = self.members[np.asarray(rows, dtype=np.int64)].T      # (k, R)
        to_a = self.base_dist[a].min(axis=0)                     # M[A, :], (R, N_base)
        out = self._point_set_dist[a[0]]
        for ids in a[1:]:
            np.maximum(out, self._point_set_dist[ids], out=out)
        for col in self.members.T:
            np.maximum(out, to_a[:, col], out=out)
        return out

    def distance_blocks(self):
        # the closed form pays per call as well as per cell: blocks of about
        # 2**15 cells, and at least 4 rows.  Rotation grid 48 at k = 2 (27
        # rows) scanned in 18.6 ms against 22.3 ms at 2**14 cells and 21.7
        # at 2**16; square-map grid 41 at k = 3 (11,521 points, 4 rows) in
        # 3.0 s against 5.0 s at 2**14 cells, which gave one row per call
        n = self.n_points
        return row_blocks(n, min(max(1, n // 2), BLOCK_CELLS // 4))

    @property
    def resolution(self):
        return self.base.resolution

    @property
    def diameter(self):
        return self.base.diameter

    # -- serialization ---------------------------------------------------------

    def export_images(self, imgs):
        snapped, _ = self.snap_images(imgs)
        return [list(dict.fromkeys(r)) for r in self.members[snapped].tolist()]

    def point_data(self, i):
        return list(dict.fromkeys(self.members[i].tolist()))

    def to_json(self):
        return {
            "schema": "ellis.hypermodel/1",
            "base": self.base.name,
            "max_cardinality": self.max_cardinality,
            "hyperpoints": [list(p) for p in self.hyperpoints],
        }


class FiniteHyperModel(HyperCascadeModel, FiniteModel):
    """Hyperspace of a finite-exact base: the induced map is an exact index
    table and images are hyperpoint ids."""

    def __init__(self, base: FiniteModel, max_cardinality: int = 3, budget: int = 250_000):
        self._enumerate(base, max_cardinality, budget)
        inverse = self.hyper_ids(base.inverse_table[self.members]) if base.invertible else None
        # no distance function: HyperCascadeModel.point_dist takes precedence
        FiniteModel.__init__(self, self.name, self.params, None, None,
                             self.hyper_ids(base.map_table[self.members]), inverse,
                             self.metric_name)
        # F^a = F^b exactly when f^a = f^b, since singletons are hyperpoints:
        # the base's index and period, with no cycle pass over the hyperpoints;
        # a hyperpoint's orbit repeats with the lcm of its members' lengths
        self.cycles = (base.index, base.period, np.lcm.reduce(base.cycles[2][self.members], axis=1))

    def to_json(self):
        return {**super().to_json(), "induced_map": [int(v) for v in self.map_table]}


class SampledHyperModel(HyperCascadeModel):
    """Hyperspace of a sampled base: images are padded ``(H, k, *point)``
    arrays of raw base images, taken from the base's own iterates and
    snapped member by member on demand."""

    def __init__(self, base: CascadeModel, max_cardinality: int = 3, budget: int = 250_000):
        super().__init__()
        self._enumerate(base, max_cardinality, budget)
        self.invertible = base.invertible

    def iterate_images(self, n: int):
        return self.base.apply_to_indices(self.base.iterate_images(n), self.members)

    def image_pair_dist(self, a_imgs, b_imgs):
        return self._member_hausdorff(a_imgs, b_imgs)

    def image_point_dist(self, imgs, point):
        target = self._member_images(np.asarray([point]))
        return self._member_hausdorff(imgs, np.broadcast_to(target, imgs.shape))

    def snap_images(self, imgs):
        p, k = imgs.shape[:2]
        members, err = self.base.snap_images(imgs.reshape(p * k, *imgs.shape[2:]))
        return self.hyper_ids(members.reshape(p, k)), err

    def member_rows(self, imgs):
        # images are already padded raw member rows
        return imgs

    def apply_to_indices(self, imgs, idx):
        return imgs[idx]


def build_hyper_model(base: CascadeModel, k: int = 3, budget: int = 250_000) -> HyperCascadeModel:
    """The finite-subset hyperspace of ``base``: an exact index table over a
    finite-exact base, padded raw member arrays over a sampled one.  The
    window carrier has no hyperspace carrier and is refused."""
    if isinstance(base, WindowSampleModel):
        raise InvalidParameterError(
            f"no hyperspace over the window carrier ({base.name}); "
            "use a finite-exact or sampled base")
    carrier = FiniteHyperModel if isinstance(base, FiniteModel) else SampledHyperModel
    return carrier(base, k, budget=budget)
