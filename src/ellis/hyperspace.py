"""Hyperspace of finite subsets under the Hausdorff metric.

The full hyperspace of closed sets is approximated by the bounded-cardinality
finite-subset lattice, which is dense in it; the induced map acts elementwise
with dedup after snapping (Bauer & Sigmund 1975, Monatsh. Math. 79).

Every hyperpoint is stored as a padded row of exactly k base points: a set
with j < k members repeats its first member k - j times.  Repeating a member
leaves the set unchanged, and the Hausdorff distance depends only on the two
sets, so the min/max reduction of a (k, k) table of member distances is the
exact Hausdorff distance even with repeats.  One reduction over a (k, k, P)
tensor then answers P pairs at once, whatever the carrier of the base.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from .spaces import CascadeModel, FiniteModel, InvalidParameterError


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
    """Max of the two directed sup-min distances between finite subsets."""
    a = canonical(a)
    b = canonical(b)
    ia = np.asarray(a, dtype=np.int64)
    ib = np.asarray(b, dtype=np.int64)
    d = model.point_dist(np.repeat(ia, len(ib)), np.tile(ib, len(ia)))
    return float(_hausdorff(d.reshape(len(ia), len(ib), 1))[0])


def vietoris_member(model: CascadeModel, a, basis) -> bool:
    """Membership of A in the basic open set <V1..Vk> of metric balls.

    Each ball is a ``(center point id, radius)`` pair; membership needs
    A inside the union and A meeting every ball.
    """
    if not basis:
        raise InvalidParameterError("empty Vietoris basis")
    a = canonical(a)
    ia = np.asarray(a, dtype=np.int64)
    inside = np.zeros(len(a), dtype=bool)
    for center, radius in basis:
        d = model.point_dist(ia, np.full(len(a), center, dtype=np.int64))
        hit = d < radius
        if not hit.any():
            return False
        inside |= hit
    return bool(inside.all())


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
        """Vectorized Hausdorff distances between two hyperpoint index arrays."""
        a = np.atleast_1d(np.asarray(a_idx, dtype=np.int64))
        b = np.atleast_1d(np.asarray(b_idx, dtype=np.int64))
        return self._member_hausdorff(self._member_images(a), self._member_images(b))

    def point_dist(self, a, b):
        return self.pairwise_hausdorff(a, b)

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


def induced_step(hyper: HyperCascadeModel, a) -> HyperPoint:
    """Image of a hyperpoint under the induced map, in canonical form."""
    a = canonical(a)
    base = hyper.base
    raw = base.apply_to_indices(base.iterate_images(1), np.asarray(a, dtype=np.int64))
    snapped, _ = base.snap_images(raw)
    return canonical(snapped)


def build_hyper_model(base: CascadeModel, k: int = 3, budget: int = 250_000) -> HyperCascadeModel:
    """The finite-subset hyperspace of ``base``: an exact index table over a
    finite-exact base, padded raw member arrays over a sampled one."""
    carrier = FiniteHyperModel if isinstance(base, FiniteModel) else SampledHyperModel
    return carrier(base, k, budget=budget)
