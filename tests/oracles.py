"""Test oracles and fixture builders that no pipeline op reaches.

Each is a direct, loop-by-loop reading of its definition: the tests compare
the library's fast paths with them, or build fixtures with them.
"""

import numpy as np

from ellis import spaces
from ellis.hyperspace import canonical, hausdorff_distance
from ellis.spaces import FiniteModel, InvalidParameterError, SampledModel
from ellis.symbolic import RuleUndefinedError

# the three shift specs of the paper's examples, as `build_subshift` reads them
FULL2 = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": []}
GOLDEN = {"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]}
# two-state right-resolving presentation: 1-loops at A, 0-edges A<->B
EVEN = {"kind": "labeled-graph", "states": ["A", "B"],
        "edges": [["A", "1", "A"], ["A", "0", "B"], ["B", "0", "A"]],
        "right_resolving": True}


def word_in_language(shift, word: str) -> bool:
    """Whether ``word`` is read from some state of the presentation."""
    p = shift.presentation
    return bool(p.read(p.start, word).any())


def apply_block_code(code, word: str) -> str:
    """The image of ``word`` under the sliding-block ``code``, window by
    window; a window the rule lacks raises ``RuleUndefinedError``."""
    w = code.window
    if len(word) < w:
        raise RuleUndefinedError(f"word shorter than the {w}-window")
    out = []
    for i in range(len(word) - w + 1):
        win = word[i : i + w]
        if win not in code.rule:
            raise RuleUndefinedError(win)
        out.append(code.rule[win])
    return "".join(out)


def snap_to_finite(model: SampledModel, name: str | None = None) -> FiniteModel:
    """Freeze a sampled model into a finite-exact one via the snapped step.

    The result iterates the snapped map (a total index table); useful for
    preimage enumeration and exact envelopes at coarse grid scales.
    """
    if not isinstance(model, SampledModel):
        raise InvalidParameterError("snap_to_finite expects a sampled model")
    table, _ = model.snap_images(model.iterate_images(1))
    inverse = None
    if sorted(table) == list(range(model.n_points)):
        inverse = np.argsort(table)
    return FiniteModel(
        name or f"{model.name}-snapped", dict(model.params), model.points, model.point_dist,
        table, inverse, model.metric_name,
    )


def envelope_phase_model(env) -> FiniteModel:
    """The flow (E(X), T): the envelope as a finite phase space under left
    multiplication by the generator, with the sup-distance between elements
    as the metric, one pair at a time."""
    n = len(env.elements)
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = env.model.image_sup_dist(env.element_images(i),
                                                               env.element_images(j))

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


def orbit_closure_equicontinuity(base_model: FiniteModel, members, eps: float,
                                 horizon: int) -> dict:
    """Equicontinuity of one (arbitrary-cardinality) set inside its own
    induced orbit closure, for sets too large to enumerate, measured with
    ``hausdorff_distance``.  An empty set, a point id outside [0, N) or a
    negative horizon is refused with ``InvalidParameterError``."""
    if not isinstance(base_model, FiniteModel):
        raise InvalidParameterError("orbit-closure check needs a finite-exact model")
    horizon = spaces.check_int(horizon, 0, "horizon")
    a = canonical(spaces.check_index(m, base_model.n_points, "point") for m in members)
    orbit = [a]
    seen = {a}
    cur = a
    for _ in range(horizon):
        cur = canonical(base_model.map_table[list(cur)])
        if cur in seen:
            break
        seen.add(cur)
        orbit.append(cur)
    dists = [hausdorff_distance(base_model, a, b) for b in orbit[1:]]
    if not dists:
        return {"equicontinuous": True, "orbit_size": 1, "nn_distance": None}
    nn = min(dists)
    mates = [b for b, d in zip(orbit[1:], dists) if d <= nn * (1 + 1e-12)]
    sup = 0.0
    for b in mates:
        x, y = a, b
        for _ in range(horizon):
            sup = max(sup, hausdorff_distance(base_model, x, y))
            x, y = (canonical(base_model.map_table[list(s)]) for s in (x, y))
    return {
        "equicontinuous": sup < eps,
        "orbit_size": len(orbit),
        "nn_distance": nn,
        "sup_divergence": sup,
    }
