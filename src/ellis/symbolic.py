"""Shift spaces: SFTs, sofic shifts, spacing subshifts, languages, entropy,
mixing classification, periodic spectra, and sliding-block factor codes.

Shifts are represented by their languages and graph presentations; no
infinite sequence is ever materialized.  Subshifts of finite type get a
higher-block graph (deterministic, trimmed to its essential part), labeled
graphs keep their essential NFA and are determinized by subset construction
for exact word counting, and spacing subshifts are expanded to a finite
forbidden family with the cutoff recorded.  Words are read through one
boolean matrix per symbol over the presentation's states.  Word counts and
periodic points of every length come from one running walk of the counting
graph (Lind & Marcus 1995, Sections 2.2 and 4.1), in exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import spaces


# Entropy gaps within this bound (log units) read as equal entropies.  Each
# spectral entropy is the log of a simple Perron root from LAPACK, within a few
# ulps of the true value (2.5e-15 at worst against 50-digit roots on about
# 600 random presentations); the bound leaves six orders of magnitude above
# that, and a true gap below it fails the hypotheses, the safe side for a
# precondition.
ENTROPY_GAP_BOUND = 1e-9


class ShiftSpecError(ValueError):
    """Malformed subshift specification."""


class RuleUndefinedError(KeyError):
    """Sliding-block rule applied outside its domain language."""


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def _essential_trim(states, edges):
    """Iteratively drop states without both in- and out-edges.

    ``edges``: list of (src, symbol, dst).  Returns (kept state ids, edges).
    """
    alive = set(range(len(states)))
    while True:
        has_out = {s for s, _, _ in edges if s in alive}
        has_in = {t for _, _, t in edges if t in alive}
        keep = {s for s in alive if s in has_out and s in has_in}
        edges = [(s, a, t) for s, a, t in edges if s in keep and t in keep]
        if keep == alive:
            return sorted(alive), edges
        alive = keep


@dataclass
class _Presentation:
    """Graph presentation driving all exact language computations.

    ``mats`` holds one boolean matrix M_a per symbol over the walked states:
    the block graph of an SFT, or the essential NFA of a labeled graph.  A
    word w acts as the relation R_w = M_w1 ... M_wk, and R_wa = R_w M_a
    (the transition monoid; Lind & Marcus 1995, Ch. 3), so every language
    question is one ``read``.  ``moves`` is the graph that word counts and
    the spectral entropy use: the block graph itself for an SFT, whose words
    of length >= ``block_length`` fix their path, and the subset automaton
    (start state 0) for a labeled graph.  Both are deterministic, so
    ``moves[a, s]`` is the one successor of state s under symbol a, or -1.
    Classification reads ``step``, the essential graph itself.
    """

    n_states: int            # walked states
    mats: dict               # symbol -> boolean (n_states, n_states) matrix
    block_length: int        # m of the block graph (SFT); 0 for a labeled graph
    state_words: list | None  # block-graph state words (SFT only)
    moves: np.ndarray        # (symbols, counting states) successors, -1 for none

    @property
    def start(self) -> np.ndarray:
        """The frontier before any symbol is read: every walked state."""
        return np.ones(self.n_states, dtype=bool)

    @property
    def step(self) -> np.ndarray:
        """One symbol of any kind: the union of the M_a."""
        return np.logical_or.reduce(list(self.mats.values()))

    @property
    def adjacency(self) -> np.ndarray:
        """The counting graph A: A[s, t] symbols move s to t."""
        return (self.moves[:, :, None] == np.arange(self.moves.shape[1])).sum(axis=0)

    def walk(self, x: np.ndarray):
        """A x, A^2 x, ... in exact integers, for a vector or a matrix x.
        (A x)[s] = sum_a x[moves[a, s]], so a step is one row gather per
        symbol; a zero row appended to x answers the -1 moves."""
        x = np.concatenate([np.asarray(x, dtype=object),
                            np.zeros((1, *np.shape(x)[1:]), dtype=object)])
        while True:
            x = np.concatenate([sum(x[move] for move in self.moves), x[-1:]])
            yield x[:-1]

    def read(self, front: np.ndarray, word) -> np.ndarray:
        """``front`` times M_word: the states reached from a state vector, or
        the relation R_(u word) from a relation matrix R_u.  A symbol outside
        the alphabet reads to the empty set."""
        for a in word:
            mat = self.mats.get(a)
            if mat is None:
                return np.zeros_like(front)
            front = front @ mat
        return front


def _symbol_matrices(alphabet, alive, edges):
    """One boolean matrix per symbol of ``alphabet`` over the ``alive`` states
    from (src, symbol, dst) edges."""
    remap = {s: i for i, s in enumerate(alive)}
    mats = {a: np.zeros((len(alive), len(alive)), dtype=bool) for a in alphabet}
    for s, a, t in edges:
        mats[a][remap[s], remap[t]] = True
    return mats


def _block_presentation(alphabet, forbidden):
    """Higher-block graph of the SFT over ``alphabet`` avoiding ``forbidden``."""
    forb = set(forbidden)
    maxlen = max((len(w) for w in forb), default=1)
    m = max(maxlen - 1, 1)

    def ok(word):
        return not any(word[i : i + len(f)] == f for f in forb for i in range(len(word) - len(f) + 1))

    states = [w for w in ("".join(t) for t in product(alphabet, repeat=m)) if ok(w)]
    edges = []
    for i, u in enumerate(states):
        for a in alphabet:
            w = u + a
            if ok(w):
                v = w[-m:]
                if v in states:
                    edges.append((i, a, states.index(v)))
    alive, edges = _essential_trim(states, edges)
    mats = _symbol_matrices(alphabet, alive, edges)
    moves = np.asarray([np.where(mat.any(axis=1), mat @ np.arange(len(alive)), -1)
                        for mat in mats.values()], dtype=np.intp)
    return _Presentation(len(alive), mats, m, [states[s] for s in alive], moves)


def _subset_presentation(alphabet, nfa_states, nfa_edges):
    """Essential NFA of a labeled graph, counted on its subset automaton from
    the all-states start (found LIFO, symbols in sorted order)."""
    alive, edges = _essential_trim(list(range(nfa_states)), nfa_edges)
    mats = _symbol_matrices(alphabet, alive, edges)
    start = np.ones(len(alive), dtype=bool)
    subsets = {start.tobytes(): 0}
    succ = {a: {} for a in alphabet}
    queue = [(0, start)]
    while queue:
        i, cur = queue.pop()
        for a in sorted(alphabet):
            nxt = cur @ mats[a]
            if not nxt.any():
                continue
            key = nxt.tobytes()
            if key not in subsets:
                subsets[key] = len(subsets)
                queue.append((subsets[key], nxt))
            succ[a][i] = subsets[key]
    moves = np.asarray([[to.get(i, -1) for i in range(len(subsets))]
                        for to in succ.values()], dtype=np.intp)
    return _Presentation(len(alive), mats, 0, None, moves)


# ---------------------------------------------------------------------------
# subshift
# ---------------------------------------------------------------------------


def _has_cycle(rel: np.ndarray) -> bool:
    """A relation has a cycle iff its essential part is not empty."""
    return bool(_essential_trim(range(len(rel)), [(s, None, t) for s, t in np.argwhere(rel)])[0])


@dataclass
class Subshift:
    alphabet: tuple
    kind: str            # forbidden | edge-graph | labeled-graph | spacing
    payload: dict
    one_sided: bool = False
    presentation: _Presentation = field(repr=False, default=None)

    # -- language ------------------------------------------------------------

    def words(self, n: int) -> set[str]:
        """L_n(X): one level loop over (word, frontier) pairs."""
        p = self.presentation
        layer = {"": p.start}
        for _ in range(n):
            layer = {w + a: nxt for w, front in layer.items() for a in self.alphabet
                     if (nxt := p.read(front, a)).any()}
        return {w for w, front in layer.items() if front.any()}

    def word_counts(self, n_max: int) -> list[int]:
        """|L_n(X)| for n = 0..n_max from one walk of the counting graph: on
        an SFT the prefixes of the block-graph states up to m = ``block_length``,
        then |L_(m+k)| = 1 A^k 1; on a labeled graph |L_n| = e_0 A^n 1, the
        paths from the start of the subset automaton."""
        p = self.presentation
        m = p.block_length
        counts = [int(p.start.any())]
        counts += [len({w[:n] for w in p.state_words}) for n in range(1, min(m, n_max) + 1)]
        walk = p.walk(np.ones(p.moves.shape[1], dtype=object))
        counts += [int(x.sum() if m else x[0]) for _, x in zip(range(n_max - m), walk)]
        return counts

    def word_in_language(self, word: str) -> bool:
        p = self.presentation
        return bool(p.read(p.start, word).any())

    def periodic_counts(self, n_max: int) -> list[int]:
        """Points with period dividing n, for n = 0..n_max (entry 0 is 0).

        An SFT has trace(A^n), read off one running power of the block graph.
        On a labeled graph the w-periodic point exists iff the relation R_w
        has a cycle.  So one walk counts the n-words per distinct relation
        (R_wa = R_w M_a), tests each relation for a cycle once, and sums the
        counts of the relations with a cycle at every length.
        """
        p = self.presentation
        if p.block_length:
            walk = p.walk(np.identity(p.n_states, dtype=object))
            return [0] + [int(x.diagonal().sum()) for _, x in zip(range(n_max), walk)]
        eye = np.eye(p.n_states, dtype=bool)
        rels = {eye.tobytes(): (eye, _has_cycle(eye))}   # key -> (relation, has a cycle)
        counts = {eye.tobytes(): 1}
        per = [0]
        for _ in range(n_max):
            nxt = {}
            for key, count in counts.items():
                for a in self.alphabet:
                    rel = p.read(rels[key][0], a)
                    if rel.any():
                        key_a = rel.tobytes()
                        if key_a not in rels:
                            rels[key_a] = (rel, _has_cycle(rel))
                        nxt[key_a] = nxt.get(key_a, 0) + count
            counts = nxt
            per.append(sum(count for key, count in counts.items() if rels[key][1]))
        return per

    def to_json(self) -> dict:
        out = {"schema": "ellis.shift/1", "alphabet": list(self.alphabet),
               "kind": self.kind, "one_sided": self.one_sided}
        out.update(self.payload)
        return out


def build_subshift(spec: dict) -> Subshift:
    """Canonicalize a shift spec.

    Accepted kinds: ``forbidden`` {alphabet, forbidden}, ``edge-graph``
    {matrix}, ``labeled-graph`` {states, edges, right_resolving?}, ``spacing``
    {allowed_gaps | gap_modulus, cutoff}.
    """
    kind = spec.get("kind")
    one_sided = bool(spec.get("one_sided", False))
    if kind == "forbidden":
        alphabet = tuple(spec["alphabet"])
        if not alphabet:
            raise ShiftSpecError("empty alphabet")
        if any(len(a) != 1 for a in alphabet):
            raise ShiftSpecError("symbols must be single characters")
        forbidden = tuple(spec.get("forbidden", ()))
        for w in forbidden:
            if not w or any(c not in alphabet for c in w):
                raise ShiftSpecError(f"forbidden block {w!r} not over the alphabet")
        pres = _block_presentation(alphabet, forbidden)
        return Subshift(alphabet, kind, {"forbidden": list(forbidden)}, one_sided, pres)
    if kind == "edge-graph":
        matrix = np.asarray(spec["matrix"], dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ShiftSpecError("adjacency matrix must be square")
        if not np.isin(matrix, (0, 1)).all():
            raise ShiftSpecError("adjacency entries must be 0/1")
        n = matrix.shape[0]
        if n > 36:
            raise ShiftSpecError("edge-graph alphabet limited to 36 states")
        alphabet = tuple("0123456789abcdefghijklmnopqrstuvwxyz"[:n])
        forbidden = tuple(
            alphabet[i] + alphabet[j] for i in range(n) for j in range(n) if not matrix[i, j]
        )
        pres = _block_presentation(alphabet, forbidden)
        return Subshift(alphabet, kind, {"matrix": matrix.tolist()}, one_sided, pres)
    if kind == "labeled-graph":
        states = list(spec["states"])
        edges_in = [tuple(e) for e in spec.get("edges", spec.get("labeled_edges", ()))]
        if not edges_in:
            raise ShiftSpecError("labeled graph needs edges")
        symbols = sorted({a for _, a, _ in edges_in})
        if any(len(a) != 1 for a in symbols):
            raise ShiftSpecError("labels must be single characters")
        index = {s: i for i, s in enumerate(states)}
        edges = [(index[s], a, index[t]) for s, a, t in edges_in]
        rr = len({(s, a) for s, a, _ in edges}) == len(edges)
        pres = _subset_presentation(symbols, len(states), edges)
        payload = {"states": states, "edges": [list(e) for e in edges_in],
                   "right_resolving": bool(spec.get("right_resolving", rr))}
        return Subshift(tuple(symbols), kind, payload, one_sided, pres)
    if kind == "spacing":
        cutoff = int(spec.get("cutoff", 12))
        if cutoff < 1:
            raise ShiftSpecError("spacing cutoff must be >= 1")
        if "allowed_gaps" in spec:
            allowed = {int(g) for g in spec["allowed_gaps"]}
        elif "gap_modulus" in spec:
            k = int(spec["gap_modulus"])
            allowed = {g for g in range(cutoff + 1) if g % k == 0}
        else:
            raise ShiftSpecError("spacing spec needs allowed_gaps or gap_modulus")
        forbidden = tuple(
            "1" + "0" * g + "1" for g in range(cutoff + 1) if g not in allowed
        )
        pres = _block_presentation(("0", "1"), forbidden)
        payload = {"allowed_gaps": sorted(allowed), "cutoff": cutoff,
                   "truncation": "gaps above the cutoff are unconstrained"}
        return Subshift(("0", "1"), kind, payload, one_sided, pres)
    raise ShiftSpecError(f"unknown shift kind {kind!r}")


def full_shift(r: int = 2) -> Subshift:
    names = "0123456789"[:r]
    return build_subshift({"kind": "forbidden", "alphabet": list(names), "forbidden": []})


def golden_mean_shift() -> Subshift:
    return build_subshift({"kind": "forbidden", "alphabet": ["0", "1"], "forbidden": ["11"]})


def even_shift() -> Subshift:
    # two-state right-resolving presentation: 1-loops at A, 0-edges A<->B
    return build_subshift({
        "kind": "labeled-graph",
        "states": ["A", "B"],
        "edges": [["A", "1", "A"], ["A", "0", "B"], ["B", "0", "A"]],
        "right_resolving": True,
    })


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def language(shift: Subshift, n: int) -> set[str]:
    if n < 0:
        raise ShiftSpecError("word length must be >= 0")
    return shift.words(n)


def _period(step: np.ndarray) -> int | None:
    """Period of an irreducible graph, None for a reducible or empty one: a
    breadth-first pass from state 0 each way must reach every state, and the
    period is the gcd of level[s] + 1 - level[t] over the edges s -> t of the
    forward pass levels (Lind & Marcus 1995, Section 4.5)."""
    def levels(mat):
        level = np.full(len(mat), -1)
        front, depth = np.arange(len(mat)) == 0, 0
        while front.any():
            level[front] = depth
            front, depth = mat[front].any(axis=0) & (level < 0), depth + 1
        return level

    level = levels(step)
    if not len(step) or (level < 0).any() or (levels(step.T) < 0).any():
        return None
    s, t = np.nonzero(step)
    return int(np.gcd.reduce(level[s] + 1 - level[t]))


def classify_sft(shift: Subshift) -> dict:
    """Irreducibility, mixing and period read off the essential graph of the
    presentation, ``step``.  An SFT's block graph decides all three (a
    reducible one has no period, ``None``).  On a labeled graph an irreducible
    presentation proves the shift irreducible, and an irreducible aperiodic
    one proves it mixing (Lind & Marcus 1995, Sections 3.3 and 4.5); a
    reducible or periodic one proves neither, so those answers are ``None``,
    inconclusive."""
    period = _period(shift.presentation.step)
    irreducible, mixing = period is not None, period == 1
    if shift.presentation.block_length:
        return {"irreducible": irreducible, "mixing": mixing, "period": period}
    return {"irreducible": irreducible or None, "mixing": mixing or None,
            "period": 1 if mixing else None}


def _spectral_entropy(shift: Subshift) -> float:
    """log of the spectral radius of the counting graph, -inf for an empty one:
    LAPACK's largest |eigenvalue| over the irreducible components, where the
    Perron root is simple (a root that k chained components share is
    defective, and LAPACK finds it only to about eps^(1/k))."""
    adj = shift.presentation.adjacency
    reach = (adj > 0) | np.eye(len(adj), dtype=bool)
    for _ in range(len(adj).bit_length()):
        reach = reach.astype(np.float32) @ reach > 0
    lam = max((np.abs(np.linalg.eigvals(adj[np.ix_(c, c)])).max()
               for c in {row.tobytes(): row for row in reach & reach.T}.values()), default=0.0)
    return math.log(lam) if lam > 0 else -math.inf


def entropy_estimates(shift: Subshift, n_max: int) -> dict:
    if n_max < 2:
        raise ShiftSpecError("n_max must be >= 2")
    counts = shift.word_counts(n_max)[1:]
    seq = [(n, math.log(c) / n if c else -math.inf) for n, c in zip(range(1, n_max + 1), counts)]
    ratio = (
        math.log(counts[-1] / counts[-2]) if counts[-1] and counts[-2] else -math.inf
    )
    return {
        "counts": counts,
        "sequence": seq,
        "ratio_estimate": ratio,
        "spectral": _spectral_entropy(shift),
        "reducible_warning": _period(shift.presentation.step) is None,
    }


def periodic_spectrum(shift: Subshift, n_max: int) -> dict[int, int]:
    """Points of each least period 1..n_max (counts of points, not orbits):
    the points of period n less those of every least period d | n, d < n.
    A negative ``n_max`` is refused with ``ShiftSpecError``."""
    if n_max < 0:
        raise ShiftSpecError("n_max must be >= 0")
    least = shift.periodic_counts(n_max)
    for d in range(1, n_max + 1):
        for n in range(2 * d, n_max + 1, d):
            least[n] -= least[d]
    return {n: count for n, count in enumerate(least) if count}


def boyle_precondition(x: Subshift, y: Subshift, n_max: int) -> dict:
    """Check the hypotheses of the periodic-point/entropy factor criterion.

    Never claims a factor map exists; reports whether every least period of
    ``x`` (up to the horizon) is divisible by some least period of ``y`` and
    the spectral entropy gap h(x) - h(y), which must exceed
    ``ENTROPY_GAP_BOUND``: the criterion needs h(x) > h(y) strictly.
    """
    px = periodic_spectrum(x, n_max)
    py = periodic_spectrum(y, n_max)
    per_divides = all(
        any(p % q == 0 for q in py) for p in px
    ) if px else True
    gap = _spectral_entropy(x) - _spectral_entropy(y)
    return {
        "per_divides": per_divides,
        "entropy_gap": gap,
        "entropy_gap_bound": ENTROPY_GAP_BOUND,
        "hypotheses_hold": bool(per_divides and gap > ENTROPY_GAP_BOUND),
        "periods_x": px,
        "periods_y": py,
    }


# ---------------------------------------------------------------------------
# sliding-block codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlidingBlockCode:
    memory: int
    anticipation: int
    rule: dict  # window word -> output symbol

    def __post_init__(self):
        if not all(isinstance(v, int) and v >= 0 for v in (self.memory, self.anticipation)):
            raise ShiftSpecError("memory and anticipation must be integers >= 0")
        if not isinstance(self.rule, dict) or any(len(w) != self.window for w in self.rule):
            raise ShiftSpecError(f"rule must map words of length {self.window} to symbols")

    @property
    def window(self) -> int:
        return self.memory + self.anticipation + 1


def apply_block_code(code: SlidingBlockCode, word: str) -> str:
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


def verify_factor(code: SlidingBlockCode, domain: Subshift, codomain: Subshift, n: int) -> bool:
    """Every domain n-word must map into the codomain's (n - m - a)-language.

    One walk over merged states (last window - 1 symbols, domain frontier,
    codomain frontier) reads all n-words at once; the code fails when some
    codomain frontier is empty at depth n.  A window that a domain n-word
    contains and the rule lacks raises ``RuleUndefinedError``.
    """
    drop = code.memory + code.anticipation
    if n <= drop:
        raise ShiftSpecError("n must exceed memory + anticipation")
    dom, cod = domain.presentation, codomain.presentation
    layer = {("", b"", b""): (dom.start, cod.start)}
    for _ in range(n):
        nxt = {}
        for (tail, _, _), (front, image) in layer.items():
            for a in domain.alphabet:
                reached = dom.read(front, a)
                if not reached.any():
                    continue
                win = tail + a
                if len(win) > drop:
                    if win not in code.rule:
                        raise RuleUndefinedError(win)
                    image_a = cod.read(image, code.rule[win])
                    win = win[1:]
                else:
                    image_a = image
                nxt.setdefault((win, reached.tobytes(), image_a.tobytes()), (reached, image_a))
        layer = nxt
    return all(image.any() for _, image in layer.values())


def golden_to_even_code() -> SlidingBlockCode:
    """2-block rule factoring the no-11 shift onto the even-gaps shift."""
    return SlidingBlockCode(memory=0, anticipation=1,
                            rule={"00": "1", "01": "0", "10": "0"})


# ---------------------------------------------------------------------------
# cylinder hitting sets (used by the property checkers on shift models)
# ---------------------------------------------------------------------------


def cylinder_tensor(shift: Subshift, words, horizon: int) -> np.ndarray:
    """Every cylinder hitting set at once: ``hits[n, i, j]`` is true when
    sigma^n [words[i]] meets [words[j]] (Lind & Marcus 1995, sections 2-3).
    Row 0 stays false, so the row index is the time.

    With the presentation's matrix M_a per symbol, reading u from every
    state gives the row r_u = 1 M_u, the states that can read a word w give
    the column c_w = M_w 1 (all states for the empty word), and A = sum M_a
    is one step of the frontier.  For n >= |u| the hit is r_u A^(n-|u|) c_v
    > 0, so each time costs one K x S by S x S step of the frontier rows and
    one K x S by S x K product for all pairs.  For n < |u|, v starts m = |u|
    - n symbols before u ends: the hit is r_u c_v[m:] > 0 where the head of
    v agrees with the tail of u, one product per m for every such u.
    """
    p = shift.presentation
    step = p.step.astype(np.float32)
    k = len(words)
    lengths = np.asarray([len(w) for w in words], dtype=np.int64)
    first = np.zeros((k, p.n_states), dtype=np.float32)
    # cols[m, :, j] = c of words[j][m:], read backwards from the empty word
    cols = np.ones((int(lengths.max(initial=0)) + 1, p.n_states, k), dtype=bool)
    for j, w in enumerate(words):
        first[j] = p.read(p.start, w)
        for m in range(len(w) - 1, -1, -1):
            mat = p.mats.get(w[m])
            cols[m, :, j] = False if mat is None else mat @ cols[m + 1, :, j]
    cols = cols.astype(np.float32)
    hits = np.zeros((horizon + 1, k, k), dtype=bool)
    front = np.zeros((k, p.n_states), dtype=np.float32)
    for n in range(horizon + 1):
        front = (front @ step > 0).astype(np.float32)
        start = lengths == n
        front[start] = first[start]
        if n:
            hits[n] = front @ cols[0] > 0
    for m in range(1, len(cols) - 1):
        times = lengths - m
        rows = np.flatnonzero((times >= 1) & (times <= horizon))
        if len(rows):
            agree = [[v.startswith(words[i][times[i]:times[i] + len(v)]) for v in words]
                     for i in rows]
            hits[times[rows], rows] = (first[rows] @ cols[m] > 0) & np.asarray(agree)
    return hits


# ---------------------------------------------------------------------------
# window models (finite samples of a shift as phase-space models)
# ---------------------------------------------------------------------------


def window_model(shift: Subshift, count: int, radius: int, seed: int = 0,
                 name: str | None = None) -> spaces.WindowSampleModel:
    """Seeded finite sample of ``shift`` as a window phase-space model.

    Sequences are generated by random walks on the walked states of the
    presentation (the block graph, or the essential NFA), then
    padded with the first alphabet symbol outside the window; only binary
    alphabets whose padding symbol is legal make faithful samples, which is
    all this artifact needs.
    """
    if len(shift.alphabet) != 2 or set(shift.alphabet) != {"0", "1"}:
        raise ShiftSpecError("window models require the binary alphabet 0/1")
    rng = np.random.default_rng(seed)
    p = shift.presentation
    width = 2 * radius + 1
    bits = np.zeros((count, width), dtype=np.uint8)
    for i in range(count):
        state = int(rng.integers(0, p.n_states))
        row = []
        while len(row) < width:
            options = [(a, int(t)) for a in shift.alphabet
                       for t in np.flatnonzero(p.mats[a][state])]
            if not options:
                state = int(rng.integers(0, p.n_states))
                row = []
                continue
            a, t = options[int(rng.integers(0, len(options)))]
            row.append(1 if a == "1" else 0)
            state = t
        bits[i] = row
    pad = radius + 2
    return spaces.WindowSampleModel(
        name or f"window({count})", {"count": count, "radius": radius, "seed": seed},
        bits, radius, pad,
    )
