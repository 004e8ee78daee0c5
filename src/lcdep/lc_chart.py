"""Tabular left-corner dependency parsing with bounded stack depth.

This chart simulates the left-corner transition system (``transition.py``)
over split-head automata (``sbg.SentenceAutomata``) instead of simulating the
bottom-up system the way the O(n^3) head-split chart does.  Every chart item
carries a *depth label* d: the number of stack elements the simulated parser
would be holding, counting only elements larger than a size cutoff C.  Giving
zero weight to items whose label exceeds a bound D therefore restricts the
sum (or max) to exactly those projective trees whose canonical left-corner
derivation keeps the relaxed post-reduce stack depth at or below D:

    depth(config) counts stack elements, a config is charged only right
    after a predict/compose step, and with cutoff C an element is charged
    only while it spans more than C positions (dummy slot included).

Items (all positions 1-based, position n+1 is the root; spans inclusive):

    ("LI", i, h, d)                 head h with its left dependents covering
                                    i..h, left machine finished
    ("RF", h, j, d)                 head h with its right dependents covering
                                    h..j, right machine finished
    ("RQ", q, h, j, d)              as RF but the right machine still in
                                    state q (more dependents may follow)
    ("TRI", i, h, j, d)             complete subtree of h covering i..j
    ("RECT", i, j, p, q, d)         material i..j plus a predicted ancestor
                                    p > j whose left machine is in state q
    ("PR", r, i, j, p, q, d, v)     element headed by i covering i..j with an
                                    open prediction p that will attach as a
                                    right dependent inside it; r is i's right
                                    machine state with every prediction
                                    already charged, and v marks "p has
                                    consumed no left dependent yet"
    ("HR", i, h, p, q, d, b, dd)    intermediate: RECT waiting for the right
                                    half of an embedded head h at depth dd
    ("HPR", r, i, h, p, q, d, b, dd)  same for PR

The b field records min(C, size of the embedded head's left half minus one)
so that the depth-increment decision made when the right half's width is
known agrees with the element size the transition system would have seen.
Left machines run head-inward here: a walk starts in a final state (charged
by the predict/compose steps) and ends in an initial state (charged when the
prediction is filled), stepping backwards along forward transitions, so the
bigger item always stores the forward *source* state.

Weights live on the same (side, h, init/final/trans) events as the head-split
chart, so forests can be cached per sentence length and re-priced per model.
"""

import dataclasses

from . import hypergraph
from .hypergraph import NEG_INF
from .sbg import (
    LEFT,
    RIGHT,
    Chart,
    _arcs_of_edge,
    _heads_from_edges,
)
from .treebank import tree_from_heads


@dataclasses.dataclass(frozen=True)
class DepthPolicy:
    """Depth bound D (None = unbounded) and element size cutoff C >= 1.

    C=1 charges every stack element (the plain post-reduce depth measure);
    larger C ignores elements spanning at most C positions.
    """

    max_depth: int = None
    size_cutoff: int = 1

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("depth bound must be >= 1")
        if self.size_cutoff < 1:
            raise ValueError("size cutoff must be >= 1")


def _lc_expand(sent, policy, blocked):
    n = sent.n
    C = policy.size_cutoff
    D = policy.max_depth if policy.max_depth is not None else max(1, n)

    def expand(item):
        kind = item[0]
        edges = []
        if kind == "LI":
            _, i, h, d = item
            if i == h:
                finals = dict(sent.final_states(LEFT, h))
                for q, _ in sent.init_states(LEFT, h):
                    if q in finals:
                        edges.append(
                            ((), ((LEFT, h, "final", q), (LEFT, h, "init", q)))
                        )
                return edges
            for q, _ in sent.init_states(LEFT, h):
                edges.append(
                    ((("RECT", i, h - 1, h, q, d),), ((LEFT, h, "init", q),))
                )
            return edges

        if kind == "RF":
            _, h, j, d = item
            for q, _ in sent.final_states(RIGHT, h):
                edges.append(
                    ((("RQ", q, h, j, d),), ((RIGHT, h, "final", q),))
                )
            return edges

        if kind == "RQ":
            _, q, h, j, d = item
            if j == h:
                if q in dict(sent.init_states(RIGHT, h)):
                    edges.append(((), ((RIGHT, h, "init", q),)))
                return edges
            # the rightmost dependent j is a prediction being filled; its
            # left machine must already be back at an initial state, and a
            # filled prediction can never take right dependents, so its own
            # right machine is charged for an empty run here
            finals_r = dict(sent.final_states(RIGHT, j))
            for qL, _ in sent.init_states(LEFT, j):
                for qR, _ in sent.init_states(RIGHT, j):
                    if qR not in finals_r:
                        continue
                    for v in (True, False):
                        if v and j in blocked:
                            continue
                        edges.append(
                            (
                                (("PR", q, h, j - 1, j, qL, d, v),),
                                (
                                    (LEFT, j, "init", qL),
                                    (RIGHT, j, "init", qR),
                                    (RIGHT, j, "final", qR),
                                ),
                            )
                        )
            return edges

        if kind == "TRI":
            _, i, h, j, d = item
            if i == h == j and h in blocked:
                return edges
            edges.append(((("LI", i, h, d), ("RF", h, j, d)), ()))
            return edges

        if kind == "RECT":
            _, i, j, p, q, d = item
            # predict p from its first (leftmost) dependent, the left corner
            finals = dict(sent.final_states(LEFT, p))
            for h in range(i, j + 1):
                for r, _ in sent.steps(LEFT, p, q, h):
                    if r in finals:
                        edges.append(
                            (
                                (("TRI", i, h, j, d),),
                                (
                                    (LEFT, p, "trans", q, r, h),
                                    (LEFT, p, "final", r),
                                ),
                            )
                        )
            # fold in a later left dependent h of p, built as a separate
            # element; charge depth d+1 while that element spans > C
            for h in range(i + 1, j + 1):
                for qt, _ in sent.steps(LEFT, p, q, h):
                    for b in range(min(C, h - 1 - i) + 1):
                        dd = d + 1 if b + (j - h) >= C else d
                        if dd > D:
                            continue
                        if h in blocked and b == 0 and j == h:
                            continue
                        edges.append(
                            (
                                (
                                    ("HR", i, h, p, qt, d, b, dd),
                                    ("RF", h, j, dd),
                                ),
                                ((LEFT, p, "trans", q, qt, h),),
                            )
                        )
            return edges

        if kind == "HR":
            _, i, h, p, q, d, b, dd = item
            for j2 in range(i, h):
                if min(C, h - 1 - j2) != b:
                    continue
                edges.append(
                    (
                        (("RECT", i, j2, p, q, d), ("LI", j2 + 1, h, dd)),
                        (),
                    )
                )
            return edges

        if kind == "PR":
            _, r, i, j, p, qL, d, v = item
            if v:
                finals_p = dict(sent.final_states(LEFT, p))
                if qL not in finals_p:
                    return edges
                # p was just predicted as a right dependent of i
                for r0, _ in sent.steps_into(RIGHT, i, r, p):
                    edges.append(
                        (
                            (("RQ", r0, i, j, d),),
                            (
                                (RIGHT, i, "trans", r0, r, p),
                                (LEFT, p, "final", qL),
                            ),
                        )
                    )
                # or p was predicted above a lower head h whose own element
                # (spanning h..j plus its prediction slot) gets folded away
                for h in range(i + 1, j + 1):
                    dd = d + 1 if j - h >= C else d
                    if dd > D:
                        continue
                    for q0, _ in sent.init_states(LEFT, h):
                        for qpp, _ in sent.final_states(RIGHT, h):
                            for qp, _ in sent.steps_into(RIGHT, h, qpp, p):
                                for v2 in (True, False):
                                    edges.append(
                                        (
                                            (
                                                (
                                                    "PR",
                                                    r,
                                                    i,
                                                    h - 1,
                                                    h,
                                                    q0,
                                                    d,
                                                    v2,
                                                ),
                                                ("RQ", qp, h, j, dd),
                                            ),
                                            (
                                                (LEFT, p, "final", qL),
                                                (LEFT, h, "init", q0),
                                                (RIGHT, h, "trans", qp, qpp, p),
                                                (RIGHT, h, "final", qpp),
                                            ),
                                        )
                                    )
                return edges
            # v is False: the most recent action gave p a left dependent h
            for h in range(i + 1, j + 1):
                for qt, _ in sent.steps(LEFT, p, qL, h):
                    for b in range(min(C, h - 1 - i) + 1):
                        dd = d + 1 if b + (j - h) >= C else d
                        if dd > D:
                            continue
                        if h in blocked and b == 0 and j == h:
                            continue
                        edges.append(
                            (
                                (
                                    ("HPR", r, i, h, p, qt, d, b, dd),
                                    ("RF", h, j, dd),
                                ),
                                ((LEFT, p, "trans", qL, qt, h),),
                            )
                        )
            return edges

        if kind == "HPR":
            _, r, i, h, p, q, d, b, dd = item
            for j2 in range(i, h):
                if min(C, h - 1 - j2) != b:
                    continue
                for v in (True, False):
                    edges.append(
                        (
                            (
                                ("PR", r, i, j2, p, q, d, v),
                                ("LI", j2 + 1, h, dd),
                            ),
                            (),
                        )
                    )
            return edges

        raise ValueError("unknown item %r" % (item,))

    return expand


_FOREST_CACHE = {}


def clear_forest_cache():
    _FOREST_CACHE.clear()


def lc_forest(sent, policy=None, blocked=()):
    """Build (or fetch) the left-corner forest for one sentence.

    blocked is a collection of positions whose token must head at least one
    dependent; derivations where such a token stays childless are removed.
    Forests are cached by (topology key, policy, blocked) when the automata
    advertise a topology key.
    """
    policy = policy or DepthPolicy()
    blocked = frozenset(blocked)
    key = None
    if sent.topology_key is not None:
        key = (
            sent.topology_key,
            policy.max_depth,
            policy.size_cutoff,
            tuple(sorted(blocked)),
        )
        cached = _FOREST_CACHE.get(key)
        if cached is not None:
            return cached
    goal = ("LI", 1, sent.n + 1, 1)
    forest = hypergraph.build_forest(goal, _lc_expand(sent, policy, blocked))
    if key is not None:
        _FOREST_CACHE[key] = forest
    return forest


def lc_inside(tags, sent, policy=None, semiring="logsum", forest=None,
              blocked=()):
    """(chart, total) over depth-admissible left-corner derivations.

    "logsum" gives the log marginal, "count" the number of derivations
    (= admissible trees when each machine has at most one accepting walk per
    dependent set), "max" the best log-weight.
    """
    if forest is None:
        forest = lc_forest(sent, policy, blocked)
    if semiring == "count":
        counts = hypergraph.inside_count(forest)
        return Chart(forest, counts), counts[forest.goal_id]
    eventw = forest.event_weights(sent.event_logw)
    if semiring == "logsum":
        inside = hypergraph.inside_logsum(forest, eventw)
        return Chart(forest, inside, eventw), float(inside[forest.goal_id])
    if semiring == "max":
        scores, best = hypergraph.inside_max(
            forest, eventw, _arcs_of_edge(forest, len(tags))
        )
        chart = Chart(forest, scores, eventw)
        chart.best_edge = best
        return chart, float(scores[forest.goal_id])
    raise ValueError("unknown semiring %r" % semiring)


def lc_derivation_count(tags, sent, policy=None, blocked=()):
    _, total = lc_inside(tags, sent, policy, semiring="count",
                         blocked=blocked)
    return total


def lc_expected_counts(tags, sent, policy=None, forest=None, blocked=()):
    """(event -> expected count, log marginal) over admissible derivations."""
    if forest is None:
        forest = lc_forest(sent, policy, blocked)
    eventw = forest.event_weights(sent.event_logw)
    logz, post = hypergraph.event_posteriors(forest, eventw)
    counts = {
        forest.events[k]: post[k] for k in range(len(forest.events)) if post[k]
    }
    return counts, float(logz)


def lc_viterbi(tags, sent, policy=None, forest=None, blocked=()):
    """Best admissible tree; ties prefer the arc list whose sorted
    (dependent, head) pairs are lexicographically smaller."""
    chart, score = lc_inside(
        tags, sent, policy, semiring="max", forest=forest, blocked=blocked
    )
    if not score > NEG_INF:  # -inf, or NaN from NaN weights
        raise ValueError("no derivation has nonzero weight")
    edges = hypergraph.backtrace(chart.forest, chart.best_edge)
    heads = _heads_from_edges(chart.forest, edges, len(tags))
    return tree_from_heads(heads, tags=tags)
