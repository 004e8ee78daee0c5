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

Items (all positions 1-based, in 1..n; spans inclusive):

    ("ROOT", n)                     the goal: the root n+1 with its one
                                    dependent d, from ("TRI", 1, d, n, 1)
                                    (``sbg._root_edges``)
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
chart, so the passes in ``sbg`` (inside, expected counts, Viterbi) run on
either chart's forest.  Three steps fix a token as a leaf (no dependent on
either side): folding in a left dependent h with b == 0 and j == h, filling
a prediction j that has consumed no left dependent (``RQ`` from ``PR`` with
v), and the one-token subtree ``TRI(h, h, h)``.  Each charges the leaf mark
``sbg.leaf_mark`` of its token, so every leaf carries exactly one mark in
every derivation.  Automata price the mark at 0; ``induction`` prices it
-inf where a token must head a dependent, which removes exactly the trees
where that token stays childless.

``lc_forest`` only builds; ``induction`` keeps the forests, keyed by
sentence length and depth policy, and re-prices one per sentence and model.
Items are emitted only when their automaton states are reachable, judged
from the transition structure alone (see ``_lc_expand``), so re-pricing a
forest never needs an item that was skipped.

The chart runs left to right and only the goal, which names the length,
mentions the root position n+1, so on DMV automata every item has the same
edges at every length (an unbounded policy has no depth check, so this
holds for it too), and an item shifted along the sentence has its edges
shifted alike.  ``POSITIONS`` names each item kind's position fields (the
goal has none), so that a ``hypergraph.TranslationClasses`` table can lay
out every length's forest from one expansion of each item shape.
"""

import dataclasses
import math

from . import hypergraph
from .sbg import LEFT, RIGHT, _root_edges, leaf_mark

# the position fields of each item kind, which a
# ``hypergraph.TranslationClasses`` table moves; the goal has none
POSITIONS = {"ROOT": (), "LI": (1, 2), "RF": (1, 2), "RQ": (2, 3),
             "TRI": (1, 2, 3), "RECT": (1, 2, 3), "PR": (2, 3, 4),
             "HR": (1, 2, 3), "HPR": (2, 3, 4)}


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


def _lc_expand(sent, policy):
    """Backward-chaining expansion of the depth-bounded chart.

    An ``RQ(q, h, j)`` item is emitted only when its state is reachable:
    with no right dependent yet (j == h) q must be initial, otherwise some
    transition on a dependent in h+1..j must enter q
    (``SentenceAutomata.may_reach``).  Every derivable item passes, so the
    forest keeps every edge; the items skipped, and the ``PR``/``HPR``
    items they would lead to, would have been dead.  For the same reason a
    ``PR(r, i, j, p, q, d, v)`` item with v False (p has a left dependent,
    which lies in i+1..j) is emitted only when j > i.
    """
    C = policy.size_cutoff
    D = policy.max_depth if policy.max_depth is not None else math.inf
    reach = sent.may_reach

    def pr_flags(i, j):
        return (True, False) if j > i else (True,)

    def fold_left_dependent(edges, prefix, i, j, p, q, d):
        """Edges that fold in a later left dependent h of p, built as a
        separate element of material h..j; depth d+1 is charged while that
        element spans > C.  The waiting item is ``prefix`` followed by
        (i, h, p, qt, d, b, dd): an ``HR`` or an ``HPR`` item."""
        for h in range(i + 1, j + 1):
            for qt, _ in sent.steps(LEFT, p, q, h):
                for b in range(min(C, h - 1 - i) + 1):
                    dd = d + 1 if b + (j - h) >= C else d
                    if dd > D:
                        continue
                    # b == 0 and j == h: h has no dependent
                    leaf = (leaf_mark(h),) if b == 0 and j == h else ()
                    edges.append((
                        (prefix + (i, h, p, qt, d, b, dd), ("RF", h, j, dd)),
                        ((LEFT, p, "trans", q, qt, h),) + leaf,
                    ))

    def expand(item):
        kind = item[0]
        edges = []
        if kind == "ROOT":
            n = item[1]
            return _root_edges(n, lambda d: (("TRI", 1, d, n, 1),))
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
                if reach(RIGHT, h, q, h + 1, j):
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
                    for v in pr_flags(h, j - 1):
                        # with v, j has no left dependent either
                        edges.append(
                            (
                                (("PR", q, h, j - 1, j, qL, d, v),),
                                (
                                    (LEFT, j, "init", qL),
                                    (RIGHT, j, "init", qR),
                                    (RIGHT, j, "final", qR),
                                ) + ((leaf_mark(j),) if v else ()),
                            )
                        )
            return edges

        if kind == "TRI":
            _, i, h, j, d = item
            edges.append(((("LI", i, h, d), ("RF", h, j, d)),
                          (leaf_mark(h),) if i == h == j else ()))
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
            fold_left_dependent(edges, ("HR",), i, j, p, q, d)
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
                    if not reach(RIGHT, i, r0, i + 1, j):
                        continue
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
                                if not reach(RIGHT, h, qp, h + 1, j):
                                    continue
                                for v2 in pr_flags(i, h - 1):
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
            fold_left_dependent(edges, ("HPR", r), i, j, p, qL, d)
            return edges

        if kind == "HPR":
            _, r, i, h, p, q, d, b, dd = item
            for j2 in range(i, h):
                if min(C, h - 1 - j2) != b:
                    continue
                for v in pr_flags(i, j2):
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


def lc_forest(sent, policy=None):
    """The left-corner forest of ``sent`` under ``policy`` (None is
    unbounded)."""
    return hypergraph.build_forest(
        ("ROOT", sent.n), _lc_expand(sent, policy or DepthPolicy()))
