"""Split bilexical grammars over dependency trees.

A sentence is scored by one weighted finite-state automaton per (token, side):
the left automaton of a head emits its left dependents, the right automaton
its right dependents, both nearest-first when walked forward from an initial
state to a final state.  A distinguished root position n+1 carries a left
automaton that accepts exactly one dependent (the sentence root).

The module provides

* tag-level automata and the dependency-model-with-valence (DMV)
  instantiation, where each side has two states (no dependents yet /
  at least one) so stop decisions can condition on adjacency;
* exhaustive oracles that score a single tree or enumerate all projective
  trees (used to validate the charts);
* an O(n^3) head-split chart;
* the passes every chart shares, each taking a built forest: inside
  (log-sum, count or max), expected event counts, and Viterbi trees;
* the one forest cache, which holds the forests of both charts;
* DMV decision counts read off automaton event counts.

Weights are kept in log space throughout.
"""

import bisect
import collections
import dataclasses
import math
import weakref

import numpy as np

from . import hypergraph
from .exhaustive import projective_trees
from .hypergraph import NEG_INF
from .treebank import tree_from_heads

LEFT = "L"
RIGHT = "R"


def _log(p):
    return math.log(p) if p > 0.0 else NEG_INF


def _logsumexp(values):
    m = NEG_INF
    for v in values:
        if v > m:
            m = v
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in values))


# ---------------------------------------------------------------------------
# parameters and tag-level automata


@dataclasses.dataclass
class DmvParams:
    """Probabilities of the dependency model with valence.

    attach[(head_tag, side)] is a distribution over dependent tags;
    stop[(head_tag, side, adjacent)] is the probability of generating no
    further dependent on that side; root is a distribution over root tags.
    """

    attach: dict
    stop: dict
    root: dict


def uniform_dmv_params(vocab):
    vocab = sorted(set(vocab))
    p = 1.0 / len(vocab)
    attach = {(h, s): {d: p for d in vocab} for h in vocab for s in (LEFT, RIGHT)}
    stop = {(h, s, adj): 0.5 for h in vocab for s in (LEFT, RIGHT) for adj in (True, False)}
    root = {d: p for d in vocab}
    return DmvParams(attach=attach, stop=stop, root=root)


def random_dmv_params(vocab, rng):
    """Random fully-supported parameters, for smoke and agreement tests."""
    vocab = sorted(set(vocab))

    def simplex(keys):
        raw = {k: rng.random() + 1e-3 for k in keys}
        z = sum(raw.values())
        return {k: v / z for k, v in raw.items()}

    attach = {(h, s): simplex(vocab) for h in vocab for s in (LEFT, RIGHT)}
    stop = {
        (h, s, adj): 0.05 + 0.9 * rng.random()
        for h in vocab
        for s in (LEFT, RIGHT)
        for adj in (True, False)
    }
    root = simplex(vocab)
    return DmvParams(attach=attach, stop=stop, root=root)


# ---------------------------------------------------------------------------
# sentence-level automata

ROOT_STATE0 = 0
ROOT_STATE1 = 1


class SentenceAutomata:
    """Per-position weighted automata for one sentence of n tokens.

    Positions are 1-based.  Position n+1 is the distinguished root; it has a
    left automaton only, whose structure forces exactly one dependent.  A
    forward walk (initial state to final state) consumes dependents
    nearest-first: descending positions on the left side, ascending on the
    right.

    Charts never read weights from items; they emit event tuples

        (side, h, "init", q) / (side, h, "final", q) /
        (side, h, "trans", q, r, d)

    and ``event_logw`` supplies the log-weight of each.
    """

    def __init__(self, n, topology_key=None):
        self.n = n
        self.topology_key = topology_key
        self._init = {}
        self._final = {}
        self._fwd = {}
        self._rev = {}
        self._entered = {}

    def add_machine(self, side, h, init, final, trans):
        """Install the automaton for (side, h).

        init/final map state -> logw; trans is an iterable of
        (q, dep_position, r, logw) forward transitions.
        """
        self._init[side, h] = dict(init)
        self._final[side, h] = dict(final)
        fwd = {}
        rev = {}
        for q, d, r, w in trans:
            fwd.setdefault((q, d), {})[r] = w
            rev.setdefault((r, d), {})[q] = w
        self._fwd[side, h] = fwd
        self._rev[side, h] = rev
        self._entered.pop((side, h), None)

    def init_states(self, side, h):
        return list(self._init[side, h].items())

    def final_states(self, side, h):
        return list(self._final[side, h].items())

    def steps(self, side, h, q, d):
        """Forward transitions from q consuming the dependent at d."""
        return list(self._fwd[side, h].get((q, d), {}).items())

    def steps_into(self, side, h, r, d):
        """States q with a forward transition q --d--> r."""
        return list(self._rev[side, h].get((r, d), {}).items())

    def may_reach(self, side, h, q, lo, hi):
        """Whether the (side, h) machine can be in state q having consumed
        dependents from positions lo..hi only: with none consumed (lo > hi)
        q must be initial, otherwise a forward transition consuming some
        dependent in lo..hi must enter q.

        Reads structure only, never weights: a -inf transition still
        counts, so what the charts prune does not depend on ``reweight`` or
        ``restrict_root``.
        """
        if lo > hi:
            return q in self._init[side, h]
        entered = self._entered.get((side, h))
        if entered is None:
            entered = collections.defaultdict(list)
            for r, d in sorted(self._rev[side, h]):
                entered[r].append(d)
            entered = self._entered[side, h] = dict(entered)
        deps = entered.get(q, ())
        k = bisect.bisect_left(deps, lo)
        return k < len(deps) and deps[k] <= hi

    def event_logw(self, event):
        side, h, kind = event[0], event[1], event[2]
        if kind == "init":
            return self._init[side, h].get(event[3], NEG_INF)
        if kind == "final":
            return self._final[side, h].get(event[3], NEG_INF)
        if kind == "trans":
            q, r, d = event[3], event[4], event[5]
            return self._fwd[side, h].get((q, d), {}).get(r, NEG_INF)
        raise ValueError("unknown event %r" % (event,))

    def reweight(self, bias):
        """Copy with ``bias(h, d)`` added to every real-head transition.

        The transition structure (and hence any cached forest) is unchanged,
        so the topology key is preserved.
        """
        out = SentenceAutomata(self.n, topology_key=self.topology_key)
        out._init = {k: dict(v) for k, v in self._init.items()}
        out._final = {k: dict(v) for k, v in self._final.items()}
        for (side, h), fwd in self._fwd.items():
            trans = []
            for (q, d), row in fwd.items():
                for r, w in row.items():
                    extra = bias(h, d) if h <= self.n else 0.0
                    trans.append((q, d, r, w + extra))
            out.add_machine(
                side, h, self._init[side, h], self._final[side, h], trans
            )
        return out

    def restrict_root(self, allowed_positions):
        """Copy where root transitions outside ``allowed_positions`` carry
        zero weight.  Structure is preserved so forests stay cacheable."""
        allowed = set(allowed_positions)
        out = SentenceAutomata(self.n, topology_key=self.topology_key)
        out._init = {k: dict(v) for k, v in self._init.items()}
        out._final = {k: dict(v) for k, v in self._final.items()}
        for (side, h), fwd in self._fwd.items():
            trans = []
            for (q, d), row in fwd.items():
                for r, w in row.items():
                    if h == self.n + 1 and d not in allowed:
                        w = NEG_INF
                    trans.append((q, d, r, w))
            out.add_machine(
                side, h, self._init[side, h], self._final[side, h], trans
            )
        return out


def _add_root_machine(sent, n, root_logw):
    trans = [(ROOT_STATE0, d, ROOT_STATE1, root_logw(d)) for d in range(1, n + 1)]
    sent.add_machine(LEFT, n + 1, {ROOT_STATE0: 0.0}, {ROOT_STATE1: 0.0}, trans)


def dmv_sentence_automata(tags, params):
    """DMV automata over one sentence: two states per side, adjacency split."""
    n = len(tags)
    sent = SentenceAutomata(n, topology_key=("dmv", n))
    for h in range(1, n + 1):
        ht = tags[h - 1]
        for side in (LEFT, RIGHT):
            deps = range(1, h) if side == LEFT else range(h + 1, n + 1)
            try:
                stop_adj = params.stop[ht, side, True]
                stop_non = params.stop[ht, side, False]
                attach = params.attach[ht, side]
            except KeyError:
                raise ValueError(
                    "tag %r (token %d) has no DMV parameters: the model was "
                    "not trained on it" % (ht, h)
                ) from None
            final = {0: _log(stop_adj), 1: _log(stop_non)}
            trans = []
            for d in deps:
                att = _log(attach.get(tags[d - 1], 0.0))
                trans.append((0, d, 1, att + _log(1.0 - stop_adj)))
                trans.append((1, d, 1, att + _log(1.0 - stop_non)))
            sent.add_machine(side, h, {0: 0.0}, final, trans)
    _add_root_machine(sent, n, lambda d: _log(params.root.get(tags[d - 1], 0.0)))
    return sent


def weighted_sentence_automata(
    tags, attach_logw, root_logw, stop_logw=None, cont_logw=None
):
    """DMV-shaped automata with arbitrary per-position log-weights.

    attach_logw(h, d) scores attaching position d under head position h;
    stop_logw(h, side, adjacent) and cont_logw(h, side, adjacent) default to
    0.  Used for the harmonic initializer and other position-level biases.
    """
    n = len(tags)
    stop_logw = stop_logw or (lambda h, side, adj: 0.0)
    cont_logw = cont_logw or (lambda h, side, adj: 0.0)
    sent = SentenceAutomata(n, topology_key=("dmv", n))
    for h in range(1, n + 1):
        for side in (LEFT, RIGHT):
            deps = range(1, h) if side == LEFT else range(h + 1, n + 1)
            final = {0: stop_logw(h, side, True), 1: stop_logw(h, side, False)}
            trans = []
            for d in deps:
                trans.append((0, d, 1, attach_logw(h, d) + cont_logw(h, side, True)))
                trans.append((1, d, 1, attach_logw(h, d) + cont_logw(h, side, False)))
            sent.add_machine(side, h, {0: 0.0}, final, trans)
    _add_root_machine(sent, n, root_logw)
    return sent


def random_sentence_automata(n, n_states, rng):
    """Random multi-state automata over n positions, fully connected.

    Exercises the charts beyond the two-state DMV topology.
    """
    sent = SentenceAutomata(n)
    states = range(n_states)

    def w():
        return math.log(0.05 + rng.random())

    for h in range(1, n + 1):
        for side in (LEFT, RIGHT):
            deps = range(1, h) if side == LEFT else range(h + 1, n + 1)
            init = {q: w() for q in states if q == 0 or rng.random() < 0.5}
            final = {q: w() for q in states if q == n_states - 1 or rng.random() < 0.5}
            trans = []
            for d in deps:
                for q in states:
                    for r in states:
                        if rng.random() < 0.7:
                            trans.append((q, d, r, w()))
            sent.add_machine(side, h, init, final, trans)
    _add_root_machine(sent, n, lambda d: w())
    return sent


# ---------------------------------------------------------------------------
# exhaustive oracles


def _ordered_deps(heads, h, n):
    """Dependent positions of h in forward consumption order (nearest first)."""
    if h == n + 1:
        return [d + 1 for d, hd in enumerate(heads) if hd == 0]
    left = sorted((d + 1 for d, hd in enumerate(heads) if hd == h and d + 1 < h), reverse=True)
    right = sorted(d + 1 for d, hd in enumerate(heads) if hd == h and d + 1 > h)
    return left, right


def _chain_passes(sent, side, h, deps):
    """Forward/backward log masses over one automaton run consuming deps."""
    alphas = [dict(sent.init_states(side, h))]
    for d in deps:
        nxt = {}
        for q, wq in alphas[-1].items():
            for r, w in sent.steps(side, h, q, d):
                nxt[r] = np.logaddexp(nxt.get(r, NEG_INF), wq + w)
        alphas.append(nxt)
    finals = dict(sent.final_states(side, h))
    betas = [None] * (len(deps) + 1)
    betas[-1] = dict(finals)
    for k in range(len(deps) - 1, -1, -1):
        d = deps[k]
        prev = {}
        for r, wr in betas[k + 1].items():
            for q, w in sent.steps_into(side, h, r, d):
                prev[q] = np.logaddexp(prev.get(q, NEG_INF), wr + w)
        betas[k] = prev
    logw = _logsumexp(
        [wq + finals.get(q, NEG_INF) for q, wq in alphas[-1].items()]
    )
    return alphas, betas, logw


def tree_log_weight(heads, tags, sent):
    """Log-weight of one tree: the product of all its automaton runs."""
    n = len(tags)
    total = 0.0
    for h in range(1, n + 1):
        left, right = _ordered_deps(heads, h, n)
        for side, deps in ((LEFT, left), (RIGHT, right)):
            _, _, logw = _chain_passes(sent, side, h, deps)
            total += logw
            if total == NEG_INF:
                return NEG_INF
    _, _, logw = _chain_passes(sent, LEFT, n + 1, _ordered_deps(heads, n + 1, n))
    return total + logw


def tree_event_logmass(heads, tags, sent):
    """(log-weight, event -> log expected-use mass) for a single tree.

    Masses are unnormalized: dividing by the tree weight gives the expected
    number of uses of each automaton event across the tree's state paths.
    """
    n = len(tags)
    chains = []
    for h in range(1, n + 1):
        left, right = _ordered_deps(heads, h, n)
        chains.append((LEFT, h, left))
        chains.append((RIGHT, h, right))
    chains.append((LEFT, n + 1, _ordered_deps(heads, n + 1, n)))
    total = 0.0
    per_chain = []
    for side, h, deps in chains:
        alphas, betas, logw = _chain_passes(sent, side, h, deps)
        per_chain.append((side, h, deps, alphas, betas, logw))
        total += logw
    if total == NEG_INF or math.isnan(total):
        return NEG_INF, {}
    masses = {}

    def bump(event, logmass):
        if logmass == NEG_INF:
            return
        masses[event] = np.logaddexp(masses.get(event, NEG_INF), logmass)

    for side, h, deps, alphas, betas, logw in per_chain:
        rest = total - logw
        for q, wq in alphas[0].items():
            bump((side, h, "init", q), rest + wq + betas[0].get(q, NEG_INF))
        for q, wq in alphas[-1].items():
            wf = dict(sent.final_states(side, h)).get(q, NEG_INF)
            bump((side, h, "final", q), rest + wq + wf)
        for k, d in enumerate(deps):
            for q, wq in alphas[k].items():
                for r, w in sent.steps(side, h, q, d):
                    wb = betas[k + 1].get(r, NEG_INF)
                    bump((side, h, "trans", q, r, d), rest + wq + w + wb)
    return total, masses


def brute_force_marginal(tags, sent, tree_filter=None):
    """Log-sum of tree weights over all projective trees (optionally filtered)."""
    n = len(tags)
    vals = []
    for heads in projective_trees(n):
        if tree_filter is not None and not tree_filter(heads):
            continue
        vals.append(tree_log_weight(heads, tags, sent))
    return _logsumexp(vals)


def brute_force_expected_counts(tags, sent, tree_filter=None):
    """(event -> expected count, log marginal) by explicit enumeration."""
    n = len(tags)
    per_tree = []
    for heads in projective_trees(n):
        if tree_filter is not None and not tree_filter(heads):
            continue
        logw, masses = tree_event_logmass(heads, tags, sent)
        if logw > NEG_INF:
            per_tree.append((logw, masses))
    logz = _logsumexp([lw for lw, _ in per_tree])
    counts = collections.defaultdict(float)
    if logz == NEG_INF:
        return counts, logz
    for logw, masses in per_tree:
        for event, logmass in masses.items():
            counts[event] += math.exp(logmass - logz)
    return counts, logz


def brute_force_viterbi(tags, sent, tree_filter=None):
    """(best log-weight, heads) preferring the lexicographically smaller
    sorted (dependent, head) arc list on ties."""
    n = len(tags)
    best = (NEG_INF, None)
    for heads in projective_trees(n):
        if tree_filter is not None and not tree_filter(heads):
            continue
        logw = tree_log_weight(heads, tags, sent)
        if logw == NEG_INF:
            continue
        key = tuple(sorted((d + 1, h) for d, h in enumerate(heads)))
        if (
            best[1] is None
            or logw > best[0] + 1e-12
            or (logw > best[0] - 1e-12 and key < best[2])
        ):
            best = (logw, heads, key)
    return best[0], best[1]


# ---------------------------------------------------------------------------
# the O(n^3) head-split chart
#
# Item shapes (spans are inclusive, head positions 1-based, root at n+1):
#   ("LF", i, h)      finished left half of h covering i..h
#   ("LQ", q, i, h)   left half of h covering i..h, automaton in state q
#   ("LT", r, d, h)   left half extended by the arc h -> d, d's right half
#                     already attached; r is the state after consuming d
#   ("RF", h, j) / ("RQ", q, h, j) / ("RT", r, h, d)  mirror images
#
# Walking a left automaton forward consumes dependents nearest-first, so the
# chart grows left halves outward: ("LQ", q, i, h) extends to a farther
# dependent d < i.  The goal is the root's finished left half ("LF", 1, n+1).


def _eisner_expand(sent):
    """Backward-chaining expansion of the head-split chart.

    A state-carrying item is emitted only when its state is reachable: a
    half with no dependents yet (``LQ``/``RQ`` with i == h or j == h) needs
    an initial state, any other ``LQ``/``RQ`` a state some transition on a
    dependent inside its span enters, and ``LT``/``RT`` a state entered on
    its dependent d (``SentenceAutomata.may_reach``).  Every derivable item
    passes, so the forest keeps every edge; the items skipped would have
    been dead.
    """
    reach = sent.may_reach

    def expand(item):
        kind = item[0]
        out = []
        if kind == "LF":
            _, i, h = item
            for q, _ in sent.final_states(LEFT, h):
                if reach(LEFT, h, q, i, h - 1):
                    out.append(((("LQ", q, i, h),), ((LEFT, h, "final", q),)))
        elif kind == "LQ":
            _, q, i, h = item
            if i == h:
                if any(q == q0 for q0, _ in sent.init_states(LEFT, h)):
                    out.append(((), ((LEFT, h, "init", q),)))
            else:
                for d in range(i, h):
                    if reach(LEFT, h, q, d, d):
                        out.append(((("LF", i, d), ("LT", q, d, h)), ()))
        elif kind == "LT":
            _, r, d, h = item
            for k in range(d, h):
                for q, _ in sent.steps_into(LEFT, h, r, d):
                    if reach(LEFT, h, q, k + 1, h - 1):
                        out.append(
                            (
                                (("RF", d, k), ("LQ", q, k + 1, h)),
                                ((LEFT, h, "trans", q, r, d),),
                            )
                        )
        elif kind == "RF":
            _, h, j = item
            for q, _ in sent.final_states(RIGHT, h):
                if reach(RIGHT, h, q, h + 1, j):
                    out.append(((("RQ", q, h, j),), ((RIGHT, h, "final", q),)))
        elif kind == "RQ":
            _, q, h, j = item
            if j == h:
                if any(q == q0 for q0, _ in sent.init_states(RIGHT, h)):
                    out.append(((), ((RIGHT, h, "init", q),)))
            else:
                for d in range(h + 1, j + 1):
                    if reach(RIGHT, h, q, d, d):
                        out.append(((("RT", q, h, d), ("RF", d, j)), ()))
        elif kind == "RT":
            _, r, h, d = item
            for k in range(h, d):
                for q, _ in sent.steps_into(RIGHT, h, r, d):
                    if reach(RIGHT, h, q, h + 1, k):
                        out.append(
                            (
                                (("RQ", q, h, k), ("LF", k + 1, d)),
                                ((RIGHT, h, "trans", q, r, d),),
                            )
                        )
        else:
            raise ValueError("unknown item %r" % (item,))
        return out

    return expand


def eisner_forest(tags, sent):
    n = len(tags)
    return hypergraph.build_forest(("LF", 1, n + 1), _eisner_expand(sent))


def eisner_inside(tags, sent, semiring="logsum", forest=None):
    """``forest_inside`` over the cubic chart: the log marginal over
    projective trees, their number, or the best log-weight."""
    if forest is None:
        forest = eisner_forest(tags, sent)
    return forest_inside(forest, sent, semiring)


def eisner_expected_counts(tags, sent, forest=None):
    """``forest_expected_counts`` over the cubic chart."""
    if forest is None:
        forest = eisner_forest(tags, sent)
    return forest_expected_counts(forest, sent)


def eisner_viterbi(tags, sent, forest=None):
    """``forest_viterbi`` over the cubic chart: the best projective tree."""
    if forest is None:
        forest = eisner_forest(tags, sent)
    return forest_viterbi(forest, sent, tags)


# ---------------------------------------------------------------------------
# the forest cache
#
# A forest depends only on the transition structure of the automata, so one
# forest serves every sentence whose automata share a topology key (for the
# DMV, every sentence of one length) and is re-priced per sentence.


# (chart, topology key, DepthPolicy or None, blocked positions) -> forest
_FOREST_CACHE = {}


def clear_forest_cache():
    """Drop the cached forests of every chart."""
    _FOREST_CACHE.clear()


def _cached_forest(chart, sent, policy, blocked, build):
    """The forest of ``chart`` for ``sent``'s topology under (policy,
    blocked), from ``build()`` on a miss.  Automata without a topology key
    get a fresh forest every time."""
    if sent.topology_key is None:
        return build()
    key = (chart, sent.topology_key, policy, blocked)
    forest = _FOREST_CACHE.get(key)
    if forest is None:
        forest = _FOREST_CACHE[key] = build()
    return forest


# ---------------------------------------------------------------------------
# passes over a forest of either chart


# forest -> its edge_arcs callable (a forest serves one sentence length n),
# dropped with the forest
_EDGE_ARCS = weakref.WeakKeyDictionary()


def _arcs_of_edge(forest, n):
    """Callable edge id -> tuple of the (dependent, head) arcs its
    transition events add, head 0 for the root.  Each edge's arcs are
    read from the edge -> event CSR once per forest, on first use, so tied
    Viterbi heads of a cached forest pay a list lookup per edge."""
    edge_arcs = _EDGE_ARCS.get(forest)
    if edge_arcs is not None:
        return edge_arcs
    ptr = forest.event_ptr.tolist()
    flat = forest.event_flat.tolist()
    arc_of = [
        (ev[5], 0 if ev[1] == n + 1 else ev[1]) if ev[2] == "trans" else None
        for ev in forest.events
    ]
    memo = [None] * forest.n_edges

    def edge_arcs(e):
        arcs = memo[e]
        if arcs is None:
            arcs = memo[e] = tuple(arc_of[k] for k in flat[ptr[e]:ptr[e + 1]]
                                   if arc_of[k] is not None)
        return arcs

    _EDGE_ARCS[forest] = edge_arcs
    return edge_arcs


def _heads_from_edges(forest, edges, n):
    heads = [None] * n
    edge_arcs = _arcs_of_edge(forest, n)
    for e in edges:
        for d, h in edge_arcs(e):
            heads[d - 1] = h
    if any(h is None for h in heads):
        raise ValueError("incomplete derivation: %r" % (heads,))
    return tuple(heads)


def _inside_max(forest, sent):
    """(scores, best edges) of the max pass; ties go to the smaller arc
    list."""
    eventw = forest.event_weights(sent.event_logw)
    return hypergraph.inside_max(forest, eventw, _arcs_of_edge(forest, sent.n))


def forest_inside(forest, sent, semiring="logsum"):
    """(per-item values, goal value) of the forest priced by ``sent``.

    "logsum" gives the log marginal over the forest's derivations, "count"
    their exact number, "max" the best log-weight.
    """
    if semiring == "count":
        values = hypergraph.inside_count(forest)
        return values, values[forest.goal_id]
    if semiring == "logsum":
        values = hypergraph.inside_logsum(
            forest, forest.event_weights(sent.event_logw))
    elif semiring == "max":
        values, _ = _inside_max(forest, sent)
    else:
        raise ValueError("unknown semiring %r" % semiring)
    return values, float(values[forest.goal_id])


def forest_expected_counts(forest, sent):
    """(event -> expected count, log marginal) via inside-outside."""
    eventw = forest.event_weights(sent.event_logw)
    logz, post = hypergraph.event_posteriors(forest, eventw)
    counts = {
        forest.events[k]: post[k] for k in range(len(forest.events)) if post[k]
    }
    return counts, float(logz)


def forest_viterbi(forest, sent, tags):
    """Best tree of the forest as a DepTree; ties prefer the arc list whose
    sorted (dependent, head) pairs are lexicographically smaller."""
    scores, best = _inside_max(forest, sent)
    if not scores[forest.goal_id] > NEG_INF:  # -inf, or NaN from NaN weights
        raise ValueError("no derivation has nonzero weight")
    edges = hypergraph.backtrace(forest, best)
    heads = _heads_from_edges(forest, edges, len(tags))
    return tree_from_heads(heads, tags=tags)


# ---------------------------------------------------------------------------
# DMV decision counts


@dataclasses.dataclass
class DmvCounts:
    attach: dict
    stop: dict
    cont: dict
    root: dict

    @staticmethod
    def zero():
        return DmvCounts(
            attach=collections.defaultdict(float),
            stop=collections.defaultdict(float),
            cont=collections.defaultdict(float),
            root=collections.defaultdict(float),
        )

    def merge(self, other, mult=1):
        """Add ``mult`` times the counts of ``other`` to these."""
        for field in ("attach", "stop", "cont", "root"):
            mine = getattr(self, field)
            for key, c in getattr(other, field).items():
                mine[key] += mult * c
        return self


def dmv_counts_from_events(event_counts, tags):
    """Convert position-level automaton event counts to DMV decision counts.

    Transitions of real heads are attachments (and continue decisions, with
    adjacency read off the source state); final weights are stop decisions.
    Root-automaton transitions are root choices; its init/final carry no
    probability mass and are ignored.
    """
    n = len(tags)
    out = DmvCounts.zero()
    for event, c in event_counts.items():
        side, h, kind = event[0], event[1], event[2]
        if h == n + 1:
            if kind == "trans":
                out.root[tags[event[5] - 1]] += c
            continue
        ht = tags[h - 1]
        if kind == "trans":
            q, _, d = event[3], event[4], event[5]
            out.attach[ht, side, tags[d - 1]] += c
            out.cont[ht, side, q == 0] += c
        elif kind == "final":
            out.stop[ht, side, event[3] == 0] += c
    return out


def _tag_sequences(corpus):
    for item in corpus:
        if hasattr(item, "tags"):
            yield item.tags
        else:
            yield tuple(item)
