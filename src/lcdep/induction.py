"""Unsupervised dependency grammar induction.

A DMV whose multinomials are log-linear over shared back-off features,
trained with EM: the E-step computes expected decision counts under the
current parameters (optionally restricted by a stack-depth policy, a
dependency-length bias, and linguistic constraints), and the M-step fits the
feature weights to those counts by Newton's method under a Gaussian prior.
Both work on one flat layout of all softmax decisions (``FeatureSpace``): a
single segment log-softmax gives both the M-step objective and the DMV
probabilities, and the expected counts are one vector over the layout.
``train`` runs EM in that layout alone, and the decoders price a trained
model's weights the same way; ``DmvParams`` and ``DmvCounts`` appear only
at the public edges (``estep``, ``sentence_expectations``, decoding
hand-made parameters and ``TrainedModel.params``).

The E-step runs inside-outside once over a *corpus graph*
(``CorpusGraph``): the disjoint union of the cached chart forests
(``_chart_forest``, one per length and chart) of every distinct tag
sequence, with the constraints and the length bias folded into its prices
once, when it is built.  Each event is priced by gathering two decision
log-weights (plus the bias), and its expected count lands on the same
decisions, so no sentence's automata are priced and no count dict is
merged.  ``train`` builds its E-step graph once; ``estep``,
``sentence_expectations`` and the decoders, one per call.

Constraints follow the cost framing: they multiply tree weights by factors
in [0, 1] and are never renormalized, so the E-step posterior is simply the
restricted chart's posterior.  Every constraint is a price: a stop-at-once
tag's continue decisions, an excluded root choice and the leaf mark of a
token that must head a dependent all weigh -inf.  Decoding runs the same
graphs and prices under the max semiring: ``decode`` under the
unconstrained model, ``decode_constrained`` under the training
restrictions.
"""

import collections
import dataclasses
import math
import time

import numpy as np

from . import hypergraph, lc_chart, sbg
from .hypergraph import NEG_INF
from .lc_chart import DepthPolicy
from .sbg import LEFT, RIGHT, DmvCounts, DmvParams
from .treebank import DEFAULT_PUNCT_TAGS, UD_NOUN_TAGS, tree_from_heads

ROOT_HEAD = "$"
STOP = "stop"
CONTINUE = "continue"

ROOT_MODES = ("none", "verb-or-noun", "verb-otherwise-noun")
VERB_ROOT_TAGS = frozenset({"VERB"})


# ---------------------------------------------------------------------------
# feature templates


def attach_features(h, d, side):
    """Back-off stack for one attachment decision: the full triple, the pair
    ignoring direction (sharing across sides), and dependent-only cores."""
    return (
        ("a_hds", h, d, side),
        ("a_hd", h, d),
        ("a_ds", d, side),
        ("a_d", d),
    )


def stop_features(h, side, adj, dec):
    """Back-off stack for one stop/continue decision, down to the decision
    alone (ignoring head, direction and adjacency)."""
    a = "adj" if adj else "nonadj"
    return (
        ("s_hsa", h, side, a, dec),
        ("s_hs", h, side, dec),
        ("s_h", h, dec),
        ("s", dec),
    )


class FeatureSpace:
    """Deterministic feature index over a tagset plus the softmax contexts.

    Every DMV multinomial (attach per head tag and side, stop per head tag,
    side and adjacency, and the root choice) is a softmax over its decisions,
    each decision scored by the sum of its template weights.  The root choice
    is featurized as an attachment from a distinguished head symbol.

    All decisions lie in one flat layout, context after context: attach per
    (head, side), then stop per (head, side, adjacency) with STOP before
    CONTINUE, then root.  Decision e has the feature ids ``feats[e]`` and
    lies in context ``context_of[e]``, which starts at decision
    ``starts[context_of[e]]``; ``keys[e]`` is its DmvCounts field and key:
    ``("attach", (h, side, d))``, ``("stop", (h, side, adj))``,
    ``("cont", (h, side, adj))`` or ``("root", d)``.

    The same layout indexed by tag ids (``tag_id``, in ``tags`` order),
    side ids (0 left, 1 right) and adjacency ids (0 adjacent): decision
    ``attach_at[h, side, d]``, ``stop_at[h, side, adj]``,
    ``cont_at[h, side, adj]`` or ``root_at[d]``.
    """

    def __init__(self, tagset):
        self.tags = tuple(sorted(set(tagset)))
        self.index = {}
        self.keys = []
        rows = []
        sizes = []
        for h in self.tags:
            for side in (LEFT, RIGHT):
                for d in self.tags:
                    self.keys.append(("attach", (h, side, d)))
                    rows.append(attach_features(h, d, side))
                sizes.append(len(self.tags))
        for h in self.tags:
            for side in (LEFT, RIGHT):
                for adj in (True, False):
                    self.keys.append(("stop", (h, side, adj)))
                    rows.append(stop_features(h, side, adj, STOP))
                    self.keys.append(("cont", (h, side, adj)))
                    rows.append(stop_features(h, side, adj, CONTINUE))
                    sizes.append(2)
        for d in self.tags:
            self.keys.append(("root", d))
            rows.append(attach_features(ROOT_HEAD, d, LEFT))
        sizes.append(len(self.tags))
        self.feats = np.array(
            [[self.index.setdefault(key, len(self.index)) for key in row]
             for row in rows],
            dtype=np.int64,
        )
        self.starts = np.cumsum([0] + sizes[:-1])
        self.context_of = np.repeat(np.arange(len(sizes)), sizes)
        t = len(self.tags)
        self.tag_id = {tag: k for k, tag in enumerate(self.tags)}
        self.attach_at = np.arange(t * 2 * t).reshape(t, 2, t)
        self.stop_at = t * 2 * t + 2 * np.arange(t * 4).reshape(t, 2, 2)
        self.cont_at = self.stop_at + 1
        self.root_at = t * 2 * t + 8 * t + np.arange(t)

    @property
    def n_features(self):
        return len(self.index)

    @property
    def n_decisions(self):
        return len(self.keys)

    def _log_softmax(self, w):
        """Log-probability of every decision within its context."""
        logits = w[self.feats].sum(axis=1)
        logits -= np.maximum.reduceat(logits, self.starts)[self.context_of]
        logz = np.log(np.add.reduceat(np.exp(logits), self.starts))
        return logits - logz[self.context_of]

    def weights_to_params(self, w):
        """Softmax every context; zero weights give uniform multinomials."""
        probs = np.exp(self._log_softmax(np.asarray(w, dtype=float)))
        params = DmvParams(attach={}, stop={}, root={})
        for (field, key), p in zip(self.keys, probs.tolist()):
            if field == "attach":
                params.attach.setdefault(key[:2], {})[key[2]] = p
            elif field != "cont":  # continue is the complement of stop
                getattr(params, field)[key] = p
        return params

    def dmv_counts(self, vector):
        """The DmvCounts of one count per decision; zero counts are left
        out."""
        out = DmvCounts.zero()
        for (field, key), c in zip(self.keys, vector.tolist()):
            if c:
                getattr(out, field)[key] = c
        return out


# Newton iterations per M-step at most; converged M-steps take far fewer
MSTEP_MAX_ITERATIONS = 100


def mstep_objective(space, w, counts, sigma2):
    """Penalized expected complete-data log-likelihood and its gradient.

    ``counts`` holds one expected count per decision of ``space``'s flat
    layout.  Returns (objective, gradient) of
        sum_e c_e * log softmax(w)_e  -  ||w||^2 / (2 sigma2).
    """
    w = np.asarray(w, dtype=float)
    logp = space._log_softmax(w)
    totals = np.add.reduceat(counts, space.starts)
    delta = counts - totals[space.context_of] * np.exp(logp)
    grad = np.bincount(space.feats.ravel(),
                       weights=np.repeat(delta, space.feats.shape[1]),
                       minlength=space.n_features)
    return (float(counts @ logp) - (w @ w) / (2.0 * sigma2),
            grad - w / sigma2)


def mstep_curvature(space, w, counts, sigma2):
    """The Hessian of ``mstep_objective`` at ``w``, negated, as the function
    v -> -H v.

    -H = F^T blockdiag(T_k (diag p_k - p_k p_k^T)) F + I / sigma2, where F
    maps decisions to their features, p_k is context k's softmax and T_k its
    total count, so it is positive definite and one product costs what the
    gradient costs: a feature gather, one segment sum and one bincount.
    """
    p = np.exp(space._log_softmax(np.asarray(w, dtype=float)))
    tp = np.add.reduceat(counts, space.starts)[space.context_of] * p
    feats = space.feats

    def product(v):
        u = v[feats].sum(axis=1)
        s = np.add.reduceat(p * u, space.starts)[space.context_of]
        return (np.bincount(feats.ravel(),
                            weights=np.repeat(tp * (u - s), feats.shape[1]),
                            minlength=space.n_features)
                + v / sigma2)

    return product


@dataclasses.dataclass(frozen=True)
class MstepRun:
    """How one M-step's Newton run ended: Newton iterations taken, status
    (0 converged, 1 iteration limit reached, 2 line search found no
    decrease), message and the final gradient's largest magnitude."""

    iterations: int
    status: int
    message: str
    max_gradient: float

    @property
    def converged(self):
        return self.status == 0


def _newton_direction(product, g):
    """Truncated conjugate gradient on ``product(d) = -g`` (Nocedal &
    Wright, Numerical Optimization, 2nd ed., Algorithm 7.1), stopped at the
    forcing tolerance min(0.5, sqrt|g|) |g|."""
    norm = math.sqrt(g @ g)
    tol = min(0.5, math.sqrt(norm)) * norm
    z = np.zeros_like(g)
    r = g.copy()
    d = -r
    rr = r @ r
    for _ in range(len(g)):
        hd = product(d)
        curvature = d @ hd
        if curvature <= 0.0:  # -H is positive definite, so only when g = 0
            break
        alpha = rr / curvature
        z += alpha * d
        r += alpha * hd
        rr_next = r @ r
        if math.sqrt(rr_next) <= tol:
            break
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return z


def mstep(space, counts, w0, sigma2, maxiter=MSTEP_MAX_ITERATIONS):
    """Fit feature weights to expected counts, one per decision of
    ``space``'s flat layout, by line-search Newton-CG on the negated
    ``mstep_objective``.

    Each Newton direction comes from ``_newton_direction`` with the exact
    Hessian-vector product of ``mstep_curvature``; a step is the largest of
    1, 1/2, 1/4, ... that meets the Armijo condition.  The run converges
    when the Newton decrement -g.d is at most 4 eps max(1, |f|): the
    objective cannot then be improved beyond its rounding.  Returns
    (weights, MstepRun); raises ValueError on counts or initial weights
    that are not finite.
    """
    c = np.asarray(counts, dtype=float)
    w = np.array(w0, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(w).all()):
        raise ValueError("M-step needs finite expected counts and initial "
                         "weights")
    obj, grad = mstep_objective(space, w, c, sigma2)
    f, g = -obj, -grad
    floor = 4.0 * np.finfo(float).eps
    for it in range(maxiter):
        d = _newton_direction(mstep_curvature(space, w, c, sigma2), g)
        decrement = -(g @ d)
        if decrement <= floor * max(1.0, abs(f)):
            # take this last, tiny step too: the objective cannot see it,
            # but it squares the weights' error, so that counts equal up to
            # rounding give weights equal up to rounding
            w = w + d
            _, grad = mstep_objective(space, w, c, sigma2)
            return w, MstepRun(it + 1, 0, "converged",
                               float(np.abs(grad).max()))
        step = 1.0
        for _ in range(50):
            w_next = w + step * d
            obj, grad = mstep_objective(space, w_next, c, sigma2)
            if -obj <= f - 1e-4 * step * decrement:
                break
            step *= 0.5
        else:
            return w, MstepRun(it, 2, "line search found no decrease",
                               float(np.abs(g).max()))
        w, f, g = w_next, -obj, -grad
    return w, MstepRun(maxiter, 1, "iteration limit reached",
                       float(np.abs(g).max()))


# ---------------------------------------------------------------------------
# constraints


@dataclasses.dataclass(frozen=True)
class ConstraintSet:
    """Compiled linguistic restrictions applied during the E-step."""

    stop_one_tags: frozenset = frozenset()
    must_head_tags: frozenset = frozenset()
    root_mode: str = "none"  # one of ROOT_MODES

    def root_allowed(self, tags):
        """Allowed root positions, or None when unrestricted."""
        if self.root_mode == "none":
            return None
        verbs = {i + 1 for i, t in enumerate(tags) if t in VERB_ROOT_TAGS}
        nouns = {i + 1 for i, t in enumerate(tags) if t in UD_NOUN_TAGS}
        if self.root_mode == "verb-or-noun":
            allowed = verbs | nouns
            return allowed or None
        if self.root_mode == "verb-otherwise-noun":
            return verbs or nouns or None
        raise ValueError("unknown root mode %r" % self.root_mode)

    def blocked_positions(self, tags):
        """Positions whose token must head at least one dependent."""
        return frozenset(
            i + 1 for i, t in enumerate(tags) if t in self.must_head_tags
        )


# ---------------------------------------------------------------------------
# E-step
#
# An E-step prices one *corpus graph*: the disjoint union of the chart
# forests of every (tags, multiplicity) group, run as one inside-outside
# pass.  Each of its events names two decisions of a FeatureSpace layout and
# weighs the sum of their log-weights, plus the length bias for a real-head
# transition; the event's expected count goes to the same two decisions.
# ``CorpusGraph.prices`` appends two slots to the decision log-weights: slot
# ZERO, one past the decisions, weighs 0 and slot ZERO + 1 weighs -inf;
# counts landing on ZERO are dropped.  Decoding prices its graph the same
# way and runs it under the max semiring.

_UNTRAINED = "tag %r has no DMV parameters: the model was not trained on it"


# (length, DepthPolicy or None) -> forest
_FORESTS = {}
# DepthPolicy, or None for the head-split chart -> TranslationClasses
_CLASSES = {}


def clear_forest_cache():
    """Drop the cached forests and the translation-class tables they were
    laid out from."""
    _FORESTS.clear()
    _CLASSES.clear()


def _chart_forest(n, policy=None, must_head=False):
    """The cached DMV forest of length ``n`` of the chart that serves
    ``policy`` for a sentence with (``must_head``) or without a token that
    must head a dependent.

    With no depth bound and no must-head token every projective tree is
    admissible, so the head-split chart serves: it gives the same
    marginals, counts and Viterbi trees as the unbounded left-corner chart
    with far fewer edges.  Otherwise the left-corner chart does; its leaf
    marks (``sbg.leaf_mark``) let the corpus graph price the must-head
    constraint.  A forest depends only on the automata's structure, so one
    serves every sentence of its length and chart, and is re-priced per
    sentence.

    Every item but the goal ``("ROOT", n)`` has the same edges at every
    length, and a shifted item the edges shifted alike.  So every length's
    forest is laid out from one ``hypergraph.TranslationClasses`` table per
    chart and policy, which expands each item shape once.
    """
    if must_head or (policy is not None and policy.max_depth is not None):
        policy = policy or DepthPolicy()
    else:
        policy = None  # every unbounded policy shares the head-split forest
    key = (n, policy)
    forest = _FORESTS.get(key)
    if forest is None:
        classes = _CLASSES.get(policy)
        if classes is None:
            positions = (sbg.HEAD_SPLIT_POSITIONS if policy is None
                         else lc_chart.POSITIONS)
            classes = _CLASSES[policy] = hypergraph.TranslationClasses(
                lambda item: positions[item[0]], sbg.event_positions)
        sent = sbg.weighted_sentence_automata(n, lambda h, d: 0.0,
                                              lambda d: 0.0)
        expand = (sbg._eisner_expand(sent) if policy is None
                  else lc_chart._lc_expand(sent, policy))
        forest = _FORESTS[key] = classes.forest(("ROOT", n), expand, n)
    return forest


def _decision_logw(space, params):
    """Log-weight of every decision of ``space`` under ``params``: the log
    of its probability (-inf for zero), a continue decision's probability
    being one minus its stop's.  That loses digits as a stop probability
    nears 1, so models that have weights are priced from them instead
    (``_decision_prices``)."""
    out = []
    try:
        for field, key in space.keys:
            if field == "attach":
                p = params.attach[key[:2]].get(key[2], 0.0)
            elif field == "stop":
                p = params.stop[key]
            elif field == "cont":
                p = 1.0 - params.stop[key]
            else:
                p = params.root.get(key, 0.0)
            out.append(sbg._log(p))
    except KeyError:
        raise ValueError(_UNTRAINED % (key[0],)) from None
    return np.array(out)


class CorpusGraph:
    """The chart forests of some (tags, multiplicity) groups as one
    hypergraph, every event priced and counted in the FeatureSpace layout
    ``space``: what an E-step, the harmonic initialisation and a decode
    run on.

    The forests are the cached ones of ``policy``'s chart
    (``_chart_forest``), the left-corner chart for a group with a token
    ``cs`` says must head a dependent.  The constraints of ``cs`` and the
    length bias beta are folded into the prices here, once.  ``count_a``
    and ``count_b`` are the decisions an event's expected count goes to
    (ZERO for none): attach and continue for a real-head transition, stop
    for a final, the root choice for a root transition.  ``dist`` is
    |h - d| for a real-head transition, else 0.
    """

    def __init__(self, groups, space, policy=None, cs=None, length_bias=None):
        cs = cs or ConstraintSet()
        forests = [_chart_forest(len(tags), policy,
                                 bool(cs.blocked_positions(tags)))
                   for tags, _ in groups]
        self.groups = groups
        self.log_mult = np.log([float(mult) for _, mult in groups])
        zero = space.n_decisions
        tag_id = space.tag_id
        sizes = [len(f.events) for f in forests]
        kind, side, h, q, d = np.concatenate(
            [sbg._event_fields(f) for f in forests], axis=1)
        # each group's tag ids from position 0 to n+1, with -1 at 0 (no
        # dependent) and at the root position n+1
        try:
            tids = [t for tags, _ in groups
                    for t in (-1, *[tag_id[tag] for tag in tags], -1)]
        except KeyError as exc:
            raise ValueError(_UNTRAINED % (exc.args[0],)) from None
        lengths = np.array([len(tags) for tags, _ in groups], dtype=np.intp)
        pos = np.repeat(np.cumsum(lengths + 2) - lengths - 2, sizes)
        tids = np.array(tids, dtype=np.intp)
        ht, dt, adj = tids[pos + h], tids[pos + d], (q != 0).astype(np.intp)
        real = h <= np.repeat(lengths, sizes)
        trans = real & (kind == sbg._TRANS)
        final = real & (kind == sbg._FINAL)
        root = ~real & (kind == sbg._TRANS)
        a = np.full(len(kind), zero)
        b = np.full(len(kind), zero)
        a[trans] = space.attach_at[ht[trans], side[trans], dt[trans]]
        b[trans] = space.cont_at[ht[trans], side[trans], adj[trans]]
        a[final] = space.stop_at[ht[final], side[final], adj[final]]
        a[root] = space.root_at[dt[root]]
        self.forest = hypergraph.disjoint_union(forests)
        self.count_a, self.count_b = a, b
        self.dist = np.where(trans, np.abs(h - d), 0)
        # the two decisions that price each event: a head whose tag stops
        # at once finishes at weight 0 and continues at -inf, a leaf mark
        # weighs -inf on a token that must head a dependent (else 0), and a
        # root transition to a position the root restriction excludes
        # weighs -inf
        a, b = a.copy(), b.copy()
        stop_ids = [tag_id[t] for t in cs.stop_one_tags if t in tag_id]
        if stop_ids:
            stops = np.isin(ht, stop_ids)
            a[stops & final] = zero
            b[stops & trans] = zero + 1
        must_ids = [tag_id[t] for t in cs.must_head_tags if t in tag_id]
        if must_ids:
            a[(kind == sbg._LEAF) & np.isin(ht, must_ids)] = zero + 1
        base = np.cumsum([0] + sizes)
        for g, (tags, _) in enumerate(groups):
            allowed = cs.root_allowed(tags)
            if allowed is not None:
                lo, hi = base[g], base[g + 1]
                out = root[lo:hi] & ~np.isin(d[lo:hi], sorted(allowed))
                a[lo:hi][out] = zero + 1
        self._price_a, self._price_b = a, b
        self._bias = (-float(length_bias) * np.maximum(self.dist - 1, 0)
                      if length_bias else None)
        self._dep = d
        # an arc's head position, 0 for the root
        self._head = np.where(real, h, 0)
        self._lengths = lengths.tolist()
        self._count_at = np.concatenate((self.count_a, self.count_b))
        self._n_decisions = zero

    def prices(self, logw):
        """Log-weight of every event, given one log-weight per decision
        ``logw``: each event weighs ``logw[a] + logw[b]`` over its two
        pricing decisions (the 0 and -inf slots are appended here), plus
        -beta * (|h - d| - 1) for a real-head transition, so the root arc
        and adjacent arcs carry no bias.  The E-step and decoding both
        price events here."""
        logw = np.concatenate((logw, (0.0, NEG_INF)))
        eventw = logw[self._price_a] + logw[self._price_b]
        if self._bias is not None:
            eventw += self._bias
        return eventw

    def expectations(self, eventw):
        """(count per decision, log-likelihood, skipped sentence count)
        under event log-weights ``eventw``; a group whose log marginal is
        -inf or NaN is skipped."""
        logz, post = hypergraph.goal_posteriors(self.forest, eventw,
                                                self.log_mult)
        counts = np.bincount(self._count_at, weights=np.tile(post, 2),
                             minlength=self._n_decisions + 1)
        loglik = 0.0
        skipped = 0
        for (_, mult), z in zip(self.groups, logz.tolist()):
            if z == NEG_INF or math.isnan(z):
                skipped += mult
            else:
                loglik += mult * z
        return counts[:self._n_decisions], loglik, skipped

    def harmonic(self):
        """Counts per decision of one E-step where attaching positions h
        and d weighs 1/|h - d| and every other decision 1.  It reads only
        ``dist``, never the prices; the harmonic initialisation runs it on
        a graph over the head-split chart."""
        far = int(self.dist.max(initial=0))
        logw = [0.0] + [-math.log(k) for k in range(1, far + 1)]
        return self.expectations(np.array(logw)[self.dist])[0]

    def viterbi(self, eventw):
        """The heads of the best tree of every group under event
        log-weights ``eventw``, as ``sbg.forest_viterbi`` decodes one
        forest: ties prefer the smaller sorted arc list.  A group with no
        derivation of nonzero weight gets None."""
        return sbg._viterbi_heads(self.forest, eventw, self._dep, self._head,
                                  self._lengths)


def sentence_expectations(tags, params, cs, policy=None, length_bias=None):
    """(DmvCounts, log marginal) for one sentence, or (None, -inf) when the
    constraints leave no admissible analysis."""
    counts, logz, skipped = _expected_counts([(tuple(tags), 1)], params,
                                             cs, policy, length_bias)
    if skipped:
        return None, NEG_INF
    return counts, float(logz)


def estep(groups, params, cs, policy=None, length_bias=None):
    """Expected counts over a corpus of (tags, multiplicity) groups, from
    one inside-outside pass over their corpus graph.

    Returns (DmvCounts, log-likelihood, skipped sentence count).
    """
    return _expected_counts(groups, params, cs, policy, length_bias)


def _expected_counts(groups, params, cs, policy, length_bias):
    # the body of both E-step entries, so that timing either public
    # function never counts the other's calls inside it
    groups = list(groups)
    if not groups:
        return DmvCounts.zero(), 0.0, 0
    space = FeatureSpace({t for tags, _ in groups for t in tags})
    logw = _decision_logw(space, params)
    graph = CorpusGraph(groups, space, policy, cs, length_bias)
    counts, loglik, skipped = graph.expectations(graph.prices(logw))
    return space.dmv_counts(counts), loglik, skipped


# ---------------------------------------------------------------------------
# initialization


def corpus_groups(corpus):
    counter = collections.Counter(sbg._tag_sequences(corpus))
    return sorted(counter.items())


# ---------------------------------------------------------------------------
# training


@dataclasses.dataclass
class TrainConfig:
    init: str = "harmonic"  # harmonic | uniform
    depth_bound: int = None  # None = unbounded
    size_cutoff: int = 1
    length_bias: float = None
    root_constraint: str = "none"
    function_words: tuple = ()
    adp_head: bool = False
    em_iterations: int = 50
    sigma2: float = 10.0
    tol: float = 1e-6
    # EM runs in one process, so ``train`` accepts only 1.  The field stays
    # only for the benchmark's TrainConfig(jobs=1) call and goes with it in
    # the next benchmark change.
    jobs: int = 1

    def policy(self):
        if self.depth_bound is None:
            return None
        return DepthPolicy(self.depth_bound, self.size_cutoff)

    def constraint_set(self):
        return ConstraintSet(
            stop_one_tags=frozenset(self.function_words),
            must_head_tags=frozenset({"ADP"}) if self.adp_head else frozenset(),
            root_mode=self.root_constraint,
        )


@dataclasses.dataclass
class TrainedModel:
    space: FeatureSpace
    weights: np.ndarray
    params: DmvParams
    config: TrainConfig
    history: list  # (iteration, objective, skipped)
    # (iteration, MstepRun) of every M-step; iteration 0 is the fit to the
    # harmonic initialisation's counts
    mstep_runs: list = dataclasses.field(default_factory=list)
    # (iteration, E-step wall s, M-step wall s); iteration 0 is the harmonic
    # counts and their fit
    step_seconds: list = dataclasses.field(default_factory=list)


def train(corpus, cfg=None):
    """EM over a corpus of tag sequences (or trees).

    Each E-step is priced from the weights' log-softmax and each M-step
    fits its count vector; the DMV parameters are computed once, from the
    final weights.  The reported objective is the penalized constrained
    marginal log-likelihood of the parameters entering each iteration; it
    cannot decrease across iterations beyond numerical tolerance.
    """
    cfg = cfg or TrainConfig()
    if cfg.jobs != 1:
        raise ValueError("jobs must be 1: EM runs in one process, got %r"
                         % (cfg.jobs,))
    groups = corpus_groups(corpus)
    if not groups:
        raise ValueError("empty corpus")
    space = FeatureSpace({t for tags, _ in groups for t in tags})
    cs = cfg.constraint_set()
    policy = cfg.policy()
    w = np.zeros(space.n_features)
    mstep_runs = []
    step_seconds = []
    clock = time.perf_counter
    graph = None
    if cfg.init == "harmonic":
        t0 = clock()
        # the harmonic counts come from the head-split chart; when that is
        # also the E-steps' chart, the E-step graph serves both
        if policy is None and not cs.must_head_tags:
            graph = CorpusGraph(groups, space, None, cs, cfg.length_bias)
        counts = (graph or CorpusGraph(groups, space)).harmonic()
        t1 = clock()
        w, run = mstep(space, counts, w, cfg.sigma2)
        mstep_runs.append((0, run))
        step_seconds.append((0, t1 - t0, clock() - t1))
    elif cfg.init != "uniform":
        raise ValueError("unknown init %r" % cfg.init)
    history = []
    prev = None
    n_sentences = sum(mult for _, mult in groups)
    for it in range(1, cfg.em_iterations + 1):
        t0 = clock()
        # the E-step graph, unless the harmonic's serves, is built in the
        # first E-step's time
        graph = graph or CorpusGraph(groups, space, policy, cs,
                                     cfg.length_bias)
        counts, loglik, skipped = graph.expectations(
            graph.prices(space._log_softmax(w)))
        e_s = clock() - t0
        if skipped >= n_sentences:
            raise ValueError("every sentence has zero constrained mass")
        objective = loglik - float(w @ w) / (2.0 * cfg.sigma2)
        history.append((it, objective, skipped))
        t1 = clock()
        w, run = mstep(space, counts, w, cfg.sigma2)
        mstep_runs.append((it, run))
        step_seconds.append((it, e_s, clock() - t1))
        if prev is not None and abs(objective - prev) < cfg.tol:
            break
        prev = objective
    return TrainedModel(space, w, space.weights_to_params(w), cfg, history,
                        mstep_runs, step_seconds)


# ---------------------------------------------------------------------------
# decoding and evaluation


def decode(model, corpus):
    """Viterbi trees under the plain model (constraints are a training
    device; decoding is unconstrained): ``decode_constrained`` with an
    empty constraint set.  Raises ValueError naming the corpus index and
    tags of the first sentence that has no derivation of nonzero weight."""
    return _viterbi_trees(model, corpus, ConstraintSet())


def decode_constrained(model, corpus, cs, policy=None, length_bias=None):
    """Viterbi under the same restricted charts used in training; exposed so
    constraint soundness can be asserted on decoded trees.  Raises
    ValueError as ``decode`` does.

    ``model`` is a (FeatureSpace, weights) pair, priced as EM prices it,
    by the weights' log-softmax, or hand-made DmvParams."""
    return _viterbi_trees(model, corpus, cs, policy, length_bias)


def _decision_prices(model):
    """(FeatureSpace, log-weight per decision) of a decoder's ``model``: a
    (FeatureSpace, weights) pair, or DmvParams over the tagset of their
    root choice."""
    if isinstance(model, DmvParams):
        space = FeatureSpace(model.root)
        return space, _decision_logw(space, model)
    space, w = model
    return space, space._log_softmax(np.asarray(w, dtype=float))


def _viterbi_trees(model, corpus, cs, policy=None, length_bias=None):
    # the body of both decoders, so that timing either public function
    # never counts the other's calls inside it.  One max pass runs over the
    # corpus graph of the distinct tag sequences, priced as in the E-step.
    corpus = list(sbg._tag_sequences(corpus))
    if not corpus:
        return []
    groups = corpus_groups(corpus)
    space, logw = _decision_prices(model)
    graph = CorpusGraph(groups, space, policy, cs, length_bias)
    best = dict(zip([tags for tags, _ in groups],
                    graph.viterbi(graph.prices(logw))))
    for k, tags in enumerate(corpus):
        if best[tags] is None:
            raise ValueError("%s for sentence %d of the corpus, tags %r"
                             % (sbg.NO_DERIVATION, k, tags))
    trees = {tags: tree_from_heads(heads, tags=tags)
             for tags, heads in best.items()}
    return [trees[tags] for tags in corpus]


def evaluate_uas(predicted, gold, punct_tags=DEFAULT_PUNCT_TAGS):
    """Micro-averaged unlabeled attachment score (percentage).

    Tokens whose gold tag is punctuation are excluded; the root arc counts
    like any other (head 0 must match head 0).  The two corpora must hold
    the same number of trees.
    """
    if len(predicted) != len(gold):
        raise ValueError("corpus size mismatch: %d predicted vs %d gold"
                         % (len(predicted), len(gold)))
    correct = 0
    total = 0
    for ptree, gtree in zip(predicted, gold):
        if len(ptree.heads) != len(gtree.heads):
            raise ValueError(
                "tree length mismatch: %d vs %d"
                % (len(ptree.heads), len(gtree.heads))
            )
        for i, tag in enumerate(gtree.tags):
            if tag in punct_tags:
                continue
            total += 1
            if ptree.heads[i] == gtree.heads[i]:
                correct += 1
    if total == 0:
        raise ValueError("no scorable tokens")
    return 100.0 * correct / total


# ---------------------------------------------------------------------------
# sampling (for synthetic-recovery experiments)


def sample_dmv_tree(params, rng, max_tokens=40):
    """Draw one tree from a DMV; returns a DepTree or None if the draw
    exceeds max_tokens."""

    class _Overrun(Exception):
        pass

    budget = [max_tokens]

    def draw(dist):
        u = rng.random()
        acc = 0.0
        last = None
        for key, p in dist.items():
            acc += p
            last = key
            if u < acc:
                return key
        return last

    def gen(tag):
        budget[0] -= 1
        if budget[0] < 0:
            raise _Overrun
        node = {"tag": tag, "left": [], "right": []}
        for side in (LEFT, RIGHT):
            adj = True
            while True:
                if rng.random() < params.stop[tag, side, adj]:
                    break
                key = "left" if side == LEFT else "right"
                node[key].append(gen(draw(params.attach[tag, side])))
                adj = False
        return node

    try:
        root = gen(draw(params.root))
    except _Overrun:
        return None

    tags = []
    heads = []

    def linearize(node):
        # dependents were generated nearest-first, so the last left
        # dependent sits leftmost
        for child in reversed(node["left"]):
            linearize(child)
        node["pos"] = len(tags) + 1
        tags.append(node["tag"])
        heads.append(0)
        for child in node["right"]:
            linearize(child)

    linearize(root)

    def wire(node):
        for child in node["left"] + node["right"]:
            heads[child["pos"] - 1] = node["pos"]
            wire(child)

    wire(root)
    return tree_from_heads(tuple(heads), tags=tuple(tags))


# ---------------------------------------------------------------------------
# model files


def model_to_lines(model):
    """Serialize a trained model: header comments then featureKey<TAB>weight."""
    lines = ["# featurized-dmv v1"]
    lines.append("# tags: " + " ".join(model.space.tags))
    cfg = model.config
    pairs = []
    for field in dataclasses.fields(cfg):
        pairs.append("%s=%s" % (field.name, getattr(cfg, field.name)))
    lines.append("# config: " + " ".join(pairs))
    for key, fid in sorted(model.space.index.items()):
        lines.append(
            "%s\t%.17g" % (":".join(str(part) for part in key), model.weights[fid])
        )
    return lines


def model_from_lines(lines):
    """Rebuild (FeatureSpace, weights) from model_to_lines output.

    Every feature of the tagset needs a weight line and every weight line a
    feature of the tagset: a truncated or mismatched file raises ValueError
    naming the first feature key that is missing or unknown.
    """
    tags = None
    entries = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# tags:"):
                tags = line.split(":", 1)[1].split()
            continue
        key_s, tab, w_s = line.partition("\t")
        if not tab:
            raise ValueError("model line %d has no tab: %r" % (lineno, line))
        try:
            entries[key_s] = float(w_s)
        except ValueError:
            raise ValueError("model line %d has a weight that is not a "
                             "number: %r" % (lineno, line)) from None
    if tags is None:
        raise ValueError("model file missing tags header")
    space = FeatureSpace(tags)
    fids = {":".join(str(part) for part in key): fid
            for key, fid in space.index.items()}
    for key_s in entries:
        if key_s not in fids:
            raise ValueError("model file has unknown feature key %r" % key_s)
    for key_s in fids:
        if key_s not in entries:
            raise ValueError("model file has no weight for feature key %r"
                             % key_s)
    w = np.zeros(space.n_features)
    for key_s, fid in fids.items():
        w[fid] = entries[key_s]
    return space, w
