"""Unsupervised dependency grammar induction.

A DMV whose multinomials are log-linear over shared back-off features,
trained with EM: the E-step computes expected decision counts under the
current parameters (optionally restricted by a stack-depth policy, a
dependency-length bias, and linguistic constraints), and the M-step fits the
feature weights to those counts with L-BFGS under a Gaussian prior.  Both
work on one flat layout of all softmax decisions (``FeatureSpace``): a
single segment log-softmax gives both the M-step objective and the DMV
probabilities, and the expected counts are one vector over the layout.

The E-step runs inside-outside once over a *corpus graph*
(``CorpusGraph``), the disjoint union of the chart forests of every
distinct tag sequence, whose levels run together.  The forests come from
the one forest cache (``_chart_forest``), which keeps one per sentence
length, depth policy and blocked positions.  Each event of the graph
is priced by gathering two decision log-weights (plus the length bias), and
its expected count lands on the same decisions, so no sentence's automata
are priced and no count dict is merged.  ``train`` assembles the graph once
and reuses it across its E-steps.

Constraints follow the cost framing: they multiply tree weights by factors
in [0, 1] and are never renormalized, so the E-step posterior is simply the
restricted chart's posterior.  They are priced in one place, the corpus
graph's index maps (``CorpusGraph.prices``), and decoding reuses them:
Viterbi runs the same graph and prices under the max semiring, once over
the distinct tag sequences to decode.  ``decode`` runs it under the
unconstrained model, ``decode_constrained`` under the training
restrictions.
"""

import collections
import dataclasses
import math
import time

import numpy as np
from scipy import optimize

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

    def count_vector(self, counts):
        """A DmvCounts as one count per decision of the flat layout."""
        return np.array([getattr(counts, field).get(key, 0.0)
                         for field, key in self.keys])

    def dmv_counts(self, vector):
        """The DmvCounts of one count per decision; zero counts are left
        out."""
        out = DmvCounts.zero()
        for (field, key), c in zip(self.keys, vector.tolist()):
            if c:
                getattr(out, field)[key] = c
        return out


def mstep_objective(space, w, counts, sigma2=10.0):
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


@dataclasses.dataclass(frozen=True)
class LbfgsRun:
    """How one M-step's L-BFGS run ended: scipy's iteration count, status
    (0 converged, 1 iteration or evaluation limit reached, 2 stopped for
    another reason) and message."""

    iterations: int
    status: int
    message: str

    @property
    def converged(self):
        return self.status == 0


def mstep(space, counts, w0, sigma2=10.0, maxiter=100):
    """Fit feature weights to expected counts (a DmvCounts) with L-BFGS.

    Returns (weights, LbfgsRun)."""
    c = space.count_vector(counts)

    def neg(w):
        obj, grad = mstep_objective(space, w, c, sigma2)
        return -obj, -grad

    res = optimize.minimize(
        neg,
        np.asarray(w0, dtype=float),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": 1e-13, "gtol": 1e-9},
    )
    return res.x, LbfgsRun(int(res.nit), int(res.status), str(res.message))


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
# Slot ZERO of the log-weight vector, one past the decisions, weighs 0 and
# slot ZERO + 1 weighs -inf; counts landing on ZERO are dropped.  Decoding
# runs the same graph and prices under the max semiring.

_UNTRAINED = "tag %r has no DMV parameters: the model was not trained on it"


# (length, DepthPolicy or None, blocked positions) -> forest
_FORESTS = {}
# DepthPolicy, or None for the head-split chart -> ExpansionMemo
_MEMOS = {}


def clear_forest_cache():
    """Drop the cached forests and the expansions they were taken from."""
    _FORESTS.clear()
    _MEMOS.clear()


def _chart_forest(n, policy=None, blocked=frozenset()):
    """The cached DMV forest of length ``n`` of the chart that serves
    (policy, blocked).

    With no depth bound and no blocked position every projective tree is
    admissible, so the head-split chart serves: it gives the same
    marginals, counts and Viterbi trees as the unbounded left-corner chart
    with far fewer edges.  Otherwise the left-corner chart does.  A forest
    depends only on the automata's structure, so one serves every sentence
    of its length and is re-priced per sentence.

    Only the root position's items depend on n, so with no blocked position
    every length's forest is taken from one ``hypergraph.ExpansionMemo`` per
    chart and policy, which expands each shared item once.  Blocked
    positions change the expansions, so a blocked set gets a build of its
    own.
    """
    blocked = frozenset(blocked)
    if blocked or (policy is not None and policy.max_depth is not None):
        policy = policy or DepthPolicy()
    else:
        policy = None  # every unbounded policy shares the head-split forest
    key = (n, policy, blocked)
    forest = _FORESTS.get(key)
    if forest is None:
        memo = (None if blocked
                else _MEMOS.setdefault(policy, hypergraph.ExpansionMemo()))
        sent = sbg.weighted_sentence_automata(n, lambda h, d: 0.0,
                                              lambda d: 0.0)
        if policy is None:
            forest = sbg.eisner_forest(sent, memo)
        else:
            forest = lc_chart.lc_forest(sent, policy, blocked, memo)
        _FORESTS[key] = forest
    return forest


def _decision_logw(space, params):
    """Log-weight of every decision of ``space`` under ``params``: the log
    of its probability (-inf for zero), a continue decision's probability
    being one minus its stop's; then the 0 and -inf slots."""
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
    return np.array(out + [0.0, NEG_INF])


class CorpusGraph:
    """The chart forests of some (tags, multiplicity) groups as one
    hypergraph, with every event's decisions in a FeatureSpace layout.

    ``count_a`` and ``count_b`` are the decisions an event's expected count
    goes to (ZERO for none): attach and continue for a real-head
    transition, stop for a final, the root choice for a root transition.
    Without constraints they also price the event; ``prices`` folds the
    constraints in.  ``dist`` is |h - d| for a real-head transition, else
    0.
    """

    def __init__(self, groups, forests, space):
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
        self._head_tag, self._dep, self._trans, self._final, self._root = (
            ht, d, trans, final, root)
        # an arc's head position, 0 for the root
        self._head = np.where(real, h, 0)
        self._lengths = lengths.tolist()
        self._event_base = np.cumsum([0] + sizes)
        self._count_at = np.concatenate((self.count_a, self.count_b))
        self._n_decisions = zero
        self._tag_id = tag_id
        self._prices = None

    def prices(self, logw, cs, length_bias=None):
        """Log-weight of every event, given the decision log-weights
        ``logw`` (``_decision_logw``), constraint set ``cs`` and length
        bias beta: each event weighs ``logw[a] + logw[b]`` over its two
        pricing decisions (``_price_maps``), plus -beta * (|h - d| - 1) for
        a real-head transition, so the root arc and adjacent arcs carry no
        bias.  The E-step and decoding both price events here."""
        a, b = self._price_maps(cs)
        eventw = logw[a] + logw[b]
        if length_bias:
            eventw += -float(length_bias) * np.maximum(self.dist - 1, 0)
        return eventw

    def _price_maps(self, cs):
        """The two decisions that price each event under ``cs``: a head
        whose tag stops at once finishes at weight 0 and continues at -inf,
        and a root transition to a position the root restriction excludes
        weighs -inf."""
        if self._prices is not None and self._prices[0] == cs:
            return self._prices[1:]
        zero = self._n_decisions
        a, b = self.count_a.copy(), self.count_b.copy()
        stop_ids = [self._tag_id[t] for t in cs.stop_one_tags
                    if t in self._tag_id]
        if stop_ids:
            stops = np.isin(self._head_tag, stop_ids)
            a[stops & self._final] = zero
            b[stops & self._trans] = zero + 1
        for g, (tags, _) in enumerate(self.groups):
            allowed = cs.root_allowed(tags)
            if allowed is None:
                continue
            lo, hi = self._event_base[g], self._event_base[g + 1]
            out = self._root[lo:hi] & ~np.isin(self._dep[lo:hi],
                                               sorted(allowed))
            a[lo:hi][out] = zero + 1
        self._prices = (cs, a, b)
        return a, b

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

    def viterbi(self, eventw):
        """The heads of the best tree of every group under event
        log-weights ``eventw``, as ``sbg.forest_viterbi`` decodes one
        forest: ties prefer the smaller sorted arc list.  Raises ValueError
        when a group has no derivation of nonzero weight."""
        return sbg._viterbi_heads(self.forest, eventw, self._dep, self._head,
                                  self._lengths)


class CorpusGroups:
    """The (tags, multiplicity) groups of a corpus with the FeatureSpace of
    their tagset and the corpus graph of their last E-step.

    ``estep`` and ``harmonic_counts`` given this object reuse its graph for
    as long as the chart (depth policy and blocked tags) stays the same, so
    ``train`` assembles a corpus graph once per chart.
    """

    def __init__(self, groups, space=None):
        self.groups = list(groups)
        self.space = space or FeatureSpace(
            {t for tags, _ in self.groups for t in tags})
        self._key = None
        self._graph = None

    def graph(self, policy=None, cs=None):
        """The corpus graph of every group over the charts of ``policy``
        and the positions ``cs`` blocks (``ConstraintSet.blocked_positions``;
        None blocks none).  The other constraints of ``cs`` act on prices,
        not on the graph."""
        cs = cs or ConstraintSet()
        key = (policy, cs.must_head_tags)
        if key != self._key:
            self._graph = None  # the old graph's arrays go before the new
            self._graph = CorpusGraph(
                self.groups, _forests(self.groups, policy, cs), self.space)
            self._key = key
        return self._graph

    def expectations(self, params, cs, policy=None, length_bias=None):
        """(count per decision of ``space``, log-likelihood, skipped
        sentence count) of one E-step."""
        if not self.groups:
            return np.zeros(self.space.n_decisions), 0.0, 0
        logw = _decision_logw(self.space, params)
        graph = self.graph(policy, cs)
        return graph.expectations(graph.prices(logw, cs, length_bias))

    def harmonic(self):
        """Counts per decision of one E-step over the head-split chart where
        attaching positions h and d weighs 1/|h - d| and every other
        decision 1."""
        if not self.groups:
            return np.zeros(self.space.n_decisions)
        graph = self.graph()
        far = int(graph.dist.max(initial=0))
        logw = [0.0] + [-math.log(k) for k in range(1, far + 1)]
        return graph.expectations(np.array(logw)[graph.dist])[0]


def _forests(groups, policy, cs):
    """The cached chart forest of every group under ``policy`` and the
    positions ``cs`` blocks."""
    return [_chart_forest(len(tags), policy, cs.blocked_positions(tags))
            for tags, _ in groups]


def sentence_expectations(tags, params, cs, policy=None, length_bias=None):
    """(DmvCounts, log marginal) for one sentence, or (None, -inf) when the
    constraints leave no admissible analysis."""
    groups = CorpusGroups([(tuple(tags), 1)])
    counts, logz, skipped = groups.expectations(params, cs, policy,
                                                length_bias)
    if skipped:
        return None, NEG_INF
    return groups.space.dmv_counts(counts), float(logz)


def estep(groups, params, cs, policy=None, length_bias=None):
    """Expected counts over a corpus of (tags, multiplicity) groups, from
    one inside-outside pass over their corpus graph.

    Returns (DmvCounts, log-likelihood, skipped sentence count).  Given a
    CorpusGroups, the E-step reuses its corpus graph.
    """
    if not isinstance(groups, CorpusGroups):
        groups = CorpusGroups(groups)
    counts, loglik, skipped = groups.expectations(
        params, cs, policy, length_bias)
    return groups.space.dmv_counts(counts), loglik, skipped


# ---------------------------------------------------------------------------
# initialization


def corpus_groups(corpus):
    counter = collections.Counter(sbg._tag_sequences(corpus))
    return sorted(counter.items())


def harmonic_counts(groups):
    """Expected counts of one E-step where attaching positions i and j has
    weight 1/|i-j| and root and stop choices are uniform."""
    if not isinstance(groups, CorpusGroups):
        groups = CorpusGroups(groups)
    return groups.space.dmv_counts(groups.harmonic())


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
    lbfgs_iterations: int = 100
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
    # (iteration, LbfgsRun) of every M-step; iteration 0 is the fit to the
    # harmonic initialisation's counts
    mstep_runs: list = dataclasses.field(default_factory=list)
    # (iteration, E-step wall s, M-step wall s); iteration 0 is the harmonic
    # counts and their fit
    step_seconds: list = dataclasses.field(default_factory=list)


def train(corpus, cfg=None):
    """EM over a corpus of tag sequences (or trees).

    The reported objective is the penalized constrained marginal
    log-likelihood of the parameters entering each iteration; it cannot
    decrease across iterations beyond numerical tolerance.
    """
    cfg = cfg or TrainConfig()
    if cfg.jobs != 1:
        raise ValueError("jobs must be 1: EM runs in one process, got %r"
                         % (cfg.jobs,))
    groups = CorpusGroups(corpus_groups(corpus))
    if not groups.groups:
        raise ValueError("empty corpus")
    space = groups.space
    cs = cfg.constraint_set()
    policy = cfg.policy()
    w = np.zeros(space.n_features)
    mstep_runs = []
    step_seconds = []
    clock = time.perf_counter
    if cfg.init == "harmonic":
        t0 = clock()
        counts = harmonic_counts(groups)
        t1 = clock()
        w, run = mstep(space, counts, w, cfg.sigma2, cfg.lbfgs_iterations)
        mstep_runs.append((0, run))
        step_seconds.append((0, t1 - t0, clock() - t1))
    elif cfg.init != "uniform":
        raise ValueError("unknown init %r" % cfg.init)
    params = space.weights_to_params(w)
    history = []
    prev = None
    n_sentences = sum(mult for _, mult in groups.groups)
    for it in range(1, cfg.em_iterations + 1):
        t0 = clock()
        counts, loglik, skipped = estep(
            groups, params, cs, policy, cfg.length_bias
        )
        e_s = clock() - t0
        if skipped >= n_sentences:
            raise ValueError("every sentence has zero constrained mass")
        objective = loglik - float(w @ w) / (2.0 * cfg.sigma2)
        history.append((it, objective, skipped))
        t1 = clock()
        w, run = mstep(space, counts, w, cfg.sigma2, cfg.lbfgs_iterations)
        mstep_runs.append((it, run))
        step_seconds.append((it, e_s, clock() - t1))
        params = space.weights_to_params(w)
        if prev is not None and abs(objective - prev) < cfg.tol:
            break
        prev = objective
    return TrainedModel(space, w, params, cfg, history, mstep_runs,
                        step_seconds)


# ---------------------------------------------------------------------------
# decoding and evaluation


def decode(params, corpus):
    """Viterbi trees under the plain model (constraints are a training
    device; decoding is unconstrained): ``decode_constrained`` with an
    empty constraint set."""
    return _viterbi_trees(params, corpus, ConstraintSet())


def decode_constrained(params, corpus, cs, policy=None, length_bias=None):
    """Viterbi under the same restricted charts used in training; exposed so
    constraint soundness can be asserted on decoded trees."""
    return _viterbi_trees(params, corpus, cs, policy, length_bias)


def _viterbi_trees(params, corpus, cs, policy=None, length_bias=None):
    # the body of both decoders, so that timing either public function
    # never counts the other's calls inside it.  One max pass runs over the
    # corpus graph of the distinct tag sequences, priced as in the E-step
    # over the FeatureSpace of the model's tagset.
    corpus = list(sbg._tag_sequences(corpus))
    if not corpus:
        return []
    groups = CorpusGroups(corpus_groups(corpus), FeatureSpace(params.root))
    graph = groups.graph(policy, cs)
    eventw = graph.prices(_decision_logw(groups.space, params), cs,
                          length_bias)
    trees = {tags: tree_from_heads(heads, tags=tags) for (tags, _), heads
             in zip(groups.groups, graph.viterbi(eventw))}
    return [trees[tags] for tags in corpus]


def evaluate_uas(predicted, gold, punct_tags=DEFAULT_PUNCT_TAGS):
    """Micro-averaged unlabeled attachment score (percentage).

    Tokens whose gold tag is punctuation are excluded; the root arc counts
    like any other (head 0 must match head 0).
    """
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
