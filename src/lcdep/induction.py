"""Unsupervised dependency grammar induction.

A DMV whose multinomials are log-linear over shared back-off features,
trained with EM: the E-step computes expected decision counts under the
current parameters (optionally restricted by a stack-depth policy, a
dependency-length bias, and linguistic constraints), and the M-step fits the
feature weights to those counts with L-BFGS under a Gaussian prior.  The
M-step works on one flat layout of all softmax decisions (``FeatureSpace``):
the expected counts become one vector over it, and a single segment
log-softmax gives both the objective and the DMV probabilities.

Constraints follow the cost framing: they multiply tree weights by factors
in [0, 1] and are never renormalized, so the E-step posterior is simply the
restricted chart's posterior.  Decoding by default runs plain Viterbi under
the unconstrained model.
"""

import collections
import dataclasses
import math
from concurrent import futures

import numpy as np
from scipy import optimize

from . import lc_chart, sbg
from .hypergraph import NEG_INF
from .lc_chart import DepthPolicy
from .sbg import LEFT, RIGHT, DmvCounts, DmvParams
from .treebank import DEFAULT_PUNCT_TAGS, tree_from_heads

ROOT_HEAD = "$"
STOP = "stop"
CONTINUE = "continue"

ROOT_MODES = ("none", "verb-or-noun", "verb-otherwise-noun")
VERB_ROOT_TAGS = frozenset({"VERB"})
NOUN_ROOT_TAGS = frozenset({"NOUN", "PRON", "PROPN"})


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
        nouns = {i + 1 for i, t in enumerate(tags) if t in NOUN_ROOT_TAGS}
        if self.root_mode == "verb-or-noun":
            allowed = verbs | nouns
            return allowed or None
        if self.root_mode == "verb-otherwise-noun":
            return verbs or nouns or None
        raise ValueError("unknown root mode %r" % self.root_mode)

    def blocked_positions(self, tags):
        return frozenset(
            i + 1 for i, t in enumerate(tags) if t in self.must_head_tags
        )


def constrain_params(params, cs):
    """Copy of params with every stop probability of the flagged tags set to
    one, which removes all analyses where such a token heads anything."""
    if not cs.stop_one_tags:
        return params
    stop = dict(params.stop)
    for (h, side, adj) in list(stop):
        if h in cs.stop_one_tags:
            stop[h, side, adj] = 1.0
    return DmvParams(attach=params.attach, stop=stop, root=params.root)


def apply_constraints(params, tags, cs, length_bias=None):
    """Per-sentence automata with all active restrictions folded in.

    Returns (automata, blocked positions).  The length bias multiplies every
    real attachment by exp(-beta * (|h - d| - 1)); the root arc is never
    penalized, so a tree all of whose arcs are adjacent keeps its original
    weight exactly.
    """
    sent = sbg.dmv_sentence_automata(tags, constrain_params(params, cs))
    allowed = cs.root_allowed(tags)
    if allowed is not None:
        sent = sent.restrict_root(allowed)
    if length_bias:
        beta = float(length_bias)
        sent = sent.reweight(lambda h, d: -beta * (abs(h - d) - 1))
    return sent, cs.blocked_positions(tags)


# ---------------------------------------------------------------------------
# E-step


def _chart_forest(tags, sent, policy=None, blocked=()):
    """The cached forest of the chart that serves (policy, blocked).

    With no depth bound and no blocked position every projective tree is
    admissible, so the head-split chart serves: it gives the same
    marginals, counts and Viterbi trees as the unbounded left-corner chart
    with far fewer edges.  Otherwise the left-corner chart does.
    """
    if blocked or (policy is not None and policy.max_depth is not None):
        return lc_chart.lc_forest(sent, policy, blocked)
    return sbg._cached_forest("eisner", sent, None, frozenset(),
                              lambda: sbg.eisner_forest(tags, sent))


def sentence_expectations(tags, params, cs, policy=None, length_bias=None):
    """(DmvCounts, log marginal) for one sentence, or (None, -inf) when the
    constraints leave no admissible analysis."""
    sent, blocked = apply_constraints(params, tags, cs, length_bias)
    events, logz = sbg.forest_expected_counts(
        _chart_forest(tags, sent, policy, blocked), sent)
    if logz == NEG_INF or math.isnan(logz):
        return None, NEG_INF
    return sbg.dmv_counts_from_events(events, tags), logz


def _estep_chunk(args):
    groups, params, cs, policy, length_bias = args
    total = DmvCounts.zero()
    loglik = 0.0
    skipped = 0
    for tags, mult in groups:
        counts, logz = sentence_expectations(
            tags, params, cs, policy, length_bias
        )
        if counts is None:
            skipped += mult
            continue
        loglik += mult * logz
        total.merge(counts, mult)
    return total, loglik, skipped


def estep(groups, params, cs, policy=None, length_bias=None, jobs=1):
    """Expected counts over a corpus of (tags, multiplicity) groups.

    Returns (DmvCounts, log-likelihood, skipped sentence count).  Sentence
    expectations are independent given the read-only model, so the corpus is
    split into chunks merged by associative addition.
    """
    groups = list(groups)
    if jobs <= 1 or len(groups) < 2 * jobs:
        return _estep_chunk((groups, params, cs, policy, length_bias))
    chunks = [groups[k::jobs] for k in range(jobs)]
    total = DmvCounts.zero()
    loglik = 0.0
    skipped = 0
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(
            _estep_chunk,
            [(chunk, params, cs, policy, length_bias) for chunk in chunks],
        )
        for part, ll, sk in parts:
            total.merge(part)
            loglik += ll
            skipped += sk
    return total, loglik, skipped


# ---------------------------------------------------------------------------
# initialization


def corpus_groups(corpus):
    counter = collections.Counter(sbg._tag_sequences(corpus))
    return sorted(counter.items())


def harmonic_counts(groups):
    """Expected counts of one E-step where attaching positions i and j has
    weight 1/|i-j| and root and stop choices are uniform."""
    total = DmvCounts.zero()
    for tags, mult in groups:
        sent = sbg.weighted_sentence_automata(
            tags,
            attach_logw=lambda h, d: -math.log(abs(h - d)),
            root_logw=lambda d: 0.0,
        )
        events, _ = sbg.forest_expected_counts(_chart_forest(tags, sent),
                                               sent)
        total.merge(sbg.dmv_counts_from_events(events, tags), mult)
    return total


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


def train(corpus, cfg=None):
    """EM over a corpus of tag sequences (or trees).

    The reported objective is the penalized constrained marginal
    log-likelihood of the parameters entering each iteration; it cannot
    decrease across iterations beyond numerical tolerance.
    """
    cfg = cfg or TrainConfig()
    groups = corpus_groups(corpus)
    if not groups:
        raise ValueError("empty corpus")
    tagset = sorted({t for tags, _ in groups for t in tags})
    space = FeatureSpace(tagset)
    cs = cfg.constraint_set()
    policy = cfg.policy()
    w = np.zeros(space.n_features)
    mstep_runs = []
    if cfg.init == "harmonic":
        w, run = mstep(
            space, harmonic_counts(groups), w, cfg.sigma2,
            cfg.lbfgs_iterations,
        )
        mstep_runs.append((0, run))
    elif cfg.init != "uniform":
        raise ValueError("unknown init %r" % cfg.init)
    params = space.weights_to_params(w)
    history = []
    prev = None
    for it in range(1, cfg.em_iterations + 1):
        counts, loglik, skipped = estep(
            groups, params, cs, policy, cfg.length_bias, cfg.jobs
        )
        n_sentences = sum(mult for _, mult in groups)
        if skipped >= n_sentences:
            raise ValueError("every sentence has zero constrained mass")
        objective = loglik - float(w @ w) / (2.0 * cfg.sigma2)
        history.append((it, objective, skipped))
        w, run = mstep(space, counts, w, cfg.sigma2, cfg.lbfgs_iterations)
        mstep_runs.append((it, run))
        params = space.weights_to_params(w)
        if prev is not None and abs(objective - prev) < cfg.tol:
            break
        prev = objective
    return TrainedModel(space, w, params, cfg, history, mstep_runs)


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
    # never counts the other's calls inside it
    out = []
    for tags in sbg._tag_sequences(corpus):
        sent, blocked = apply_constraints(params, tags, cs, length_bias)
        out.append(sbg.forest_viterbi(
            _chart_forest(tags, sent, policy, blocked), sent, tags))
    return out


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
        entries[key_s] = float(w_s)
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
