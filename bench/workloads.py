"""The benchmark's workloads: inputs, timed phases and output checks.

Each workload draws its inputs from the seed (``make_inputs``, called by
``run.py``).  One round in a fresh worker process then trains and decodes
(``run_phases``) and, in the first round of a run, checks the outputs
(``check``).
"""

import random
import resource
import time

import checks
import corpus

INDUCE = ("induce-depth1",)
SUPERVISED = "supervised-lc"
WORKLOADS = INDUCE + (SUPERVISED,)

# Induction: a training corpus stratified by length, and a held-out set
# whose lengths 16-20 never occur in training, so decoding builds forests
# cold.  The held-out set is decoded twice: under the training depth bound
# and with the plain model.  Held-out sentences of at most BRUTE_MAX tokens
# are also checked against explicit enumeration.
TRAIN_LENGTHS = range(2, 16)
TRAIN_PER_LENGTH = 2
HELDOUT_LENGTHS = range(2, 21)
EM_ITERATIONS = 3
DEPTH_BOUND, SIZE_CUTOFF = 1, 3
BRUTE_MAX = 7

# Supervised: realistic lengths, mostly 10-40 tokens.
SUP_TRAIN_LENGTHS = tuple(range(6, 41, 2))
SUP_HELDOUT_LENGTHS = (9, 14, 20, 26, 32, 38)
EPOCHS = 3
BEAM = 8
DECODE_DEPTH, DECODE_RELAX = 2, 2


def make_inputs(workload, seed):
    """(train trees, held-out trees) drawn from the seed alone."""
    if workload in INDUCE:
        rng = random.Random("induce-%d" % seed)
        train = corpus.stratified(rng, TRAIN_LENGTHS, TRAIN_PER_LENGTH)
        # the model has no parameters for a tag it never saw in training
        seen = {t for tags, _ in train for t in tags}
        heldout = corpus.stratified(rng, HELDOUT_LENGTHS, 1, seen)
        return train, heldout
    if workload == SUPERVISED:
        rng = random.Random("supervised-%d" % seed)
        train = [corpus.sample_length(rng, n) for n in SUP_TRAIN_LENGTHS]
        heldout = [corpus.sample_length(rng, n) for n in SUP_HELDOUT_LENGTHS]
        return corpus.with_forms(rng, train), corpus.with_forms(rng, heldout)
    raise ValueError("unknown workload %r" % workload)


def phases(workload):
    """Names of the timed phases, in order; each is one operation."""
    if workload == SUPERVISED:
        return ("train", "parse-unbounded", "parse-depth%d" % DECODE_DEPTH)
    return ("train", "parse-depth%d" % DEPTH_BOUND, "parse-unbounded")


def _timed(stats, name, fn, *args, **kw):
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args, **kw)
    stats[name] = (time.perf_counter() - wall, time.process_time() - cpu)
    return out


def run_phases(workload, lcdep, train, heldout):
    """Train and decode the parsed corpora once.

    ``lcdep`` maps module names to the imported program modules.  Returns
    (phase times, decoded heads per parse phase, trained model); phase
    times are (wall s, cpu s) per phase name.
    """
    stats = {}
    if workload == SUPERVISED:
        sup = lcdep["supervised"]
        model = _timed(stats, "train", sup.train_perceptron, train,
                       system="leftCorner", feature_set=sup.FULL,
                       beam_size=BEAM, epochs=EPOCHS, seed=0)
        free = _timed(stats, "parse-unbounded", sup.decode_corpus,
                      heldout, model)
        bounded = _timed(stats, "parse-depth%d" % DECODE_DEPTH,
                         sup.decode_corpus, heldout, model,
                         depth_bound=DECODE_DEPTH,
                         depth_measure=sup.DEPTH_RE, relax_c=DECODE_RELAX)
        return stats, [[t.heads for t in free], [t.heads for t in bounded]], model

    ind = lcdep["induction"]
    model = _timed(stats, "train", ind.train, train, ind.TrainConfig(
        init="harmonic", em_iterations=EM_ITERATIONS, tol=0.0, jobs=1,
        depth_bound=DEPTH_BOUND, size_cutoff=SIZE_CUTOFF))
    cfg = model.config
    bounded = _timed(stats, "parse-depth%d" % DEPTH_BOUND,
                     ind.decode_constrained, model.params, heldout,
                     cfg.constraint_set(), cfg.policy())
    free = _timed(stats, "parse-unbounded", ind.decode, model.params, heldout)
    return stats, [[t.heads for t in bounded], [t.heads for t in free]], model


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(workload, lcdep, model, outputs, gold):
    """Problems found in one round's outputs; ``gold`` is the
    (train, held-out) pair that ``make_inputs`` drew."""
    if workload == SUPERVISED:
        return _check_supervised(gold, outputs)
    return _check_induction(lcdep, model, gold, outputs)


def lc_depth(lcdep, heads):
    """Relaxed reduce depth of a tree at the training cutoff, according to
    the program's left-corner oracle."""
    transition = lcdep["transition"]
    trace = transition.run_lc_oracle(lcdep["treebank"].tree_from_heads(heads))
    return transition.relaxed_depth_re_max(trace, SIZE_CUTOFF)


def _check_induction(lcdep, model, gold, decoded):
    ind, sbg = lcdep["induction"], lcdep["sbg"]
    exhaustive = lcdep["exhaustive"]
    problems = checks.em_errors(model.history, EM_ITERATIONS)

    cs, policy = model.config.constraint_set(), model.config.policy()
    train, heldout = gold
    counts, _, skipped = ind.estep(
        ind.corpus_groups([tags for tags, _ in train]), model.params, cs,
        policy)
    problems += checks.count_errors(
        sum(counts.attach.values()), sum(counts.root.values()),
        sum(counts.stop.values()), sum(len(tags) for tags, _ in train))
    if skipped:
        problems.append("E-step skipped %d sentences" % skipped)

    depths = {}

    def depth(heads):
        if heads not in depths:
            depths[heads] = lc_depth(lcdep, heads)
        return depths[heads]

    def admissible(heads):
        return depth(heads) <= DEPTH_BOUND

    bounded, free = decoded
    for k, (tags, gold_heads) in enumerate(heldout):
        what = "of held-out sentence %d" % k
        sent = sbg.dmv_sentence_automata(tags, model.params)
        gold_w = sbg.tree_log_weight(gold_heads, tags, sent)
        problems += checks.tree_errors(bounded[k])
        problems += checks.depth_errors(depth(bounded[k]), DEPTH_BOUND,
                                        bounded[k])
        if admissible(gold_heads):
            problems += checks.viterbi_errors(
                sbg.tree_log_weight(bounded[k], tags, sent), gold_w,
                "bounded " + what)
        problems += checks.tree_errors(free[k])
        problems += checks.viterbi_errors(
            sbg.tree_log_weight(free[k], tags, sent), gold_w,
            "unbounded " + what)
        if len(tags) <= BRUTE_MAX:
            weights = {h: sbg.tree_log_weight(h, tags, sent)
                       for h in exhaustive.projective_trees(len(tags))}
            _, logz = ind.sentence_expectations(tags, model.params, cs, policy)
            problems += checks.marginal_errors(logz, checks.logsumexp(
                [w for h, w in weights.items() if admissible(h)]),
                "bounded " + what)
            _, logz = sbg.eisner_inside(tags, sent)
            problems += checks.marginal_errors(
                logz, checks.logsumexp(list(weights.values())),
                "unbounded " + what)
    return problems


def _check_supervised(gold, outputs):
    gold = [tree[1] for tree in gold[1]]
    problems = []
    for name, decoded in zip(("unbounded", "depth-bounded"), outputs):
        for heads in decoded:
            problems += checks.tree_errors(heads)
        problems += checks.baseline_errors(decoded, gold, name)
    return problems


def tokens(trees):
    return sum(t.n for t in trees)


def throughputs(workload, train, heldout, stats):
    """(train tok/s, parse tok/s) of one round."""
    passes = EPOCHS if workload == SUPERVISED else EM_ITERATIONS
    train_tps = tokens(train) * passes / stats["train"][0]
    parse_s = sum(stats[p][0] for p in phases(workload)[1:])
    parse_tps = tokens(heldout) * (len(phases(workload)) - 1) / parse_s
    return train_tps, parse_tps
