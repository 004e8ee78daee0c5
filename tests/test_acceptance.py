"""End-to-end acceptance checks for the package's core guarantees.

Every test covers one numbered guarantee, recomputes it from scratch against
an independent reference (exhaustive enumeration, brute-force summation,
finite differences, or planted data), and prints exactly one

    criterion NN: PASS/FAIL (details)

line so the whole gate can be read off a captured run (``pytest -rA``).
The two corpus-dependent checks skip cleanly when their data environment
variables are unset.
"""

import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from lcdep import induction, sbg, supervised
from lcdep.analysis import coverage_report, prepare_corpus
from lcdep.cfg import (
    binarize_dependency,
    embedding_degree,
    max_depth_after_reduce,
    parse_from_shape,
    pre_shift_depths,
    simulate_pda,
    token_embedding_degree,
)
from lcdep.exhaustive import cnf_shapes, projective_deptrees, projective_trees
from lcdep.hypergraph import NEG_INF
from lcdep.induction import ConstraintSet, FeatureSpace, TrainConfig, mstep_objective
from lcdep.lc_chart import DepthPolicy, lc_forest
from lcdep.sbg import forest_expected_counts, forest_inside
from lcdep.transition import (
    ARC_STANDARD,
    LEFT_CORNER,
    depth_re_max,
    initial_config,
    lc_apply,
    postprocess_terminal,
    relaxed_depth_re_max,
    run_lc_oracle,
    valid_lc_actions,
)
from lcdep.treebank import parse_conll, strip_punctuation, tree_from_heads
from tests import util

VOCAB = ("D", "N", "V")


def _report(num, ok, detail=""):
    line = "criterion %02d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def _skip(num, reason):
    print("criterion %02d: SKIP (%s)" % (num, reason))
    pytest.skip(reason)


def _random_tags(n, rng):
    return tuple(rng.choice(VOCAB) for _ in range(n))


# ---------------------------------------------------------------------------
# 1-2: pushdown simulation of binary parses


def test_criterion_01_reduce_depth_equals_embedding_degree():
    t0 = time.time()
    checked = bad = 0
    for n in range(1, 7):
        for shape in cnf_shapes(n):
            parse = parse_from_shape(shape)
            trace = simulate_pda(parse, "main")
            if max_depth_after_reduce(trace) - 1 != embedding_degree(parse):
                bad += 1
            checked += 1
    elapsed = time.time() - t0
    _report(
        1,
        bad == 0 and elapsed < 60.0,
        "%d parses up to 6 terminals, %d mismatches, %.1fs" % (checked, bad, elapsed),
    )


def test_criterion_02_pre_shift_depth_equals_token_degree_plus_one():
    checked = bad = 0
    for n in range(1, 7):
        for shape in cnf_shapes(n):
            parse = parse_from_shape(shape)
            trace = simulate_pda(parse, "main")
            for pos, depth in pre_shift_depths(trace):
                if pos == 1:
                    continue  # the stack is empty before the first shift
                if depth != token_embedding_degree(parse, pos) + 1:
                    bad += 1
                checked += 1
    _report(2, bad == 0, "%d non-initial tokens, %d mismatches" % (checked, bad))


# ---------------------------------------------------------------------------
# 3-4: transition oracle on exhaustively enumerated dependency trees


def test_criterion_03_oracle_covers_every_projective_tree():
    expected_counts = {1: 1, 2: 2, 3: 7}
    bad_len = bad_replay = checked = 0
    distinct_ok = True
    for n in range(1, 9):
        trees = projective_deptrees(n)
        traces = set()
        for tree in trees:
            actions = tuple(s.action for s in run_lc_oracle(tree).steps)
            traces.add(actions)
            if len(actions) != 2 * n - 1:
                bad_len += 1
            config = initial_config(n)
            for action in actions:
                if action not in valid_lc_actions(config):
                    bad_replay += 1
                    break
                config = lc_apply(config, action)
            else:
                if not config.is_terminal or postprocess_terminal(config) != tree.heads:
                    bad_replay += 1
            checked += 1
        if len(traces) != len(trees):
            distinct_ok = False
        if n in expected_counts and len(traces) != expected_counts[n]:
            distinct_ok = False
    _report(
        3,
        bad_len == 0 and bad_replay == 0 and distinct_ok,
        "%d trees up to 8 tokens, %d length errors, %d replay errors, "
        "distinct sequences per length match tree counts" % (checked, bad_len, bad_replay),
    )


def test_criterion_04_reduce_depth_matches_binarization_and_bounded_counts():
    bad_degree = checked = 0
    for n in range(1, 8):
        for tree in projective_deptrees(n):
            trace = run_lc_oracle(tree)
            if depth_re_max(trace) - 1 != embedding_degree(binarize_dependency(tree)):
                bad_degree += 1
            checked += 1

    params = sbg.uniform_dmv_params(("N",))
    bad_count = 0
    grid = 0
    for n in range(1, 7):
        tags = ("N",) * n
        sent = sbg.dmv_sentence_automata(tags, params)
        heads = projective_trees(n)
        depths = {}
        for cutoff in (1, 2, 3):
            for h in heads:
                depths[h, cutoff] = relaxed_depth_re_max(
                    run_lc_oracle(tree_from_heads(h)), cutoff
                )
        for bound in (1, 2, 3):
            for cutoff in (1, 2, 3):
                admissible = sum(1 for h in heads if depths[h, cutoff] <= bound)
                _, counted = forest_inside(
                    lc_forest(sent, DepthPolicy(bound, cutoff)), sent, "count")
                if counted != admissible:
                    bad_count += 1
                grid += 1
    _report(
        4,
        bad_degree == 0 and bad_count == 0,
        "%d trees up to 7 tokens, %d degree mismatches; "
        "%d (bound, cutoff, length) cells, %d count mismatches"
        % (checked, bad_degree, grid, bad_count),
    )


# ---------------------------------------------------------------------------
# 5-6: left-corner chart vs cubic chart and brute force


def test_criterion_05_unbounded_marginals_agree_everywhere():
    rng = random.Random(501)
    worst = 0.0
    models = 0
    for n in range(2, 7):
        for _ in range(20):
            tags = _random_tags(n, rng)
            sent = sbg.dmv_sentence_automata(tags, sbg.random_dmv_params(VOCAB, rng))
            _, lc = forest_inside(lc_forest(sent), sent)
            _, ei = sbg.eisner_inside(tags, sent)
            bf = sbg.brute_force_marginal(tags, sent)
            worst = max(worst, abs(lc - ei), abs(lc - bf))
            models += 1

    def derivations(n):
        sent = sbg.dmv_sentence_automata(("N",) * n, sbg.uniform_dmv_params(("N",)))
        return forest_inside(lc_forest(sent), sent, "count")[1]

    count_ok = all(derivations(n) == len(projective_trees(n)) for n in range(1, 7))
    _report(
        5,
        worst <= 1e-10 and count_ok,
        "%d random models, max log-marginal gap %.2e; derivation counts exact to 6 tokens"
        % (models, worst),
    )


def test_criterion_06_bounded_expectations_and_em_monotonicity():
    rng = random.Random(601)
    worst = 0.0
    cells = 0
    for n in range(2, 6):
        for _ in range(2):
            tags = _random_tags(n, rng)
            sent = sbg.dmv_sentence_automata(tags, sbg.random_dmv_params(VOCAB, rng))
            depths = {
                (h, cutoff): relaxed_depth_re_max(run_lc_oracle(tree_from_heads(h)), cutoff)
                for h in projective_trees(n)
                for cutoff in (1, 2, 3)
            }
            for bound in (1, 2):
                for cutoff in (1, 2, 3):
                    got, logz = forest_expected_counts(
                        lc_forest(sent, DepthPolicy(bound, cutoff)), sent)
                    got = util.without_leaf_marks(got)
                    want, wlogz = sbg.brute_force_expected_counts(
                        tags, sent, tree_filter=lambda h: depths[h, cutoff] <= bound
                    )
                    cells += 1
                    if wlogz == NEG_INF:
                        worst = max(worst, 0.0 if logz == NEG_INF else math.inf)
                        continue
                    worst = max(worst, abs(logz - wlogz))
                    for k in set(got) | set(want):
                        worst = max(worst, abs(got.get(k, 0.0) - want.get(k, 0.0)))

    drops = 0
    corpora = 0
    for seed in range(20):
        crng = random.Random(1000 + seed)
        corpus = [
            _random_tags(crng.randint(1, 6), crng) for _ in range(8)
        ]
        params = sbg.random_dmv_params(VOCAB, crng)
        prev = None
        for _ in range(10):
            params, loglik = util.em_step(corpus, params)
            if prev is not None and loglik < prev - 1e-6:
                drops += 1
            prev = loglik
        corpora += 1
    _report(
        6,
        worst <= 1e-8 and drops == 0,
        "%d bounded cells, max expectation gap %.2e; %d corpora, %d likelihood drops"
        % (cells, worst, corpora, drops),
    )


# ---------------------------------------------------------------------------
# 7-8: featurized parameterization


def test_criterion_07_mstep_gradient_matches_finite_differences():
    space = FeatureSpace(list(VOCAB))
    nprng = np.random.default_rng(7)
    cvecs = nprng.uniform(0.0, 3.0, size=space.n_decisions)
    worst = 0.0
    for scale in (0.0, 0.5):
        w = nprng.standard_normal(space.n_features) * scale
        _, grad = mstep_objective(space, w, cvecs, sigma2=10.0)
        h = 1e-5
        for i in range(space.n_features):
            wp = w.copy()
            wp[i] += h
            wm = w.copy()
            wm[i] -= h
            op, _ = mstep_objective(space, wp, cvecs, sigma2=10.0)
            om, _ = mstep_objective(space, wm, cvecs, sigma2=10.0)
            fd = (op - om) / (2.0 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
            worst = max(worst, rel)
    _report(
        7,
        worst <= 1e-4,
        "%d coordinates at two points, max relative error %.2e"
        % (2 * space.n_features, worst),
    )


def test_criterion_08_length_bias_is_an_exact_reweighting():
    rng = random.Random(801)
    worst = 0.0
    trees = 0
    cs = ConstraintSet()
    for n in range(2, 6):
        tags = _random_tags(n, rng)
        params = sbg.random_dmv_params(VOCAB, rng)
        plain = sbg.dmv_sentence_automata(tags, params)
        for beta in (0.1, 1.0):
            biased = util.apply_constraints(params, tags, cs, length_bias=beta)
            for heads in projective_trees(n):
                dist = sum(
                    1 if heads[d - 1] == 0 else abs(heads[d - 1] - d)
                    for d in range(1, n + 1)
                )
                want = sbg.tree_log_weight(heads, tags, plain) - beta * (dist - n)
                got = sbg.tree_log_weight(heads, tags, biased)
                worst = max(worst, abs(got - want))
                trees += 1
    _report(8, worst <= 1e-10, "%d (tree, beta) pairs, max log gap %.2e" % (trees, worst))


# ---------------------------------------------------------------------------
# 9: grammar induction recovers planted grammars


def _planted_params():
    p = sbg.uniform_dmv_params(VOCAB)
    p.root = {"D": 0.0, "N": 0.05, "V": 0.95}
    p.attach[("V", "L")] = {"D": 0.0, "N": 1.0, "V": 0.0}
    p.attach[("V", "R")] = {"D": 0.05, "N": 0.95, "V": 0.0}
    p.attach[("N", "L")] = {"D": 1.0, "N": 0.0, "V": 0.0}
    p.attach[("N", "R")] = {"D": 1.0, "N": 0.0, "V": 0.0}
    p.attach[("D", "L")] = {"D": 1.0, "N": 0.0, "V": 0.0}
    p.attach[("D", "R")] = {"D": 1.0, "N": 0.0, "V": 0.0}
    for adj in (True, False):
        p.stop[("D", "L", adj)] = 1.0
        p.stop[("D", "R", adj)] = 1.0
    p.stop[("N", "R", True)] = 0.85
    p.stop[("N", "R", False)] = 1.0
    p.stop[("N", "L", True)] = 0.5
    p.stop[("N", "L", False)] = 0.8
    p.stop[("V", "L", True)] = 0.25
    p.stop[("V", "L", False)] = 0.9
    p.stop[("V", "R", True)] = 0.5
    p.stop[("V", "R", False)] = 0.85
    return p


def _sample_corpus(seed, count, max_tokens=10, shallow=False):
    """Sentences from the planted grammar; optionally rejection-sample down
    to trees whose relaxed reduce-depth at cutoff 3 never exceeds one."""
    rng = random.Random(seed)
    params = _planted_params()
    out = []
    rejected = 0
    while len(out) < count:
        tree = induction.sample_dmv_tree(params, rng, max_tokens=max_tokens)
        if tree is None or tree.n < 2:
            continue
        if shallow and relaxed_depth_re_max(run_lc_oracle(tree), 3) > 1:
            rejected += 1
            continue
        out.append(tree)
    return out, rejected


def test_criterion_09_induction_recovers_planted_grammars():
    corpus_a, _ = _sample_corpus(20240915, 500)
    model_a = induction.train(corpus_a, TrainConfig(init="harmonic", em_iterations=50))
    uas_a = induction.evaluate_uas(induction.decode(model_a.params, corpus_a), corpus_a)

    corpus_b, rejected = _sample_corpus(424242, 500, shallow=True)
    cfg_b = TrainConfig(
        init="harmonic", depth_bound=1, size_cutoff=3, em_iterations=50
    )
    model_b = induction.train(corpus_b, cfg_b)
    uas_b = induction.evaluate_uas(induction.decode(model_b.params, corpus_b), corpus_b)

    _report(
        9,
        uas_a >= 95.0 and uas_b >= 93.0 and abs(uas_a - uas_b) <= 2.0,
        "unconstrained %.2f UAS (>= 95); depth-bounded %.2f UAS on shallow corpus "
        "(>= 93, within 2 points; %d deeper samples rejected)"
        % (uas_a, uas_b, rejected),
    )


# ---------------------------------------------------------------------------
# 10: supervised parsing with bounded stack depth


def _sent(tags, heads):
    return tree_from_heads(heads, tags=tags, forms=tuple(t.lower() for t in tags))


def _toy_corpus():
    data = [
        (("N", "V"), (2, 0)),
        (("V", "N"), (0, 1)),
        (("N", "V", "N"), (2, 0, 2)),
        (("N", "N", "V"), (3, 3, 0)),
        (("V", "N", "N"), (0, 1, 1)),
        (("V", "V"), (0, 1)),
        (("N", "V", "V"), (2, 0, 2)),
        (("V", "N", "V"), (0, 1, 1)),
        (("N", "V", "N", "N"), (2, 0, 2, 2)),
        (("N", "N", "V", "N"), (3, 3, 0, 3)),
    ]
    return [_sent(tags, heads) for tags, heads in data]


def _depth_one_corpus(seed, count):
    trees, _ = _sample_corpus(seed, count, max_tokens=9, shallow=True)
    return [
        tree_from_heads(t.heads, tags=t.tags, forms=tuple(tag.lower() for tag in t.tags))
        for t in trees
    ]


def test_criterion_10_perceptron_fits_and_depth_bound_is_benign():
    toy = _toy_corpus()
    model = supervised.train_perceptron(toy, epochs=5, seed=0)
    toy_uas = induction.evaluate_uas(supervised.decode_corpus(toy, model), toy)

    train = _depth_one_corpus(99, 40)
    test = _depth_one_corpus(100, 12)
    lc = supervised.train_perceptron(
        train, system=LEFT_CORNER, epochs=8, beam_size=4, seed=0
    )
    as_ = supervised.train_perceptron(
        train, system=ARC_STANDARD, epochs=8, beam_size=4, seed=0
    )

    def uas(model, **kw):
        return induction.evaluate_uas(supervised.decode_corpus(test, model, **kw), test)

    lc_loss = uas(lc) - uas(lc, depth_bound=2, depth_measure=supervised.DEPTH_RE)
    as_loss = uas(as_) - uas(as_, depth_bound=2)
    _report(
        10,
        toy_uas == 100.0 and lc_loss <= 1.0 and as_loss >= 10.0,
        "toy fit %.1f UAS in 5 epochs; on shallow test data a reduce-depth bound of 2 "
        "costs the left-corner parser %.2f points while a plain depth bound of 2 costs "
        "the shift-reduce parser %.2f" % (toy_uas, lc_loss, as_loss),
    )


# ---------------------------------------------------------------------------
# 11: corpus-dependent reference numbers (optional data)


def test_criterion_11a_conll07_arabic_coverage():
    path = os.environ.get("LCDEP_CONLL07_AR")
    if not path:
        _skip(11, "LCDEP_CONLL07_AR unset; skipping Arabic coverage check")
    corpus = parse_conll(Path(path).read_text(encoding="utf-8"), pos_column=3)
    prepared = prepare_corpus(corpus)
    report = coverage_report(prepared, bounds=(1, 2, 3, 4))
    tok, sent = report.rows[3]
    _report(
        11,
        abs(tok - 92.0) <= 0.3 and abs(sent - 57.6) <= 0.3,
        "depth<=3 coverage token %.1f (want 92.0 +/- 0.3), sentence %.1f (want 57.6 +/- 0.3)"
        % (tok, sent),
    )


def _ud_sentences(path):
    corpus = parse_conll(path.read_text(encoding="utf-8"), pos_column=3)
    out = []
    for tree in corpus:
        stripped = strip_punctuation(tree)
        if 1 <= stripped.n <= 15:
            out.append(stripped)
    return out


def test_criterion_11b_ud_short_sentence_averages():
    root = os.environ.get("LCDEP_UD15_DIR")
    if not root:
        _skip(11, "LCDEP_UD15_DIR unset; skipping treebank-average check")
    pairs = []
    for train_path in sorted(Path(root).glob("**/*-ud-train.conllu")):
        test_path = Path(str(train_path).replace("-ud-train.conllu", "-ud-test.conllu"))
        if test_path.exists():
            pairs.append((train_path, test_path))
    if not pairs:
        _skip(11, "no *-ud-train.conllu/*-ud-test.conllu pairs under LCDEP_UD15_DIR")

    configs = {
        "uniform": TrainConfig(init="uniform"),
        "bounded": TrainConfig(init="uniform", depth_bound=1, size_cutoff=3),
        "biased": TrainConfig(init="uniform", length_bias=0.1),
    }
    targets = {"uniform": 49.2, "bounded": 51.8, "biased": 53.5}
    scores = {name: [] for name in configs}
    for train_path, test_path in pairs:
        train_trees = _ud_sentences(train_path)
        test_trees = _ud_sentences(test_path)
        for name, cfg in configs.items():
            model = induction.train(train_trees, cfg)
            preds = induction.decode(model.params, test_trees)
            scores[name].append(induction.evaluate_uas(preds, test_trees))
    means = {name: sum(v) / len(v) for name, v in scores.items()}
    ok = all(abs(means[name] - targets[name]) <= 3.0 for name in configs)
    _report(
        11,
        ok,
        "%d treebanks; average UAS uniform %.1f (want 49.2), depth-bounded %.1f "
        "(want 51.8), length-biased %.1f (want 53.5), all +/- 3.0"
        % (len(pairs), means["uniform"], means["bounded"], means["biased"]),
    )
