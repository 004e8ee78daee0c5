"""Featurized DMV induction: gradients, initialization, constraints, EM."""

import inspect
import math
import random
import re

import numpy as np
import pytest

from lcdep import induction, lc_chart, sbg
from lcdep.exhaustive import projective_trees
from lcdep.hypergraph import NEG_INF
from lcdep.lc_chart import DepthPolicy
from lcdep.sbg import LEFT, RIGHT
from lcdep.treebank import is_projective, tree_from_heads
from tests import util

TAGSET = ("ADP", "DET", "NOUN", "VERB")


def random_corpus(rng, n_sent=10, max_len=5, vocab=TAGSET):
    return [
        tuple(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))
        for _ in range(n_sent)
    ]


def random_counts(space, rng):
    counts = sbg.DmvCounts.zero()
    for field, key in space.keys:
        getattr(counts, field)[key] = rng.random() * 3.0
    return counts


# ---------------------------------------------------------------------------
# feature space and softmax


def test_zero_weights_give_uniform_params():
    space = induction.FeatureSpace(("NOUN", "VERB", "DET"))
    params = space.weights_to_params(np.zeros(space.n_features))
    for (h, side), row in params.attach.items():
        for p in row.values():
            assert math.isclose(p, 1.0 / 3.0)
    for p in params.stop.values():
        assert math.isclose(p, 0.5)
    for p in params.root.values():
        assert math.isclose(p, 1.0 / 3.0)


@pytest.mark.parametrize("tags", [("N",), ("DET", "NOUN", "VERB"),
                                  tuple("T%02d" % k for k in range(12))])
def test_decision_tables_index_the_layout(tags):
    space = induction.FeatureSpace(tags)
    t = len(tags)
    attach_at = np.full((t, 2, t), -1)
    stop_at = np.full((t, 2, 2), -1)
    cont_at = np.full((t, 2, 2), -1)
    root_at = np.full(t, -1)
    side_id = {LEFT: 0, RIGHT: 1}
    for e, (field, key) in enumerate(space.keys):
        if field == "attach":
            h, side, d = key
            attach_at[space.tag_id[h], side_id[side], space.tag_id[d]] = e
        elif field == "root":
            root_at[space.tag_id[key]] = e
        else:
            h, side, adj = key
            table = stop_at if field == "stop" else cont_at
            table[space.tag_id[h], side_id[side], 0 if adj else 1] = e
    assert space.tag_id == {tag: k for k, tag in enumerate(space.tags)}
    for got, want in ((space.attach_at, attach_at), (space.stop_at, stop_at),
                      (space.cont_at, cont_at), (space.root_at, root_at)):
        assert (want >= 0).all()  # every entry names a decision
        assert got.shape == want.shape
        assert (got == want).all()


def test_attach_pair_feature_is_shared_across_directions():
    space = induction.FeatureSpace(("N", "V"))
    w = np.zeros(space.n_features)
    w[space.index["a_hd", "N", "V"]] = 1.0
    params = space.weights_to_params(w)
    assert params.attach["N", LEFT]["V"] > 0.5
    assert params.attach["N", RIGHT]["V"] > 0.5
    assert math.isclose(
        params.attach["N", LEFT]["V"], params.attach["N", RIGHT]["V"]
    )
    # the headedness matters: V attaching N is untouched
    assert math.isclose(params.attach["V", LEFT]["N"], 0.5)


def test_decision_only_stop_feature_shifts_every_context():
    space = induction.FeatureSpace(("N", "V"))
    w = np.zeros(space.n_features)
    w[space.index["s", induction.STOP]] = 2.0
    params = space.weights_to_params(w)
    for p in params.stop.values():
        assert math.isclose(p, math.exp(2.0) / (math.exp(2.0) + 1.0))


def test_root_choice_shares_dependent_backoff_features():
    space = induction.FeatureSpace(("N", "V"))
    w = np.zeros(space.n_features)
    w[space.index["a_d", "V"]] = 1.5
    params = space.weights_to_params(w)
    assert params.root["V"] > 0.5
    # the same backoff raises V's probability as an ordinary dependent
    assert params.attach["N", LEFT]["V"] > 0.5
    assert math.isclose(params.root["V"], params.attach["N", LEFT]["V"])


# ---------------------------------------------------------------------------
# M-step


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mstep_gradient_matches_central_differences(seed):
    rng = random.Random(seed)
    space = induction.FeatureSpace(("A", "B", "C"))
    counts = random_counts(space, rng)
    cvecs = space.count_vector(counts)
    w = np.array([rng.gauss(0.0, 0.5) for _ in range(space.n_features)])
    _, grad = induction.mstep_objective(space, w, cvecs, sigma2=10.0)
    eps = 1e-5
    for k in range(space.n_features):
        wp = w.copy()
        wp[k] += eps
        wm = w.copy()
        wm[k] -= eps
        fp, _ = induction.mstep_objective(space, wp, cvecs, sigma2=10.0)
        fm, _ = induction.mstep_objective(space, wm, cvecs, sigma2=10.0)
        num = (fp - fm) / (2.0 * eps)
        denom = max(1.0, abs(num), abs(grad[k]))
        assert abs(grad[k] - num) / denom <= 1e-4


def test_mstep_reaches_a_stationary_point():
    rng = random.Random(5)
    space = induction.FeatureSpace(("A", "B"))
    counts = random_counts(space, rng)
    cvecs = space.count_vector(counts)
    w, run = induction.mstep(space, counts, np.zeros(space.n_features))
    assert run.converged and run.iterations > 0
    obj, grad = induction.mstep_objective(space, w, cvecs, sigma2=10.0)
    obj0, _ = induction.mstep_objective(
        space, np.zeros(space.n_features), cvecs, sigma2=10.0
    )
    assert obj >= obj0
    assert np.max(np.abs(grad)) < 1e-4 * (1.0 + abs(obj))


def _counts_with_empty_contexts(space, rng):
    """Random counts where about a third of the contexts have none."""
    counts = random_counts(space, rng)
    empty = {k for k in range(len(space.starts)) if rng.random() < 0.35}
    for (field, key), k in zip(space.keys, space.context_of):
        if k in empty:
            del getattr(counts, field)[key]
    return counts


@pytest.mark.parametrize("scale", [0.0, 0.5, 20.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_mstep_objective_matches_per_context_reference(seed, scale):
    rng = random.Random(seed)
    space = induction.FeatureSpace(TAGSET)
    contexts = util.reference_contexts(space)
    counts = _counts_with_empty_contexts(space, rng)
    cvecs = util.reference_context_counts(contexts, counts)
    assert any(v.sum() == 0.0 for v in cvecs)
    flat = space.count_vector(counts)
    assert np.array_equal(flat, np.concatenate(cvecs))
    w = np.array([rng.gauss(0.0, 1.0) * scale
                  for _ in range(space.n_features)])
    obj, grad = induction.mstep_objective(space, w, flat, sigma2=10.0)
    want_obj, want_grad = util.reference_mstep_objective(
        contexts, w, cvecs, sigma2=10.0)
    assert abs(obj - want_obj) <= 1e-9 * max(1.0, abs(want_obj))
    assert np.max(np.abs(grad - want_grad)
                  / np.maximum(1.0, np.abs(want_grad))) <= 1e-9


@pytest.mark.parametrize("scale", [0.0, 0.5, 20.0])
def test_weights_to_params_matches_per_context_softmax(scale):
    rng = random.Random(11)
    space = induction.FeatureSpace(TAGSET)
    w = np.array([rng.gauss(0.0, 1.0) * scale
                  for _ in range(space.n_features)])
    got = space.weights_to_params(w)
    want = util.reference_weights_to_params(util.reference_contexts(space), w)
    assert got.attach.keys() == want.attach.keys()
    for ctx, row in want.attach.items():
        assert got.attach[ctx].keys() == row.keys()
        for d, p in row.items():
            assert abs(got.attach[ctx][d] - p) <= 1e-12
        assert abs(sum(got.attach[ctx].values()) - 1.0) <= 1e-12
    assert got.stop.keys() == want.stop.keys()
    for key, p in want.stop.items():
        assert abs(got.stop[key] - p) <= 1e-12
    assert got.root.keys() == want.root.keys()
    for d, p in want.root.items():
        assert abs(got.root[d] - p) <= 1e-12
    assert abs(sum(got.root.values()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# harmonic initialization


def assert_counts_close(got, want, tol):
    for field in ("attach", "stop", "cont", "root"):
        g, w = getattr(got, field), getattr(want, field)
        for key in set(g) | set(w):
            assert abs(g.get(key, 0.0) - w.get(key, 0.0)) <= tol, (field, key)


def test_harmonic_init_on_two_token_corpus_matches_uniform_estep():
    # both trees of two tokens have one arc of length one, so the harmonic
    # weights and uniform parameters give them the same posterior
    corpus = [("NOUN", "VERB"), ("VERB", "NOUN"), ("NOUN", "NOUN")]
    groups = induction.corpus_groups(corpus)
    uniform = sbg.uniform_dmv_params(("NOUN", "VERB"))
    from_uniform, _, _ = induction.estep(
        groups, uniform, induction.ConstraintSet())
    assert_counts_close(induction.harmonic_counts(groups), from_uniform, 1e-12)


def test_harmonic_init_matches_enumeration_oracle():
    tags = ("A", "B", "C")
    sent = sbg.weighted_sentence_automata(
        len(tags),
        attach_logw=lambda h, d: -math.log(abs(h - d)),
        root_logw=lambda d: 0.0,
    )
    events, _ = sbg.brute_force_expected_counts(tags, sent)
    oracle = util.merge_counts(
        sbg.DmvCounts.zero(), util.dmv_counts_from_events(events, tags), 2)
    assert_counts_close(induction.harmonic_counts([(tags, 2)]), oracle, 1e-10)


def test_harmonic_init_prefers_adjacent_attachment():
    counts = induction.harmonic_counts([(("A", "B", "C"), 1)])
    # C's left dependents: B is adjacent, A is two away
    assert counts.attach["C", LEFT, "B"] > counts.attach["C", LEFT, "A"]
    assert counts.attach["A", RIGHT, "B"] > counts.attach["A", RIGHT, "C"]


def test_harmonic_init_is_deterministic():
    groups = induction.corpus_groups(
        [("NOUN", "VERB", "DET"), ("VERB", "NOUN")])
    induction.clear_forest_cache()
    a = induction.harmonic_counts(groups)  # builds the forests
    b = induction.harmonic_counts(groups)  # reuses them
    assert a == b


# ---------------------------------------------------------------------------
# length bias


@pytest.mark.parametrize("beta", [0.1, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_length_bias_rescales_every_tree_exactly(n, beta):
    rng = random.Random(100 * n)
    params = sbg.random_dmv_params(("N", "V"), rng)
    tags = tuple(rng.choice(("N", "V")) for _ in range(n))
    plain = sbg.dmv_sentence_automata(tags, params)
    biased, blocked = util.apply_constraints(
        params, tags, induction.ConstraintSet(), length_bias=beta
    )
    assert blocked == frozenset()
    for heads in projective_trees(n):
        # total arc length with the root arc counted as distance one
        dist = sum(
            1 if h == 0 else abs(h - d)
            for d, h in enumerate(heads, start=1)
        )
        want = sbg.tree_log_weight(heads, tags, plain) - beta * (dist - n)
        got = sbg.tree_log_weight(heads, tags, biased)
        assert abs(got - want) <= 1e-10


def test_length_bias_keeps_all_adjacent_trees_unchanged():
    rng = random.Random(9)
    params = sbg.random_dmv_params(("N",), rng)
    tags = ("N", "N", "N")
    plain = sbg.dmv_sentence_automata(tags, params)
    biased, _ = util.apply_constraints(
        params, tags, induction.ConstraintSet(), length_bias=1.0
    )
    heads = (2, 3, 0)  # chain: every arc adjacent
    assert math.isclose(
        sbg.tree_log_weight(heads, tags, plain),
        sbg.tree_log_weight(heads, tags, biased),
        abs_tol=1e-12,
    )


# ---------------------------------------------------------------------------
# constraints


def test_function_word_constraint_zeroes_headed_analyses():
    rng = random.Random(21)
    params = sbg.random_dmv_params(TAGSET, rng)
    cs = induction.ConstraintSet(stop_one_tags=frozenset({"DET"}))
    tags = ("DET", "NOUN")
    sent, blocked = util.apply_constraints(params, tags, cs)
    assert blocked == frozenset()
    # DET heading NOUN is gone; NOUN heading DET survives
    assert sbg.tree_log_weight((0, 1), tags, sent) == NEG_INF
    assert sbg.tree_log_weight((2, 0), tags, sent) > NEG_INF
    # the chart marginal agrees with enumerating the surviving trees
    _, logz = induction.sentence_expectations(tags, params, cs)
    assert math.isclose(logz, sbg.brute_force_marginal(tags, sent), abs_tol=1e-10)


@pytest.mark.parametrize(
    "mode,tags,expected",
    [
        ("none", ("NOUN", "VERB"), None),
        ("verb-or-noun", ("NOUN", "VERB"), {1, 2}),
        ("verb-or-noun", ("DET", "NOUN", "ADP"), {2}),
        ("verb-or-noun", ("DET", "ADP"), None),
        ("verb-otherwise-noun", ("NOUN", "VERB"), {2}),
        ("verb-otherwise-noun", ("NOUN", "PRON"), {1, 2}),
        ("verb-otherwise-noun", ("DET", "ADP"), None),
    ],
)
def test_root_constraint_semantics(mode, tags, expected):
    cs = induction.ConstraintSet(root_mode=mode)
    allowed = cs.root_allowed(tags)
    assert (allowed is None and expected is None) or set(allowed) == expected


def test_root_constraint_removes_other_roots_from_the_chart():
    rng = random.Random(33)
    params = sbg.random_dmv_params(TAGSET, rng)
    tags = ("DET", "VERB", "NOUN")
    cs = induction.ConstraintSet(root_mode="verb-otherwise-noun")
    sent, _ = util.apply_constraints(params, tags, cs)
    for heads in projective_trees(3):
        root = heads.index(0) + 1
        w = sbg.tree_log_weight(heads, tags, sent)
        if root == 2:
            assert w > NEG_INF
        else:
            assert w == NEG_INF


def test_must_head_blocking_marks_positions():
    cs = induction.ConstraintSet(must_head_tags=frozenset({"ADP"}))
    assert cs.blocked_positions(("ADP", "NOUN", "ADP")) == frozenset({1, 3})


def _restricted_by_hand(plain, tags, cs, length_bias):
    """The weight dicts of ``plain`` with each restriction applied on its
    own: flagged heads stop at once, root transitions outside the allowed
    roots weigh zero, real-head transitions carry the length bias."""
    n = len(tags)
    allowed = cs.root_allowed(tags)
    final = {k: dict(v) for k, v in plain._final.items()}
    fwd, rev = {}, {}
    for (side, h), rows in plain._fwd.items():
        flagged = h <= n and tags[h - 1] in cs.stop_one_tags
        if flagged:
            final[side, h] = {q: 0.0 for q in final[side, h]}
        fwd[side, h], rev[side, h] = {}, {}
        for (q, d), row in rows.items():
            for r, w in row.items():
                if flagged:
                    w = NEG_INF
                if h == n + 1 and allowed is not None and d not in allowed:
                    w = NEG_INF
                if h <= n and length_bias:
                    w = w + -length_bias * (abs(h - d) - 1)
                fwd[side, h].setdefault((q, d), {})[r] = w
                rev[side, h].setdefault((r, d), {})[q] = w
    return plain._init, final, fwd, rev


@pytest.mark.parametrize("seed", range(4))
def test_constrained_automata_equal_each_restriction_applied_by_hand(seed):
    rng = random.Random(seed)
    params = sbg.random_dmv_params(TAGSET, rng)
    for tags in random_corpus(rng, n_sent=6, max_len=6):
        plain = sbg.dmv_sentence_automata(tags, params)
        for stop_one in ((), ("DET",), ("DET", "ADP")):
            for mode in induction.ROOT_MODES:
                cs = induction.ConstraintSet(
                    stop_one_tags=frozenset(stop_one), root_mode=mode)
                for beta in (None, 0.5, 2.0):
                    sent, _ = util.apply_constraints(
                        params, tags, cs, beta)
                    got = (sent._init, sent._final, sent._fwd, sent._rev)
                    assert got == _restricted_by_hand(plain, tags, cs, beta)


def test_constrained_decode_respects_all_constraints():
    rng = random.Random(4)
    corpus = [
        ("DET", "NOUN", "VERB"),
        ("NOUN", "VERB", "DET", "NOUN"),
        ("VERB", "ADP", "NOUN"),
        ("DET", "NOUN", "VERB", "ADP", "NOUN"),
    ]
    cfg = induction.TrainConfig(
        em_iterations=3,
        function_words=("DET",),
        adp_head=True,
        root_constraint="verb-otherwise-noun",
        depth_bound=2,
        size_cutoff=2,
    )
    model = induction.train(corpus, cfg)
    trees = induction.decode_constrained(
        model.params, corpus, cfg.constraint_set(), cfg.policy()
    )
    for tree in trees:
        heads = tree.heads
        tags = tree.tags
        for d, h in enumerate(heads, start=1):
            if h > 0:
                assert tags[h - 1] != "DET"
            if h == 0:
                assert tags[d - 1] == "VERB"
        for pos, tag in enumerate(tags, start=1):
            if tag == "ADP":
                assert pos in heads


@pytest.mark.parametrize("policy,blocked,goal", [
    (None, (), "LF"),
    (DepthPolicy(), (), "LF"),
    (DepthPolicy(None, 3), (), "LF"),
    (DepthPolicy(2, 1), (), "LI"),
    (None, (2,), "LI"),
    (DepthPolicy(), (2,), "LI"),
])
def test_head_split_chart_serves_exactly_the_unbounded_unblocked_case(
        policy, blocked, goal):
    forest = induction._chart_forest(3, policy, blocked)
    assert forest.goal[0] == goal


@pytest.mark.parametrize("beta", [None, 0.5, 1.0])
@pytest.mark.parametrize("function_words", [(), ("DET",)])
@pytest.mark.parametrize("root_mode", induction.ROOT_MODES)
@pytest.mark.parametrize("weights", ["random", "uniform"])
def test_unbounded_unblocked_e_step_and_decode_match_the_lc_chart(
        weights, root_mode, function_words, beta):
    # the head-split chart serves these cases; the unbounded left-corner
    # chart, which admits the same trees, is the reference
    rng = random.Random("%s %s %s %s" % (weights, root_mode, function_words,
                                         beta))
    params = (sbg.uniform_dmv_params(TAGSET) if weights == "uniform"
              else sbg.random_dmv_params(TAGSET, rng))
    cs = induction.ConstraintSet(stop_one_tags=frozenset(function_words),
                                 root_mode=root_mode)
    for tags in random_corpus(rng, n_sent=8, max_len=7):
        sent, blocked = util.apply_constraints(params, tags, cs, beta)
        assert not blocked
        try:
            want = sbg.forest_viterbi(lc_chart.lc_forest(sent), sent,
                                      tags).heads
        except ValueError:
            want = None
        for policy in (None, DepthPolicy()):
            try:
                [tree] = induction.decode_constrained(
                    params, [tags], cs, policy, beta)
                got = tree.heads
            except ValueError:
                got = None
            assert got == want, tags
        events, want_logz = sbg.forest_expected_counts(
            lc_chart.lc_forest(sent), sent)
        counts, logz = induction.sentence_expectations(
            tags, params, cs, None, beta)
        if want_logz == NEG_INF:
            assert counts is None and logz == NEG_INF
            continue
        assert abs(logz - want_logz) <= 1e-9
        assert_counts_close(
            counts, util.dmv_counts_from_events(events, tags), 1e-9)


# ---------------------------------------------------------------------------
# EM training


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_em_objective_is_nondecreasing(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, n_sent=10, max_len=4)
    cfg = induction.TrainConfig(em_iterations=10, init="uniform")
    model = induction.train(corpus, cfg)
    objs = [obj for _, obj, _ in model.history]
    assert len(objs) >= 2
    for a, b in zip(objs, objs[1:]):
        assert b >= a - 1e-6


def test_em_objective_is_nondecreasing_under_bounds_and_constraints():
    rng = random.Random(12)
    corpus = random_corpus(rng, n_sent=8, max_len=4)
    cfg = induction.TrainConfig(
        em_iterations=8,
        depth_bound=1,
        size_cutoff=3,
        function_words=("DET",),
        root_constraint="verb-otherwise-noun",
        length_bias=0.1,
    )
    model = induction.train(corpus, cfg)
    objs = [obj for _, obj, _ in model.history]
    for a, b in zip(objs, objs[1:]):
        assert b >= a - 1e-6


def test_skipped_sentences_are_counted():
    corpus = [("ADP",), ("NOUN", "VERB"), ("NOUN", "VERB")]
    cfg = induction.TrainConfig(em_iterations=2, adp_head=True, init="uniform")
    model = induction.train(corpus, cfg)
    for _, _, skipped in model.history:
        assert skipped == 1


def test_training_fails_when_nothing_has_mass():
    corpus = [("ADP",), ("ADP",)]
    cfg = induction.TrainConfig(em_iterations=2, adp_head=True, init="uniform")
    with pytest.raises(ValueError):
        induction.train(corpus, cfg)


def test_training_rejects_jobs_before_building_a_forest(monkeypatch):
    # EM runs in one process: a jobs value other than 1 fails fast
    def no_forest(*args, **kwargs):
        raise AssertionError("a forest was built")

    monkeypatch.setattr(induction, "_chart_forest", no_forest)
    with pytest.raises(ValueError, match="jobs"):
        induction.train([("NOUN", "VERB")], induction.TrainConfig(jobs=2))


def test_estep_has_no_jobs_parameter():
    assert "jobs" not in inspect.signature(induction.estep).parameters


# ---------------------------------------------------------------------------
# decoding, evaluation, sampling, model files


def test_decode_is_plain_viterbi_under_the_model():
    rng = random.Random(2)
    params = sbg.random_dmv_params(("N", "V"), rng)
    corpus = [("N", "V"), ("V", "N", "N")]
    trees = induction.decode(params, corpus)
    for tags, tree in zip(corpus, trees):
        sent = sbg.dmv_sentence_automata(tags, params)
        _, heads = sbg.brute_force_viterbi(tags, sent)
        assert tree.heads == heads
    assert trees == induction.decode_constrained(
        params, corpus, induction.ConstraintSet())


def test_decoding_an_unseen_tag_names_it():
    corpus = [("N", "V"), ("V", "N", "N")]
    cfg = induction.TrainConfig(em_iterations=1, depth_bound=1, size_cutoff=3)
    model = induction.train(corpus, cfg)
    unseen = [("N", "X", "V")]
    with pytest.raises(ValueError, match="'X'"):
        induction.decode(model.params, unseen)
    with pytest.raises(ValueError, match="'X'"):
        induction.decode_constrained(
            model.params, unseen, cfg.constraint_set(), cfg.policy()
        )


def test_evaluate_uas_counts_root_and_skips_punctuation():
    gold = [tree_from_heads((2, 0, 2), tags=("NOUN", "VERB", "PUNCT"))]
    pred = [tree_from_heads((2, 0, 1), tags=("NOUN", "VERB", "PUNCT"))]
    # both real tokens correct, punct token differs but is excluded
    assert induction.evaluate_uas(pred, gold) == 100.0
    pred2 = [tree_from_heads((0, 1, 2), tags=("NOUN", "VERB", "PUNCT"))]
    assert induction.evaluate_uas(pred2, gold) == 0.0


def test_evaluate_uas_rejects_length_mismatch():
    gold = [tree_from_heads((0, 1), tags=("N", "N"))]
    pred = [tree_from_heads((0,), tags=("N",))]
    with pytest.raises(ValueError):
        induction.evaluate_uas(pred, gold)


def test_sampler_generates_valid_projective_trees():
    rng = random.Random(6)
    params = sbg.random_dmv_params(("N", "V", "D"), rng)
    drawn = 0
    for _ in range(60):
        tree = induction.sample_dmv_tree(params, rng, max_tokens=12)
        if tree is None:
            continue
        drawn += 1
        assert 1 <= len(tree.heads) <= 12
        assert is_projective(tree)
    assert drawn >= 10


def test_sampler_respects_token_budget():
    # continue probability ~1 forces runaway derivations
    params = sbg.uniform_dmv_params(("N",))
    stop = {k: 0.01 for k in params.stop}
    greedy = sbg.DmvParams(attach=params.attach, stop=stop, root=params.root)
    rng = random.Random(0)
    results = [induction.sample_dmv_tree(greedy, rng, max_tokens=6) for _ in range(20)]
    assert any(t is None for t in results)
    for t in results:
        if t is not None:
            assert len(t.heads) <= 6


def test_model_file_roundtrip_preserves_params():
    rng = random.Random(8)
    corpus = random_corpus(rng, n_sent=6, max_len=3, vocab=("N", "V"))
    model = induction.train(corpus, induction.TrainConfig(em_iterations=2))
    lines = induction.model_to_lines(model)
    space, w = induction.model_from_lines(lines)
    assert space.tags == model.space.tags
    reloaded = space.weights_to_params(w)
    for key, row in model.params.attach.items():
        for d, p in row.items():
            assert math.isclose(p, reloaded.attach[key][d], abs_tol=1e-12)
    for key, p in model.params.stop.items():
        assert math.isclose(p, reloaded.stop[key], abs_tol=1e-12)


def test_model_file_with_a_missing_or_unknown_feature_is_rejected():
    rng = random.Random(8)
    corpus = random_corpus(rng, n_sent=6, max_len=3, vocab=("N", "V"))
    model = induction.train(corpus, induction.TrainConfig(em_iterations=1))
    lines = induction.model_to_lines(model)
    k = 7  # a weight line: the header is three comment lines
    key = lines[k].split("\t")[0]
    with pytest.raises(ValueError, match="no weight for feature key '%s'"
                       % re.escape(key)):
        induction.model_from_lines(lines[:k] + lines[k + 1:])
    with pytest.raises(ValueError, match="unknown feature key 'a_d:X'"):
        induction.model_from_lines(lines + ["a_d:X\t0.5"])
    with pytest.raises(ValueError, match="line 4 has no tab"):
        induction.model_from_lines(lines[:3] + ["a_d:N 0.5"] + lines[3:])


def test_model_file_weight_that_is_not_a_number_is_rejected():
    lines = ["# featurized-dmv v1", "# tags: N", "a_d:N\tx1"]
    with pytest.raises(ValueError, match="line 3 has a weight that is not a "
                                         "number: 'a_d:N\\\\tx1'"):
        induction.model_from_lines(lines)


# ---------------------------------------------------------------------------
# M-step observability and degenerate weights


def test_mstep_runs_record_lbfgs_iterations_and_status():
    rng = random.Random(3)
    corpus = random_corpus(rng, n_sent=6, max_len=4)
    capped = induction.train(corpus, induction.TrainConfig(
        em_iterations=2, tol=0.0, lbfgs_iterations=2))
    assert [it for it, _ in capped.mstep_runs] == [0, 1, 2]
    for _, run in capped.mstep_runs:
        assert run.iterations == 2
        assert run.status == 1 and not run.converged
    free = induction.train(corpus, induction.TrainConfig(
        init="uniform", em_iterations=1, lbfgs_iterations=15000))
    [(it, run)] = free.mstep_runs
    assert it == 1 and run.converged and 2 < run.iterations < 15000


def _params_with(tagset, value):
    """DMV parameters whose every probability is ``value``."""
    base = sbg.uniform_dmv_params(tagset)
    return sbg.DmvParams(
        attach={k: {d: value for d in row} for k, row in base.attach.items()},
        stop={k: value for k in base.stop},
        root={d: value for d in base.root},
    )


@pytest.mark.parametrize("prob", [float("nan"), 0.0], ids=["nan", "zero"])
@pytest.mark.parametrize("policy", [None, DepthPolicy(1, 3)],
                         ids=["eisner", "depth1"])
def test_degenerate_weights_skip_the_sentence(prob, policy, recwarn):
    tags = ("DET", "NOUN", "VERB", "NOUN")
    params = _params_with(set(tags), prob)
    counts, logz = induction.sentence_expectations(
        tags, params, induction.ConstraintSet(), policy)
    assert counts is None and logz == NEG_INF
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
