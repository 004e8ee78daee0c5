"""Featurized DMV induction: gradients, initialization, constraints, EM."""

import math
import random

import numpy as np
import pytest

from lcdep import induction, sbg
from lcdep.exhaustive import projective_trees
from lcdep.hypergraph import NEG_INF
from lcdep.lc_chart import DepthPolicy
from lcdep.sbg import LEFT, RIGHT
from lcdep.treebank import is_projective, tree_from_heads

TAGSET = ("ADP", "DET", "NOUN", "VERB")


def random_corpus(rng, n_sent=10, max_len=5, vocab=TAGSET):
    return [
        tuple(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))
        for _ in range(n_sent)
    ]


def random_counts(space, rng):
    counts = sbg.DmvCounts.zero()
    for name, decisions, _ in space.contexts:
        for dec in decisions:
            c = rng.random() * 3.0
            if name[0] == "attach":
                counts.attach[name[1], name[2], dec] = c
            elif name[0] == "stop":
                key = (name[1], name[2], name[3])
                if dec == induction.STOP:
                    counts.stop[key] = c
                else:
                    counts.cont[key] = c
            else:
                counts.root[dec] = c
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
    cvecs = space.context_counts(counts)
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
    cvecs = space.context_counts(counts)
    w = induction.mstep(space, counts, np.zeros(space.n_features))
    obj, grad = induction.mstep_objective(space, w, cvecs, sigma2=10.0)
    obj0, _ = induction.mstep_objective(
        space, np.zeros(space.n_features), cvecs, sigma2=10.0
    )
    assert obj >= obj0
    assert np.max(np.abs(grad)) < 1e-4 * (1.0 + abs(obj))


# ---------------------------------------------------------------------------
# harmonic initialization


def test_harmonic_init_on_two_token_corpus_matches_uniform_estep():
    corpus = [("NOUN", "VERB"), ("VERB", "NOUN"), ("NOUN", "NOUN")]
    harm = induction.harmonic_init(corpus)
    uniform = sbg.uniform_dmv_params(("NOUN", "VERB"))
    from_uniform, _ = sbg.em_step(corpus, uniform)
    for key, row in harm.attach.items():
        for d, p in row.items():
            assert math.isclose(p, from_uniform.attach[key][d], abs_tol=1e-12)
    for key, p in harm.stop.items():
        assert math.isclose(p, from_uniform.stop[key], abs_tol=1e-12)
    for d, p in harm.root.items():
        assert math.isclose(p, from_uniform.root[d], abs_tol=1e-12)


def test_harmonic_init_matches_enumeration_oracle():
    corpus = [("A", "B", "C")]
    harm = induction.harmonic_init(corpus)
    tags = corpus[0]
    sent = sbg.weighted_sentence_automata(
        tags,
        attach_logw=lambda h, d: -math.log(abs(h - d)),
        root_logw=lambda d: 0.0,
    )
    events, _ = sbg.brute_force_expected_counts(tags, sent)
    counts = sbg.dmv_counts_from_events(events, tags)
    oracle = sbg.dmv_params_from_counts(
        counts, sbg.uniform_dmv_params(("A", "B", "C"))
    )
    for key, row in harm.attach.items():
        for d, p in row.items():
            assert math.isclose(p, oracle.attach[key][d], abs_tol=1e-10)
    for d, p in harm.root.items():
        assert math.isclose(p, oracle.root[d], abs_tol=1e-10)


def test_harmonic_init_prefers_adjacent_attachment():
    harm = induction.harmonic_init([("A", "B", "C")])
    # C's left dependents: B is adjacent, A is two away
    assert harm.attach["C", LEFT]["B"] > harm.attach["C", LEFT]["A"]
    assert harm.attach["A", RIGHT]["B"] > harm.attach["A", RIGHT]["C"]


def test_harmonic_init_is_deterministic():
    corpus = [("NOUN", "VERB", "DET"), ("VERB", "NOUN")]
    a = induction.harmonic_init(corpus)
    b = induction.harmonic_init(corpus)
    assert a.attach == b.attach and a.stop == b.stop and a.root == b.root


# ---------------------------------------------------------------------------
# length bias


@pytest.mark.parametrize("beta", [0.1, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_length_bias_rescales_every_tree_exactly(n, beta):
    rng = random.Random(100 * n)
    params = sbg.random_dmv_params(("N", "V"), rng)
    tags = tuple(rng.choice(("N", "V")) for _ in range(n))
    plain = sbg.dmv_sentence_automata(tags, params)
    biased, blocked = induction.apply_constraints(
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
    biased, _ = induction.apply_constraints(
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
    sent, blocked = induction.apply_constraints(params, tags, cs)
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
    sent, _ = induction.apply_constraints(params, tags, cs)
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


def test_estep_parallel_matches_serial():
    rng = random.Random(17)
    corpus = random_corpus(rng, n_sent=12, max_len=4)
    groups = induction.corpus_groups(corpus)
    params = sbg.random_dmv_params(TAGSET, rng)
    cs = induction.ConstraintSet(stop_one_tags=frozenset({"DET"}))
    c1, ll1, sk1 = induction.estep(groups, params, cs, jobs=1)
    c2, ll2, sk2 = induction.estep(groups, params, cs, jobs=2)
    assert sk1 == sk2
    assert math.isclose(ll1, ll2, abs_tol=1e-10)
    for field in ("attach", "stop", "cont", "root"):
        d1 = getattr(c1, field)
        d2 = getattr(c2, field)
        assert set(d1) == set(d2)
        for key in d1:
            assert math.isclose(d1[key], d2[key], abs_tol=1e-10)


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
