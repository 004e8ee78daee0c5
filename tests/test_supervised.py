"""Tests for beam-search parsing and perceptron training."""

import random

import pytest

from lcdep import supervised as sp
from lcdep.transition import (
    ARC_EAGER,
    ARC_STANDARD,
    LEFT_CORNER,
    SYSTEMS,
    depth_re_max,
    initial_config,
    lc_apply,
    max_step_depth,
    run_lc_oracle,
    valid_lc_actions,
)
from lcdep.treebank import tree_from_heads

from tests.util import random_projective_tree, reference_lc_features


def _sent(tags, heads):
    return tree_from_heads(heads, tags=tags, forms=tuple(t.lower() for t in tags))


def toy_corpus():
    """Ten sentences over two tags with consistent local attachment rules."""
    return [
        _sent(("N", "V"), (2, 0)),
        _sent(("V", "N"), (0, 1)),
        _sent(("N", "V", "N"), (2, 0, 2)),
        _sent(("N", "N", "V"), (3, 3, 0)),
        _sent(("V", "N", "N"), (0, 1, 1)),
        _sent(("V", "V"), (0, 1)),
        _sent(("N", "V", "V"), (2, 0, 2)),
        _sent(("V", "N", "V"), (0, 1, 1)),
        _sent(("N", "V", "N", "N"), (2, 0, 2, 2)),
        _sent(("N", "N", "V", "N"), (3, 3, 0, 3)),
    ]


# ---------------------------------------------------------------------------
# feature templates


def test_template_counts():
    limited = sp.lc_templates("limited")
    full = sp.lc_templates("full")
    assert len(limited) == 47
    assert len(full) == 55
    assert len(full) == len(limited) + 8


def test_limited_is_prefix_of_full():
    limited = sp.lc_templates("limited")
    full = sp.lc_templates("full")
    assert full[: len(limited)] == limited
    assert set(limited) < set(full)


def test_unknown_feature_set_rejected():
    with pytest.raises(ValueError):
        sp.lc_templates("medium")


def test_initial_config_only_buffer_features_fire():
    cfg = initial_config(3)
    forms, tags = ["a", "b", "c"], ["A", "B", "C"]
    feats = sp.extract_lc_features(cfg, forms, tags, "limited")
    assert len(feats) == 47
    templates = sp.lc_templates("limited")
    for feat, template in zip(feats, templates):
        values = feat.split("=", 1)[1].split("|")
        # a bare buffer token exposes only its form and tag; templates that
        # touch no buffer address are entirely NULL-valued
        direct_q0 = any(
            addr == "q0" and role == "" for addr, role, _ in template
        )
        uses_buffer = any(addr.startswith("q") for addr, _, _ in template)
        if direct_q0:
            assert any(v != sp.NULL for v in values)
        if not uses_buffer:
            assert all(v == sp.NULL for v in values)


def test_every_template_always_emitted():
    cfg = initial_config(1)
    feats = sp.extract_lc_features(cfg, ["a"], ["A"], "full")
    assert len(feats) == 55
    assert [f.split("=")[0] for f in feats] == [str(i) for i in range(55)]


def test_reduce_mode_completed_element_is_q0():
    # 1 <- 2 -> 3: after the final insert the stack holds one complete
    # element rooted at token 2 with children {1, 3}
    tree = tree_from_heads((2, 0, 2), forms=("a", "b", "c"), tags=("A", "B", "C"))
    cfg = initial_config(3)
    for step in run_lc_oracle(tree).steps:
        cfg = lc_apply(cfg, step.action)
    assert cfg.spines[-1].is_complete
    feats = dict(
        f.split("=", 1) for f in sp.extract_lc_features(cfg, ["a", "b", "c"],
                                                        ["A", "B", "C"], "limited")
    )
    assert feats["12"] == "b"          # q0.w = element root form
    assert feats["13"] == "B"          # q0.t
    assert feats["30"] == "B|A|C"      # q0.t q0.l.t q0.r.t
    assert feats["31"] == "b|A|C"      # q0.w q0.l.t q0.r.t
    # no incomplete element below: all s0 features are NULL-valued
    assert feats["0"] == sp.NULL and feats["2"] == sp.NULL


def test_shift_mode_dummy_parent_and_left_child():
    # after shift + leftPred the top element is [dummy <- token1]; the dummy
    # has no parent chain, its leftmost child is token 1; q0 is buffer token 2
    tree = tree_from_heads((2, 0, 2), forms=("a", "b", "c"), tags=("A", "B", "C"))
    cfg = initial_config(3)
    cfg = lc_apply(cfg, "shift")
    cfg = lc_apply(cfg, "leftPred")
    assert not cfg.spines[-1].is_complete
    feats = dict(
        f.split("=", 1) for f in sp.extract_lc_features(cfg, ["a", "b", "c"],
                                                        ["A", "B", "C"], "limited")
    )
    assert feats["2"] == "a"       # s0.l.w
    assert feats["3"] == "A"       # s0.l.t
    assert feats["0"] == sp.NULL   # s0.p.w: dummy is the element root
    assert feats["12"] == "b"      # q0.w = buffer front
    assert feats["22"] == "a|b"    # s0.l.w q0.w


def _random_walk_configs(n, seed):
    """Configurations met along a random sequence of valid left-corner
    actions: deeper stacks and odder shapes than oracle replay reaches."""
    rng = random.Random(seed)
    cfg = initial_config(n)
    out = [cfg]
    valid = valid_lc_actions(cfg)
    while valid:  # ends at a terminal or a dead end
        cfg = lc_apply(cfg, rng.choice(valid))
        out.append(cfg)
        valid = valid_lc_actions(cfg)
    return out


@pytest.mark.parametrize("feature_set", ["full", "limited"])
def test_compiled_features_match_reference(feature_set):
    # forms carry the separators "|", ">" and "=" to catch any reparsing
    for seed in range(12):
        n = 2 + seed % 9
        tree = random_projective_tree(n, seed=seed)
        forms = ["f%d|>=%d" % (seed, i) for i in range(n)]
        tags = ["T%d" % (i % 3) for i in range(n)]
        configs = [initial_config(n)]
        for step in run_lc_oracle(tree).steps:
            configs.append(lc_apply(configs[-1], step.action))
        configs += _random_walk_configs(n, seed)
        for cfg in configs:
            assert sp.extract_lc_features(cfg, forms, tags, feature_set) == (
                reference_lc_features(cfg, forms, tags, feature_set))


@pytest.mark.parametrize("system", SYSTEMS)
def test_score_equals_flat_weight_sum(system):
    # one lookup per feature must reproduce, bit for bit, the sum of the
    # conjoined weights taken feature by feature in template order
    sys_ = sp._system(system)
    rng = random.Random(5)
    for seed in range(6):
        tree = random_projective_tree(4 + seed, seed=seed)
        forms, tags = list(tree.forms), list(tree.tags)
        state = sys_.initial(tree.n)
        weights = {}
        visited = []
        for action in sys_.gold_actions(tree):
            feats = sys_.features(state, forms, tags)
            for f in feats:
                for a in sys_.action_ids:
                    if rng.random() < 0.7:
                        weights[f + ">" + a] = rng.uniform(-3.0, 3.0) / 7.0
            visited.append((state, feats))
            state = sys_.apply(state, action)
        table = sp._table(weights, sys_.action_ids)
        for state, feats in visited:
            valid = sys_.valid(state)
            got = sp._score(table, feats, [sys_.action_ids[a] for a in valid])
            want = [sum(weights.get(f + ">" + a, 0.0) for f in feats)
                    for a in valid]
            assert got == want


# ---------------------------------------------------------------------------
# beam decoding


@pytest.mark.parametrize("system", SYSTEMS)
def test_zero_weight_decode_deterministic(system):
    tree = random_projective_tree(6, seed=3)
    first = sp.beam_decode(tree, {}, beam_size=1, system=system)
    again = sp.beam_decode(tree, {}, beam_size=1, system=system)
    assert first.heads == again.heads
    wide = sp.beam_decode(tree, {}, beam_size=8, system=system)
    assert isinstance(wide.heads, tuple) and len(wide.heads) == 6


def test_zero_weight_lc_beam_sizes_agree():
    # unbounded left-corner search never dead-ends, so greedy tie-breaking
    # equals the beam-wide lexicographic minimum
    tree = random_projective_tree(5, seed=0)
    narrow = sp.beam_decode(tree, {}, beam_size=1, system=LEFT_CORNER)
    wide = sp.beam_decode(tree, {}, beam_size=16, system=LEFT_CORNER)
    assert narrow.heads == wide.heads


@pytest.mark.parametrize("beam_size", [0, -1])
def test_beam_size_below_one_rejected(beam_size):
    corpus = toy_corpus()
    with pytest.raises(ValueError, match="beam size"):
        sp.beam_decode(corpus[0], {}, beam_size=beam_size)
    with pytest.raises(ValueError, match="beam size"):
        sp.train_perceptron(corpus, epochs=1, beam_size=beam_size)
    # a model file whose header gives the size
    model = sp.parser_from_lines(["# beam: %d" % beam_size])
    with pytest.raises(ValueError, match="beam size"):
        sp.decode_corpus(corpus, model)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gold_actions_replayable(system, seed):
    tree = random_projective_tree(7, seed=seed)
    sys_ = sp._system(system)
    state = sys_.initial(tree.n)
    for action in sys_.gold_actions(tree):
        assert action in sys_.valid(state)
        state = sys_.apply(state, action)
    assert sys_.is_terminal(state)
    heads = sp._single_rooted(sys_.read_heads(state, tree.n))
    assert heads == tree.heads


def test_unbounded_equals_huge_bound():
    tree = random_projective_tree(6, seed=5)
    plain = sp.beam_decode(tree, {}, beam_size=4, system=LEFT_CORNER)
    huge = sp.beam_decode(tree, {}, beam_size=4, system=LEFT_CORNER,
                          depth_bound=50, depth_measure="raw")
    assert plain.heads == huge.heads


@pytest.mark.parametrize("measure", ["raw", "depthRe"])
def test_depth_bound_respected(measure):
    # the decoded tree's own derivation must obey the bound (derivations are
    # in bijection with trees, so the oracle recovers the decoder's path)
    for seed in range(4):
        tree = random_projective_tree(7, seed=seed)
        parsed = sp.beam_decode(tree, {}, beam_size=4, system=LEFT_CORNER,
                                depth_bound=2, depth_measure=measure)
        trace = run_lc_oracle(parsed)
        if measure == "raw":
            assert max_step_depth(trace) <= 2
        else:
            assert depth_re_max(trace) <= 2


def test_depth_re_tolerates_shift_overshoot():
    # bound 1 under depthRe still parses anything right-corner-friendly:
    # shifts may transiently exceed the bound
    tree = tree_from_heads((0, 1, 2, 3, 3, 2))
    assert depth_re_max(run_lc_oracle(tree)) == 3
    parsed = sp.beam_decode(tree, {}, beam_size=4, system=LEFT_CORNER,
                            depth_bound=1, depth_measure="depthRe")
    assert depth_re_max(run_lc_oracle(parsed)) == 1


def test_beam_death_returns_repaired_partial():
    # arc-standard with stack bound 1 cannot even hold two tokens: the beam
    # dies after the first shift and the partial is repaired into a tree
    tree = random_projective_tree(4, seed=2)
    parsed = sp.beam_decode(tree, {}, beam_size=4, system=ARC_STANDARD,
                            depth_bound=1, depth_measure="raw")
    assert parsed.heads == (0, 1, 1, 1)


def test_single_rooted_repair():
    assert sp._single_rooted((0, 0, 2)) == (0, 1, 2)
    assert sp._single_rooted((2, 3, 0)) == (2, 3, 0)
    assert sp._single_rooted((3, 3, 0, 0)) == (3, 3, 0, 3)


def test_empty_sentence():
    parsed = sp.beam_decode(([], []), {}, beam_size=2)
    assert parsed.n == 0


# ---------------------------------------------------------------------------
# perceptron training


def test_separable_toy_fits_within_five_epochs():
    corpus = toy_corpus()
    model = sp.train_perceptron(corpus, epochs=5, beam_size=4, seed=0)
    preds = sp.decode_corpus(corpus, model)
    assert all(p.heads == g.heads for p, g in zip(preds, corpus))


def test_single_sentence_converges_to_gold():
    tree = random_projective_tree(6, seed=7)
    model = sp.train_perceptron([tree], epochs=15, beam_size=4, seed=0)
    parsed = sp.beam_decode(tree, model.weights, beam_size=4)
    assert parsed.heads == tree.heads
    # final weights reproduce the gold derivation too
    parsed_final = sp.beam_decode(tree, model.final_weights, beam_size=4)
    assert parsed_final.heads == tree.heads


@pytest.mark.parametrize("system", [ARC_STANDARD, ARC_EAGER])
def test_other_systems_trainable(system):
    corpus = toy_corpus()
    model = sp.train_perceptron(corpus, system=system, epochs=8, beam_size=4,
                                seed=0)
    preds = sp.decode_corpus(corpus, model)
    assert all(p.heads == g.heads for p, g in zip(preds, corpus))


def test_fixed_seed_reproducible():
    corpus = toy_corpus()
    a = sp.train_perceptron(corpus, epochs=3, beam_size=4, seed=11)
    b = sp.train_perceptron(corpus, epochs=3, beam_size=4, seed=11)
    assert a.weights == b.weights
    assert a.final_weights == b.final_weights
    assert a.n_updates == b.n_updates


def test_averaged_weights_are_mean_of_snapshots():
    corpus = toy_corpus()
    epochs = 3
    model = sp.train_perceptron(corpus, epochs=epochs, beam_size=2, seed=2,
                                keep_snapshots=True)
    assert len(model.snapshots) == epochs * len(corpus)
    assert model.n_updates > 0
    keys = set()
    for snap in model.snapshots:
        keys |= set(snap)
    for key in keys:
        mean = sum(s.get(key, 0.0) for s in model.snapshots) / len(model.snapshots)
        assert model.weights.get(key, 0.0) == pytest.approx(mean, abs=1e-9)


def test_updates_stop_after_convergence():
    corpus = toy_corpus()
    base = sp.train_perceptron(corpus, epochs=5, beam_size=4, seed=0)
    longer = sp.train_perceptron(corpus, epochs=8, beam_size=4, seed=0)
    assert longer.n_updates == base.n_updates
    assert longer.final_weights == base.final_weights


def test_decode_corpus_parallel_matches_serial():
    # seven sentences, handed to two workers one at a time
    corpus = [random_projective_tree(5, seed=s) for s in range(7)]
    model = sp.train_perceptron(corpus[:2], epochs=2, beam_size=2, seed=0)
    for kw in ({}, {"depth_bound": 2}):
        serial = sp.decode_corpus(corpus, model, jobs=1, **kw)
        parallel = sp.decode_corpus(corpus, model, jobs=2, **kw)
        assert [p.heads for p in serial] == [p.heads for p in parallel]


def test_limited_feature_set_trains():
    corpus = toy_corpus()
    model = sp.train_perceptron(corpus, feature_set="limited", epochs=8,
                                beam_size=4, seed=0)
    preds = sp.decode_corpus(corpus, model)
    assert all(p.heads == g.heads for p, g in zip(preds, corpus))


# ---------------------------------------------------------------------------
# depth-bounded decoding on a shallow-derivation corpus


def right_chain(n):
    return tree_from_heads(tuple(range(n)), tags=tuple("T%d" % (i % 3) for i in range(n)))


def test_shallow_corpus_bounded_lc_beats_bounded_arc_standard():
    # right-branching chains derive at left-corner depth 1 but need the full
    # arc-standard stack, so a depth-2 stack bound ruins arc-standard while
    # depthRe <= 2 leaves the left-corner parser untouched
    corpus = [right_chain(n) for n in (5, 6, 7, 6, 5)]
    lc = sp.train_perceptron(corpus, system=LEFT_CORNER, epochs=5,
                             beam_size=4, seed=0)
    as_ = sp.train_perceptron(corpus, system=ARC_STANDARD, epochs=5,
                              beam_size=4, seed=0)

    def uas(preds):
        good = sum(
            p.heads[i] == g.heads[i]
            for p, g in zip(preds, corpus)
            for i in range(g.n)
        )
        return 100.0 * good / sum(g.n for g in corpus)

    lc_plain = uas(sp.decode_corpus(corpus, lc))
    lc_bound = uas(sp.decode_corpus(corpus, lc, depth_bound=2,
                                    depth_measure="depthRe"))
    as_plain = uas(sp.decode_corpus(corpus, as_))
    as_bound = uas(sp.decode_corpus(corpus, as_, depth_bound=2,
                                    depth_measure="raw"))
    assert lc_plain == 100.0 and as_plain == 100.0
    assert lc_bound == lc_plain
    assert as_bound <= as_plain - 10.0


# ---------------------------------------------------------------------------
# model files


def test_parser_file_roundtrip():
    corpus = toy_corpus()
    model = sp.train_perceptron(corpus, epochs=3, beam_size=4, seed=0)
    lines = sp.parser_to_lines(model)
    back = sp.parser_from_lines(lines)
    assert back.weights == model.weights
    assert back.system == model.system
    assert back.feature_set == model.feature_set
    assert back.beam_size == model.beam_size
    preds = sp.decode_corpus(corpus, back)
    assert all(p.heads == g.heads for p, g in zip(preds, corpus))


def test_parser_file_line_without_tab_is_rejected():
    lines = ["# system: leftCorner", "# beam: 4", "0=-NULL->shift 0.5"]
    with pytest.raises(ValueError, match="line 3 has no tab"):
        sp.parser_from_lines(lines)


def test_parser_file_weight_that_is_not_a_number_is_rejected():
    lines = ["# system: leftCorner", "0=-NULL->shift\t0.5",
             "0=-NULL->insert\tx1"]
    with pytest.raises(ValueError, match="line 3 has a weight that is not a "
                                         "number"):
        sp.parser_from_lines(lines)
