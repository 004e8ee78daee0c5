"""The corpus-graph E-step and decoders pinned to the per-sentence
reference.

At fixed parameters ``induction.estep`` and ``CorpusGraph.harmonic`` must
agree with ``tests/util.py``'s sentence-at-a-time E-step: counts and
log-likelihood within 1e-9 and equal skipped counts, under every chart and
constraint configuration.  ``induction.decode`` and
``induction.decode_constrained`` must give the trees of
``util.reference_decode``, tie-break included, or fail on the same input.
"""

import math
import random

import numpy as np
import pytest

from lcdep import hypergraph, induction, sbg
from lcdep.hypergraph import NEG_INF
from lcdep.lc_chart import DepthPolicy
from tests import util

TAGSET = ("ADP", "DET", "NOUN", "PRON", "VERB")
CHARTS = {"unbounded": None, "D1C3": DepthPolicy(1, 3),
          "D2C1": DepthPolicy(2, 1)}
CONSTRAINTS = {
    "none": (induction.ConstraintSet(), None),
    "function-words": (induction.ConstraintSet(
        stop_one_tags=frozenset({"DET", "ADP"})), None),
    "verb-or-noun": (induction.ConstraintSet(root_mode="verb-or-noun"),
                     None),
    "verb-otherwise-noun": (induction.ConstraintSet(
        root_mode="verb-otherwise-noun"), None),
    "adp-head": (induction.ConstraintSet(
        must_head_tags=frozenset({"ADP"})), None),
    "length-bias": (induction.ConstraintSet(), 0.5),
}
FIELDS = ("attach", "stop", "cont", "root")


def corpus_groups(seed, n_sent=14, max_len=7):
    """Groups of a random corpus; every third sentence repeats one before
    it, so some groups have a multiplicity above one."""
    rng = random.Random(seed)
    corpus = []
    for k in range(n_sent):
        if k % 3 == 2:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(tuple(rng.choice(TAGSET)
                                for _ in range(rng.randint(1, max_len))))
    return induction.corpus_groups(corpus)


def decoded(decoder, *args):
    """The trees ``decoder(*args)`` gives, or the message of the ValueError
    it raises."""
    try:
        return decoder(*args)
    except ValueError as exc:
        return str(exc)


def assert_estep_close(got, want, tol=1e-9):
    counts, loglik, skipped = got
    want_counts, want_loglik, want_skipped = want
    assert skipped == want_skipped
    assert abs(loglik - want_loglik) <= tol
    for field in FIELDS:
        g, w = getattr(counts, field), getattr(want_counts, field)
        for key in set(g) | set(w):
            assert abs(g.get(key, 0.0) - w.get(key, 0.0)) <= tol, (field,
                                                                  key)


@pytest.mark.parametrize("constraint", sorted(CONSTRAINTS))
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_estep_matches_the_per_sentence_reference(chart, constraint):
    cs, beta = CONSTRAINTS[constraint]
    policy = CHARTS[chart]
    groups = corpus_groups("%s %s" % (chart, constraint))
    params = sbg.random_dmv_params(TAGSET, random.Random(constraint))
    want = util.reference_estep(groups, params, cs, policy, beta)
    assert_estep_close(induction.estep(groups, params, cs, policy, beta),
                       want)


@pytest.mark.parametrize("weights", ["random", "uniform"])
@pytest.mark.parametrize("constraint", sorted(CONSTRAINTS))
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_decoding_matches_the_per_sentence_reference(chart, constraint,
                                                     weights):
    # uniform weights give every tree of a sentence one weight (up to
    # rounding), so the lexicographic tie-break picks the trees
    cs, beta = CONSTRAINTS[constraint]
    policy = CHARTS[chart]
    rng = random.Random("%s %s %s" % (chart, constraint, weights))
    params = (sbg.uniform_dmv_params(TAGSET) if weights == "uniform"
              else sbg.random_dmv_params(TAGSET, rng))
    corpus = [tags for tags, mult in corpus_groups(rng.random())
              for _ in range(mult)]
    rng.shuffle(corpus)
    decodable = []
    for tags in corpus:
        want = decoded(util.reference_decode, params, [tags], cs, policy,
                       beta)
        assert decoded(induction.decode_constrained, params, [tags], cs,
                       policy, beta) == want
        if isinstance(want, list):
            decodable.append(tags)
    assert len(decodable) > len(corpus) // 2
    assert induction.decode_constrained(params, decodable, cs, policy,
                                        beta) == util.reference_decode(
        params, decodable, cs, policy, beta)
    assert induction.decode(params, corpus) == util.reference_decode(
        params, corpus, induction.ConstraintSet())


def test_decoding_an_empty_corpus_gives_no_trees():
    params = sbg.uniform_dmv_params(TAGSET)
    cs = induction.ConstraintSet(must_head_tags=frozenset({"ADP"}))
    assert induction.decode(params, []) == []
    assert induction.decode_constrained(params, [], cs, DepthPolicy(1, 3),
                                        0.5) == []


def test_repeated_sequences_are_decoded_once_in_input_order(monkeypatch):
    graphs = []
    graph = induction.CorpusGraph

    def recording(groups, *args):
        graphs.append(groups)
        return graph(groups, *args)

    monkeypatch.setattr(induction, "CorpusGraph", recording)
    a, b, c = ("NOUN", "VERB"), ("DET", "NOUN", "VERB"), ("VERB",)
    corpus = [b, a, b, c, a, b]
    params = sbg.random_dmv_params(TAGSET, random.Random(23))
    trees = induction.decode(params, corpus)
    [groups] = graphs
    assert sorted(tags for tags, _ in groups) == sorted({a, b, c})
    assert [tree.tags for tree in trees] == corpus
    assert trees == util.reference_decode(params, corpus,
                                          induction.ConstraintSet())


def test_event_weights_equal_the_priced_automata_exactly():
    cs = induction.ConstraintSet(stop_one_tags=frozenset({"DET"}),
                                 must_head_tags=frozenset({"ADP"}),
                                 root_mode="verb-or-noun")
    groups = corpus_groups(5)
    params = sbg.random_dmv_params(TAGSET, random.Random(5))
    space = util.feature_space(groups)
    graph = induction.CorpusGraph(groups, space, DepthPolicy(1, 3), cs, 0.5)
    got = graph.prices(induction._decision_logw(space, params))
    want = []
    for tags, _ in groups:
        sent = util.apply_constraints(params, tags, cs, 0.5)
        forest = induction._chart_forest(len(tags), DepthPolicy(1, 3))
        want.append(forest.event_weights(sent.event_logw))
    np.testing.assert_array_equal(got, np.concatenate(want))


ENTRIES = ("estep", "sentence_expectations", "decode", "decode_constrained")


@pytest.mark.parametrize("entry", ENTRIES)
def test_no_public_entry_calls_another(entry, monkeypatch):
    # the benchmark times these four by name, so none may run inside another
    def refuse(*args, **kwargs):
        raise AssertionError("an entry called another")

    params = sbg.random_dmv_params(TAGSET, random.Random(29))
    cs = induction.ConstraintSet(root_mode="verb-or-noun")
    groups = corpus_groups(29, n_sent=4, max_len=4)
    call = {
        "estep": lambda: induction.estep(groups, params, cs),
        "sentence_expectations": lambda: induction.sentence_expectations(
            groups[0][0], params, cs),
        "decode": lambda: induction.decode(params, [groups[0][0]]),
        "decode_constrained": lambda: induction.decode_constrained(
            params, [tags for tags, _ in groups], cs, DepthPolicy(1, 3)),
    }[entry]
    want = call()
    for other in ENTRIES:
        if other != entry:
            monkeypatch.setattr(induction, other, refuse)
    assert call() == want


def test_a_group_without_constrained_mass_is_skipped():
    # a lone ADP cannot head anything, so its sentence has no analysis
    groups = induction.corpus_groups(
        [("ADP",), ("ADP",), ("NOUN", "ADP", "NOUN"), ("VERB", "NOUN")])
    cs = induction.ConstraintSet(must_head_tags=frozenset({"ADP"}))
    params = sbg.random_dmv_params(TAGSET, random.Random(2))
    for policy in CHARTS.values():
        got = induction.estep(groups, params, cs, policy)
        assert got[2] == 2
        assert_estep_close(got, util.reference_estep(groups, params, cs,
                                                     policy))
        for decoder in (induction.decode_constrained, util.reference_decode):
            with pytest.raises(ValueError,
                               match="no derivation has nonzero weight"):
                decoder(params, [("ADP",)], cs, policy)


def test_a_decode_names_the_first_sentence_without_a_derivation():
    # an ADP must head, and the root must be the noun: ADP PROPN has no tree
    params = sbg.random_dmv_params(TAGSET + ("PROPN",), random.Random(4))
    cs = induction.TrainConfig(root_constraint="verb-or-noun",
                               adp_head=True).constraint_set()
    corpus = [("NOUN", "VERB"), ("ADP", "PROPN"), ("DET", "NOUN"),
              ("ADP", "PROPN")]
    for policy in CHARTS.values():
        for decoder in (induction.decode_constrained, util.reference_decode):
            assert decoded(decoder, params, corpus, cs, policy) == (
                "no derivation has nonzero weight for sentence 1 of the "
                "corpus, tags ('ADP', 'PROPN')")
    assert decoded(induction.decode, params,
                   [("NOUN",), ("VERB", "NOUN"), (), ()]) == (
        "no derivation has nonzero weight for sentence 2 of the corpus, "
        "tags ()")


def _params_with(value, tags=TAGSET):
    """Random parameters whose every probability out of a head or
    dependent tag in ``tags`` is ``value``."""
    params = sbg.random_dmv_params(TAGSET, random.Random(3))
    return sbg.DmvParams(
        attach={k: {d: value if k[0] in tags or d in tags else p
                    for d, p in row.items()}
                for k, row in params.attach.items()},
        stop={k: value if k[0] in tags else p
              for k, p in params.stop.items()},
        root={d: value if d in tags else p for d, p in params.root.items()},
    )


# no constraint, and the must-head constraint, whose -inf leaf marks then
# share edges with -inf events
DEGENERATE = {"none": induction.ConstraintSet(),
              "adp-head": CONSTRAINTS["adp-head"][0]}


@pytest.mark.parametrize("constraint", sorted(DEGENERATE))
@pytest.mark.parametrize("tags", [TAGSET, ("ADP",)], ids=["all", "adp"])
@pytest.mark.parametrize("value", [float("nan"), 0.0], ids=["nan", "zero"])
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_degenerate_weights_behave_as_the_reference(chart, value, tags,
                                                    constraint, recwarn):
    groups = corpus_groups(9)
    params = _params_with(value, tags)
    cs = DEGENERATE[constraint]
    got = induction.estep(groups, params, cs, CHARTS[chart])
    want = util.reference_estep(groups, params, cs, CHARTS[chart])
    assert_estep_close(got, want)
    assert got[2] > 0
    if tags == TAGSET:
        assert got[2] == sum(mult for _, mult in groups)
        assert got[1] == 0.0
        assert not any(getattr(got[0], field) for field in FIELDS)
    # decoding the corpus, and each sentence alone, gives the reference's
    # trees or fails as it does
    corpus = [seq for seq, _ in groups]
    for sentences in [corpus] + [[seq] for seq in corpus]:
        want = decoded(util.reference_decode, params, sentences, cs,
                       CHARTS[chart])
        assert (isinstance(want, str)
                and want.startswith(sbg.NO_DERIVATION + " for sentence ")
                or isinstance(want, list) and tags != TAGSET)
        assert decoded(induction.decode_constrained, params, sentences, cs,
                       CHARTS[chart]) == want
        assert decoded(induction.decode, params, sentences) == decoded(
            util.reference_decode, params, sentences,
            induction.ConstraintSet())
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("constraint", sorted(DEGENERATE))
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_nan_event_weights_skip_every_group(chart, constraint, recwarn):
    # probabilities price to -inf, never NaN (sbg._log), so NaN event
    # weights are set directly; each sentence's forest then has a NaN
    # log marginal, which the reference skips too
    groups = corpus_groups(21)
    cs = DEGENERATE[constraint]
    graph = induction.CorpusGraph(groups, util.feature_space(groups),
                                  CHARTS[chart], cs)
    counts, loglik, skipped = graph.expectations(
        np.full(len(graph.forest.events), np.nan))
    assert skipped == sum(mult for _, mult in groups)
    assert loglik == 0.0 and not counts.any()
    for tags, _ in groups:
        forest = induction._chart_forest(len(tags), CHARTS[chart],
                                         bool(cs.blocked_positions(tags)))
        logz, _ = hypergraph.event_posteriors(
            forest, np.full(len(forest.events), np.nan))
        assert math.isnan(logz)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_harmonic_counts_match_the_per_sentence_reference():
    groups = corpus_groups(13)
    got = util.harmonic_counts(groups)
    assert_estep_close((got, 0.0, 0),
                       (util.reference_harmonic_counts(groups), 0.0, 0))


def test_training_assembles_each_corpus_graph_once(monkeypatch):
    built = []
    graph = induction.CorpusGraph

    def counting(*args):
        built.append(args[0])
        return graph(*args)

    monkeypatch.setattr(induction, "CorpusGraph", counting)
    corpus = [tags for tags, _ in corpus_groups(17)]
    induction.train(corpus, induction.TrainConfig(em_iterations=3, tol=0))
    assert len(built) == 1  # harmonic and E-steps share the cubic chart
    built.clear()
    model = induction.train(corpus, induction.TrainConfig(
        em_iterations=3, tol=0, depth_bound=1, size_cutoff=3))
    assert len(built) == 2  # the harmonic graph, then the bounded one
    assert [it for it, _, _ in model.step_seconds] == [0, 1, 2, 3]
    assert all(e_s > 0 and m_s > 0 for _, e_s, m_s in model.step_seconds)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_a_length_bias_that_is_not_finite_is_rejected(beta):
    # every E-step and decode prices through a corpus graph
    corpus = [("DET", "NOUN", "VERB")]
    params = sbg.uniform_dmv_params(TAGSET)
    space = util.feature_space([(corpus[0], 1)])
    cs = induction.ConstraintSet()
    with pytest.raises(ValueError, match=r"length_bias \(beta\) must be"):
        induction.CorpusGraph([(corpus[0], 1)], space, None, cs, beta)
    with pytest.raises(ValueError, match="must be finite"):
        induction.estep([(corpus[0], 1)], params, cs, length_bias=beta)
    with pytest.raises(ValueError, match="must be finite"):
        induction.train(corpus, induction.TrainConfig(
            init="uniform", em_iterations=1, length_bias=beta))
    model = induction.train(corpus, induction.TrainConfig(em_iterations=1))
    with pytest.raises(ValueError, match="must be finite"):
        induction.decode_constrained((model.space, model.weights), corpus,
                                     cs, DepthPolicy(1, 3), beta)


def test_empty_corpus_estep_is_zero():
    counts, loglik, skipped = induction.estep([], sbg.uniform_dmv_params(
        TAGSET), induction.ConstraintSet())
    assert (loglik, skipped) == (0.0, 0)
    assert not any(getattr(counts, field) for field in FIELDS)


def test_sentence_expectations_match_the_reference():
    params = sbg.random_dmv_params(TAGSET, random.Random(19))
    cs = induction.ConstraintSet(root_mode="verb-otherwise-noun")
    for tags, _ in corpus_groups(19):
        counts, logz = induction.sentence_expectations(
            tags, params, cs, DepthPolicy(1, 3), 0.5)
        want, want_logz = util.reference_sentence_expectations(
            tags, params, cs, DepthPolicy(1, 3), 0.5)
        if want is None:
            assert counts is None and logz == NEG_INF
            continue
        assert math.isclose(logz, want_logz, abs_tol=1e-9)
        assert_estep_close((counts, 0.0, 0), (want, 0.0, 0))


def automata_from_decisions(space, logw, tags, cs):
    """DMV automata of ``tags`` priced from one log-weight per decision of
    ``space``, as EM prices them: a transition weighs its attachment plus
    its continue decision, a final its stop decision.  A tag of
    ``cs.stop_one_tags`` stops at once: weight 0 to stop, -inf to go on."""
    n = len(tags)
    ids = [space.tag_id[t] for t in tags]
    sent = sbg.SentenceAutomata(n)
    for h in range(1, n + 1):
        stop_one = tags[h - 1] in cs.stop_one_tags
        for s, side in enumerate((sbg.LEFT, sbg.RIGHT)):
            deps = range(1, h) if side == sbg.LEFT else range(h + 1, n + 1)
            final = {q: 0.0 if stop_one
                     else logw[space.stop_at[ids[h - 1], s, q]]
                     for q in (0, 1)}
            trans = [(q, d, 1, logw[space.attach_at[ids[h - 1], s,
                                                    ids[d - 1]]]
                      + (NEG_INF if stop_one
                         else logw[space.cont_at[ids[h - 1], s, q]]))
                     for d in deps for q in (0, 1)]
            sent.add_machine(side, h, {0: 0.0}, final, trans)
    sbg._add_root_machine(sent, n,
                          lambda d: logw[space.root_at[ids[d - 1]]])
    return sent


@pytest.mark.parametrize("seed", [4, 9])
def test_decoding_from_weights_prices_as_em(seed):
    # at weight scale 20 some stop probabilities round to 1, so pricing a
    # continue decision as log(1 - p_stop) gives -inf where the weights'
    # log-softmax does not; decoding from the weights keeps EM's prices
    rng = random.Random(seed)
    space = induction.FeatureSpace(TAGSET)
    w = 20 * np.array([rng.gauss(0, 1) for _ in range(space.n_features)])
    logw = space._log_softmax(w)
    assert np.isfinite(logw).all()
    assert np.isneginf(induction._decision_logw(
        space, space.weights_to_params(w))).any()
    corpus = [tuple(rng.choice(TAGSET) for _ in range(rng.randint(1, 6)))
              for _ in range(12)]
    plain = induction.ConstraintSet()
    for cs in (plain,
               induction.ConstraintSet(stop_one_tags=frozenset({"DET"}))):
        want = [sbg.brute_force_viterbi(
            tags, automata_from_decisions(space, logw, tags, cs))[1]
            for tags in corpus]
        got = induction.decode_constrained((space, w), corpus, cs)
        assert [tree.heads for tree in got] == want
        if cs == plain:
            got = induction.decode((space, w), corpus)
            assert [tree.heads for tree in got] == want
