"""Forests laid out from translation classes against reference builds, and
the one forest cache of ``induction``.

``induction._chart_forest`` lays out every length's DMV forest from one
``hypergraph.TranslationClasses`` table per chart and policy, must-head
sentences included, since the constraint is priced on leaf marks and not
built into the forest.  Whatever order the lengths arrive in, each forest
must equal ``util.reference_build_forest`` as sets (``util.forest_sets``):
the same items at the same levels, each item's edges in the same order, and
the same events.  The table numbers items by (level, class, offset), so ids
differ from a build's and arrays are not compared one for one.  Builds over
random automata equal the reference array for array.
"""

import collections
import random

import numpy as np
import pytest

from lcdep import hypergraph, induction, lc_chart, sbg
from lcdep.lc_chart import DepthPolicy

from tests import util
from tests.test_chart_golden import POLICIES

ARRAYS = ("item_level", "edge_head", "edge_tail", "event_ptr", "event_flat",
          "group_head", "group_ptr", "level_ptr")
PARAMS = sbg.uniform_dmv_params("NVD")
BOUNDED = [p for p in POLICIES if p is not None and p.max_depth]


def assert_same_arrays(got, want):
    assert list(got.items) == list(want.items)
    assert list(got.events) == list(want.events)
    for name in ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def summary(forest):
    """The forest up to ids; a DMV forest has no dead item, so the goal
    reaches every item of it."""
    return (util.forest_sets(forest), forest.n_items, forest.n_edges,
            collections.Counter(forest.events), forest.goal,
            forest.items[forest.goal_id])


def tags_of(n):
    return tuple("NVD"[k % 3] for k in range(n))


def dmv(n):
    return sbg.dmv_sentence_automata(tags_of(n), PARAMS)


def orders(max_n):
    lengths = list(range(max_n + 1))
    return {"ascending": lengths, "descending": lengths[::-1],
            "shuffled": random.Random(max_n).sample(lengths, max_n + 1)}


def reference(sent, policy):
    """A fresh build of the chart that ``induction._chart_forest`` uses
    for ``policy``: the head-split chart for None."""
    expand = (sbg._eisner_expand(sent) if policy is None
              else lc_chart._lc_expand(sent, policy))
    return util.reference_build_forest(("ROOT", sent.n), expand)


def root_event_heads(forest, root):
    """The items heading an edge that charges an event of position root."""
    events = {k for k, ev in enumerate(forest.events) if ev[1] == root}
    ptr, flat = forest.event_ptr, forest.event_flat
    return {forest.items[h]
            for e, h in enumerate(forest.edge_head.tolist())
            if events.intersection(flat[ptr[e]:ptr[e + 1]].tolist())}


@pytest.mark.parametrize("n", range(1, 13))
def test_only_the_goal_charges_root_events(n):
    # so that every other item has the same edges at every length
    sent = dmv(n)
    forests = [sbg.eisner_forest(sent)] + [
        lc_chart.lc_forest(sent, policy) for policy in POLICIES]
    for forest in forests:
        assert root_event_heads(forest, n + 1) == (
            {forest.goal} if forest.n_edges else set())


@pytest.mark.parametrize("policy", [None] + BOUNDED, ids=str)
def test_cached_forests_equal_fresh_builds_in_every_length_order(policy):
    # the cache lays out structure-only automata; the reference builds
    # priced DMV automata of the same length
    want = {n: summary(reference(dmv(n), policy)) for n in range(21)}
    for lengths in orders(20).values():
        induction.clear_forest_cache()
        for n in lengths:
            assert summary(induction._chart_forest(n, policy)) == want[n]
    induction.clear_forest_cache()


def test_unbounded_lc_forests_from_one_table_equal_fresh_builds():
    # the table the cache keeps for must-head sentences with no depth
    # bound, filled in every length order
    policy = DepthPolicy()
    want = {n: summary(reference(dmv(n), policy)) for n in range(11)}
    for lengths in orders(10).values():
        table = hypergraph.TranslationClasses(
            lambda item: lc_chart.POSITIONS[item[0]], sbg.event_positions)
        for n in lengths:
            expand = lc_chart._lc_expand(dmv(n), policy)
            assert summary(table.forest(("ROOT", n), expand, n)) == want[n]


@pytest.mark.parametrize("policy", [None, DepthPolicy(1, 3)], ids=str)
@pytest.mark.parametrize("n", range(9))
def test_event_fields_of_a_laid_out_forest_are_those_of_its_events(policy,
                                                                   n):
    # laid-out events are read from their classes, moved by their offsets
    induction.clear_forest_cache()
    forest = induction._chart_forest(n, policy)
    assert isinstance(forest.events, hypergraph.Shifted)
    np.testing.assert_array_equal(sbg._event_fields(forest),
                                  sbg._fields_of(list(forest.events)))
    induction.clear_forest_cache()


@pytest.mark.parametrize("weights", ["random", "uniform"])
@pytest.mark.parametrize("policy", [None] + BOUNDED, ids=str)
def test_laid_out_forests_price_as_fresh_builds(policy, weights):
    # uniform weights tie many trees, so the Viterbi tie-break is exercised
    rng = random.Random("%s %s" % (policy, weights))
    params = (PARAMS if weights == "uniform"
              else sbg.random_dmv_params("NVD", rng))
    induction.clear_forest_cache()
    for n in range(1, 11):
        tags = tuple(rng.choice("NVD") for _ in range(n))
        sent = sbg.dmv_sentence_automata(tags, params)
        got, want = induction._chart_forest(n, policy), reference(sent,
                                                                  policy)
        assert (sbg.forest_inside(got, sent, "count")[1]
                == sbg.forest_inside(want, sent, "count")[1])
        got_counts, got_z = sbg.forest_expected_counts(got, sent)
        want_counts, want_z = sbg.forest_expected_counts(want, sent)
        assert got_z == pytest.approx(want_z, abs=1e-9)
        assert got_counts.keys() == want_counts.keys()
        for event, count in want_counts.items():
            assert got_counts[event] == pytest.approx(count, abs=1e-9)
        assert (sbg.forest_viterbi(got, sent, tags).heads
                == sbg.forest_viterbi(want, sent, tags).heads)
    induction.clear_forest_cache()


def test_must_head_and_random_automata_forests_equal_fresh_builds():
    # must-head sentences take the left-corner forest from its table
    induction.clear_forest_cache()
    for policy in (DepthPolicy(1, 3), DepthPolicy()):
        for n in (9, 4, 7):
            assert summary(induction._chart_forest(n, policy, True)) == (
                summary(reference(dmv(n), policy)))
            sent = sbg.random_sentence_automata(n, 3, random.Random(n))
            assert_same_arrays(lc_chart.lc_forest(sent, policy),
                               reference(sent, policy))
            assert_same_arrays(sbg.eisner_forest(sent), reference(sent,
                                                                  None))
    assert set(induction._CLASSES) == {DepthPolicy(1, 3), DepthPolicy()}
    induction.clear_forest_cache()


def test_every_unbounded_policy_shares_one_forest_and_table():
    induction.clear_forest_cache()
    forest = induction._chart_forest
    assert forest(6, None) is forest(6, DepthPolicy()) is forest(
        6, DepthPolicy(None, 3))
    forest(5, DepthPolicy())
    assert list(induction._CLASSES) == [None]
    assert forest(6, None, True) is forest(6, DepthPolicy(), True)
    # a left-corner forest: the head-split chart has no LI item
    assert "LI" in {item[0] for item in forest(6, None, True).items}
    assert list(induction._CLASSES) == [None, DepthPolicy()]
    induction.clear_forest_cache()


@pytest.mark.parametrize("policy", [None, DepthPolicy(1, 3)], ids=str)
def test_must_head_training_keeps_one_forest_per_length_and_chart(policy):
    # the ADPs of one length sit at different positions; their sentences
    # share the left-corner forest of that length, priced per sentence
    corpus = [("ADP", "NOUN", "VERB"), ("NOUN", "ADP", "NOUN"),
              ("VERB", "NOUN", "ADP"), ("NOUN", "VERB", "NOUN"),
              ("ADP", "DET", "NOUN", "VERB"), ("DET", "NOUN", "ADP", "NOUN"),
              ("VERB", "ADP", "DET", "NOUN"), ("NOUN", "VERB")]
    induction.clear_forest_cache()
    cfg = induction.TrainConfig(em_iterations=2, adp_head=True,
                                depth_bound=policy and policy.max_depth,
                                size_cutoff=3)
    model = induction.train(corpus, cfg)
    induction.decode_constrained((model.space, model.weights), corpus,
                                 cfg.constraint_set(), cfg.policy())
    induction.decode((model.space, model.weights), corpus)
    # the harmonic initialisation and the plain decode use the head-split
    # chart; the E-steps and the constrained decode use the left-corner
    # chart for every sentence under a depth bound, else for those with an
    # ADP
    lc = policy or DepthPolicy()
    want = {(len(tags), None) for tags in corpus} | {
        (len(tags), lc) for tags in corpus if policy or "ADP" in tags}
    assert set(induction._FORESTS) == want
    induction.clear_forest_cache()


def test_a_second_corpus_graph_builds_no_automata(monkeypatch):
    built = []

    class Counted(sbg.SentenceAutomata):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(sbg, "SentenceAutomata", Counted)
    induction.clear_forest_cache()
    groups = [(tags_of(3), 1), (tags_of(5), 2), (tags_of(5)[::-1], 1),
              (tags_of(7), 1)]
    space = util.feature_space(groups)
    for policy, cs in ((None, induction.ConstraintSet()),
                       (DepthPolicy(1, 3), induction.ConstraintSet()),
                       (None, induction.ConstraintSet(
                           must_head_tags=frozenset({"V"})))):
        induction.CorpusGraph(groups, space, policy, cs)
        assert built
        built.clear()
        induction.CorpusGraph(groups, space, policy, cs)
        assert not built  # every forest came from the cache
    induction.clear_forest_cache()


@pytest.mark.parametrize("policy", [None, DepthPolicy(1, 3)], ids=str)
def test_shorter_lengths_add_no_class(policy):
    # every class of a shorter length's forest fits in a longer one
    induction.clear_forest_cache()
    induction._chart_forest(20, policy)
    table = induction._CLASSES[policy]
    classes, events = len(table.items), len(table.events)
    for n in range(19, -1, -1):
        induction._chart_forest(n, policy)
    assert (len(table.items), len(table.events)) == (classes, events)
    induction.clear_forest_cache()


def test_clearing_the_cache_drops_every_class_table():
    induction.clear_forest_cache()
    policy = DepthPolicy(1, 3)
    induction._chart_forest(20, policy)
    induction._chart_forest(20)
    assert len(induction._CLASSES) == 2
    induction.clear_forest_cache()
    assert not induction._CLASSES and not induction._FORESTS
    assert summary(induction._chart_forest(8, policy)) == summary(
        reference(dmv(8), policy))
    induction.clear_forest_cache()
