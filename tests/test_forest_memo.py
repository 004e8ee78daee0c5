"""Forests taken from a shared expansion memo against fresh reference builds,
and the one forest cache of ``induction``.

Both chart builders take an optional ``hypergraph.ExpansionMemo`` of DMV
automata and take every length's forest from it.  Whatever order the lengths
arrive in, each forest must equal ``util.reference_build_forest`` array for
array: same items, events, levels and edge order.  ``induction._chart_forest``
keeps one forest per (length, policy, blocked positions) and one memo per
chart and policy, used only when nothing is blocked.
"""

import random

import numpy as np
import pytest

from lcdep import hypergraph, induction, lc_chart, sbg
from lcdep.lc_chart import DepthPolicy

from tests import util
from tests.test_chart_golden import POLICIES, blocked_sets

ARRAYS = ("item_level", "edge_head", "edge_tail", "event_ptr", "event_flat",
          "group_head", "group_ptr", "level_ptr")
PARAMS = sbg.uniform_dmv_params("NVD")
BOUNDED = [p for p in POLICIES if p is not None and p.max_depth]


def assert_same_forest(got, want):
    assert got.items == want.items
    assert got.events == want.events
    for name in ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def tags_of(n):
    return tuple("NVD"[k % 3] for k in range(n))


def dmv(n):
    return sbg.dmv_sentence_automata(tags_of(n), PARAMS)


def orders(max_n):
    lengths = list(range(1, max_n + 1))
    return {"ascending": lengths, "descending": lengths[::-1],
            "shuffled": random.Random(max_n).sample(lengths, max_n)}


def lc_reference(sent, policy, blocked=frozenset()):
    return util.reference_build_forest(
        ("ROOT", sent.n),
        lc_chart._lc_expand(sent, policy or DepthPolicy(), blocked))


def eisner_reference(sent):
    return util.reference_build_forest(("ROOT", sent.n),
                                       sbg._eisner_expand(sent))


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
        lc_chart.lc_forest(sent, policy, blocked)
        for policy in POLICIES for blocked in blocked_sets(n)]
    for forest in forests:
        assert root_event_heads(forest, n + 1) == (
            {forest.goal} if forest.n_edges else set())


def check_orders(max_n, forest_of, reference_of):
    """Every length up to max_n, in every order, from one memo per order."""
    want = {n: reference_of(dmv(n)) for n in range(1, max_n + 1)}
    for lengths in orders(max_n).values():
        memo = hypergraph.ExpansionMemo()
        for n in lengths:
            assert_same_forest(forest_of(dmv(n), memo), want[n])


@pytest.mark.parametrize("policy", BOUNDED, ids=str)
def test_bounded_lc_forests_from_the_memo_equal_fresh_builds(policy):
    check_orders(20, lambda sent, memo: lc_chart.lc_forest(sent, policy,
                                                           memo=memo),
                 lambda sent: lc_reference(sent, policy))


def test_unbounded_lc_forests_from_the_memo_equal_fresh_builds():
    check_orders(12, lambda sent, memo: lc_chart.lc_forest(sent, memo=memo),
                 lambda sent: lc_reference(sent, None))


def test_head_split_forests_from_the_memo_equal_fresh_builds():
    check_orders(20, sbg.eisner_forest, eisner_reference)


@pytest.mark.parametrize("policy", [None, DepthPolicy(1, 3)], ids=str)
def test_cached_forests_equal_fresh_builds_in_every_length_order(policy):
    # the cache builds from structure-only automata; the reference from
    # priced DMV automata of the same length
    reference = (eisner_reference if policy is None
                 else lambda sent: lc_reference(sent, policy))
    want = {n: reference(dmv(n)) for n in range(1, 13)}
    for lengths in orders(12).values():
        induction.clear_forest_cache()
        for n in lengths:
            assert_same_forest(induction._chart_forest(n, policy), want[n])
    induction.clear_forest_cache()


def test_blocked_and_random_automata_build_fresh_forests():
    induction.clear_forest_cache()
    policy = DepthPolicy(1, 3)
    for n in (9, 4, 7):
        blocked = frozenset({2, n})
        assert_same_forest(induction._chart_forest(n, policy, blocked),
                           lc_reference(dmv(n), policy, blocked))
        sent = sbg.random_sentence_automata(n, 3, random.Random(n))
        assert_same_forest(lc_chart.lc_forest(sent, policy),
                           lc_reference(sent, policy))
        assert_same_forest(sbg.eisner_forest(sent), eisner_reference(sent))
    assert not induction._MEMOS
    induction.clear_forest_cache()


def test_every_unbounded_policy_shares_one_forest_and_memo():
    induction.clear_forest_cache()
    forest = induction._chart_forest
    assert forest(6, None) is forest(6, DepthPolicy()) is forest(
        6, DepthPolicy(None, 3))
    forest(5, DepthPolicy())
    assert list(induction._MEMOS) == [None]
    blocked = frozenset({2})
    assert forest(6, None, blocked) is forest(6, DepthPolicy(), blocked)
    # a left-corner forest: the head-split chart has no LI item
    assert "LI" in {item[0] for item in forest(6, None, blocked).items}
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
                       (DepthPolicy(1, 3), induction.ConstraintSet(
                           must_head_tags=frozenset({"V"})))):
        induction.CorpusGraph(groups, space, policy, cs)
        assert built
        built.clear()
        induction.CorpusGraph(groups, space, policy, cs)
        assert not built  # every forest came from the cache
    induction.clear_forest_cache()


@pytest.mark.parametrize("build", [
    lambda sent, memo: lc_chart.lc_forest(sent, DepthPolicy(1, 3), memo=memo),
    sbg.eisner_forest,
], ids=["lc", "head-split"])
def test_a_shorter_length_adds_only_its_goal_to_the_memo(build):
    memo = hypergraph.ExpansionMemo()
    build(dmv(20), memo)
    before = set(memo.index)
    build(dmv(19), memo)
    assert set(memo.index) - before == {("ROOT", 19)}


def test_clearing_the_cache_drops_every_memo():
    induction.clear_forest_cache()
    policy = DepthPolicy(1, 3)
    induction._chart_forest(20, policy)
    induction._chart_forest(20)
    assert len(induction._MEMOS) == 2
    induction.clear_forest_cache()
    assert not induction._MEMOS and not induction._FORESTS
    assert_same_forest(induction._chart_forest(8, policy),
                       lc_reference(dmv(8), policy))
    induction.clear_forest_cache()
