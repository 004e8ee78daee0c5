"""Forests taken from a shared expansion memo against fresh reference builds.

The forest cache keeps one ``hypergraph.ExpansionMemo`` per chart and depth
policy for DMV automata with no blocked position, and takes every length's
forest from it.  Whatever order the lengths arrive in, each forest must equal
``util.reference_build_forest`` array for array: same items, events, levels
and edge order.
"""

import random

import numpy as np
import pytest

from lcdep import induction, lc_chart, sbg
from lcdep.lc_chart import DepthPolicy

from tests import util
from tests.test_chart_golden import POLICIES

ARRAYS = ("item_level", "edge_head", "edge_tail", "event_ptr", "event_flat",
          "group_head", "group_ptr", "level_ptr")
PARAMS = sbg.uniform_dmv_params("NVD")


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
        ("LI", 1, sent.n + 1, 1),
        lc_chart._lc_expand(sent, policy or DepthPolicy(), blocked))


def eisner_reference(sent):
    return util.reference_build_forest(("LF", 1, sent.n + 1),
                                       sbg._eisner_expand(sent))


def check_orders(max_n, forest_of, reference_of):
    want = {n: reference_of(dmv(n)) for n in range(1, max_n + 1)}
    for lengths in orders(max_n).values():
        sbg.clear_forest_cache()
        for n in lengths:
            assert_same_forest(forest_of(dmv(n)), want[n])
    sbg.clear_forest_cache()


@pytest.mark.parametrize(
    "policy", [p for p in POLICIES if p is not None and p.max_depth],
    ids=str)
def test_bounded_lc_forests_from_the_memo_equal_fresh_builds(policy):
    check_orders(20, lambda sent: lc_chart.lc_forest(sent, policy),
                 lambda sent: lc_reference(sent, policy))


def test_unbounded_lc_forests_from_the_memo_equal_fresh_builds():
    check_orders(12, lc_chart.lc_forest, lambda sent: lc_reference(sent, None))


def test_head_split_forests_from_the_memo_equal_fresh_builds():
    check_orders(20, lambda sent: induction._chart_forest(tags_of(sent.n), sent),
                 eisner_reference)


def test_blocked_and_random_automata_build_fresh_forests():
    sbg.clear_forest_cache()
    policy = DepthPolicy(1, 3)
    for n in (9, 4, 7):
        blocked = frozenset({2, n})
        sent = dmv(n)
        assert_same_forest(lc_chart.lc_forest(sent, policy, blocked),
                           lc_reference(sent, policy, blocked))
        sent = sbg.random_sentence_automata(n, 3, random.Random(n))
        assert_same_forest(lc_chart.lc_forest(sent, policy),
                           lc_reference(sent, policy))
        assert_same_forest(induction._chart_forest(tags_of(n), sent),
                           eisner_reference(sent))
    assert not sbg._EXPANSION_MEMOS


def test_a_shorter_length_adds_only_its_root_items_to_the_memo():
    sbg.clear_forest_cache()
    policy = DepthPolicy(1, 3)
    lc_chart.lc_forest(dmv(20), policy)
    memo = sbg._EXPANSION_MEMOS["lc", "dmv", policy]
    before = set(memo.index)
    lc_chart.lc_forest(dmv(19), policy)
    added = set(memo.index) - before
    assert added and all(key[0] == 19 for key in added)
    sbg.clear_forest_cache()


def test_clearing_the_cache_drops_every_memo():
    sbg.clear_forest_cache()
    policy = DepthPolicy(1, 3)
    lc_chart.lc_forest(dmv(20), policy)
    induction._chart_forest(tags_of(20), dmv(20))
    assert len(sbg._EXPANSION_MEMOS) == 2
    sbg.clear_forest_cache()
    assert not sbg._EXPANSION_MEMOS and not sbg._FOREST_CACHE
    sent = dmv(8)
    assert_same_forest(lc_chart.lc_forest(sent, policy),
                       lc_reference(sent, policy))
    sbg.clear_forest_cache()
