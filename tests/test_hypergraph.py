"""Direct checks of the weighted-hypergraph engine."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcdep import hypergraph, lc_chart, sbg
from lcdep.hypergraph import NEG_INF

from tests import util


def build_chain(edge_event_lists):
    """A forest that is a single chain: item k has one edge to item k-1
    (item 0 is a leaf), with the given event-id lists on the edges."""
    n_events = 1 + max((max(e) for e in edge_event_lists if e), default=0)
    events = [("ev", k) for k in range(n_events)]

    def expand(item):
        k = item[1]
        if k == 0:
            return [((), tuple(events[i] for i in edge_event_lists[0]))]
        return [
            ((("it", k - 1),), tuple(events[i] for i in edge_event_lists[k]))
        ]

    return hypergraph.build_forest(("it", len(edge_event_lists) - 1), expand)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_edge_weights_sum_each_edges_events(edge_event_lists):
    forest = build_chain(edge_event_lists)
    eventw = np.arange(1.0, len(forest.events) + 1.0)
    got = forest.edge_weights(eventw)
    for e in range(forest.n_edges):
        expected = sum(eventw[k] for k in util.edge_events(forest, e))
        assert got[e] == pytest.approx(expected)


def test_edge_weights_multi_event_edge_before_empty_edge():
    # a two-event edge followed by event-free edges; the vectorized sum must
    # not truncate the first edge's segment
    forest = build_chain([[0, 1], [], []])
    eventw = np.array([2.0, 3.0] + [0.0] * (len(forest.events) - 2))
    got = forest.edge_weights(eventw)
    first = [
        e
        for e in range(forest.n_edges)
        if len(util.edge_events(forest, e)) == 2
    ]
    assert got[first[0]] == pytest.approx(5.0)
    assert sum(abs(x) for x in got) == pytest.approx(5.0)


def test_inside_logsum_diamond_adds_parallel_edges():
    events = {"a": math.log(0.25), "b": math.log(0.5)}

    def expand(item):
        if item == "goal":
            return [((), (("ev", "a"),)), ((), (("ev", "b"),))]
        raise AssertionError

    forest = hypergraph.build_forest("goal", expand)
    eventw = forest.event_weights(lambda ev: events[ev[1]])
    inside = hypergraph.inside_logsum(forest, eventw)
    assert inside[forest.goal_id] == pytest.approx(math.log(0.75))


def test_cycle_detection():
    def expand(item):
        return [(((item + 1) % 2,), ())] if isinstance(item, int) else []

    with pytest.raises(ValueError):
        hypergraph.build_forest(0, expand)


def test_cycle_below_a_dead_item_is_named():
    # the goal's only edge needs D, which has no edges; C1 <-> C2 below A
    # can never be derived either, but a cycle is still an error
    table = {
        "goal": [(("A", "D"), ())],
        "A": [(("C1",), ()), ((), (("ev", 0),))],
        "C1": [(("C2",), ())],
        "C2": [(("C1",), ()), ((), ())],
        "D": [],
    }
    with pytest.raises(ValueError, match="cyclic chart expansion at C"):
        hypergraph.build_forest("goal", table.__getitem__)


def test_three_tails_rejected():
    table = {"goal": [((), ()), (("A", "A", "A"), ())], "A": [((), ())]}
    with pytest.raises(ValueError, match="edge with 3 tails at goal"):
        hypergraph.build_forest("goal", table.__getitem__)


@st.composite
def random_expansions(draw):
    """(expand, goal) of a random expansion over items ("i", k): edges
    with no, one, two (shared, repeated) or now and then three tails,
    parallel edges, items with no edges (dead, and so is every edge that
    uses them), and, unless tails are drawn from higher k only, cycles,
    reachable from the goal or not, and below dead items or not."""
    n = draw(st.integers(min_value=1, max_value=8))
    acyclic = draw(st.booleans())
    max_tails = draw(st.sampled_from([2, 2, 2, 3]))
    event = st.integers(min_value=0, max_value=4)
    table = {}
    for k in range(n):
        pool = range(k + 1, n) if acyclic else range(n)
        tails = (st.lists(st.sampled_from(pool), max_size=max_tails) if pool
                 else st.just([]))
        edges = draw(st.lists(st.tuples(tails, st.lists(event, max_size=3)),
                              max_size=4))
        if edges and draw(st.booleans()):
            edges.append((edges[0][0], draw(st.lists(event, max_size=3))))
        table[k] = [
            (tuple(("i", t) for t in ts), tuple(("e", j) for j in evs))
            for ts, evs in edges
        ]
    return (lambda item: table[item[1]]), ("i", 0)


@settings(max_examples=400, deadline=None)
@given(random_expansions())
def test_one_pass_build_matches_reference_dfs(case):
    # the build numbers items by (level, class, offset), the reference by
    # discovery, so they are compared as sets
    expand, goal = case
    try:
        ref = util.reference_build_forest(goal, expand)
    except ValueError:
        with pytest.raises(ValueError):
            hypergraph.build_forest(goal, expand)
        return
    forest = hypergraph.build_forest(goal, expand)
    levels, _ = sets = util.forest_sets(forest)
    assert sets == util.forest_sets(ref)
    # it keeps only what the goal reaches through derivable edges
    assert len(levels) == forest.n_items
    assert (hypergraph.inside_count(forest)[forest.goal_id]
            == hypergraph.inside_count(ref)[ref.goal_id])


def test_a_goal_with_no_derivation_lays_out_as_the_goal_alone():
    # the goal's only edge needs D, which has no edges; A below it is
    # derivable, but unreached
    table = {"goal": [(("A", "D"), (("ev", 0),))],
             "A": [((), (("ev", 1),))], "D": []}
    forest = hypergraph.build_forest("goal", table.__getitem__)
    assert list(forest.items) == ["goal"]
    assert list(forest.events) == []
    assert forest.n_edges == 0
    assert forest.item_level.tolist() == [-1]
    # the random 3-state automata at n = 9 under D1/C3 derive nothing
    sent = sbg.random_sentence_automata(9, 3, random.Random(9))
    forest = lc_chart.lc_forest(sent, lc_chart.DepthPolicy(1, 3))
    assert (forest.n_items, forest.n_edges, len(forest.events)) == (1, 0, 0)
    assert hypergraph.inside_count(forest) == [0]


@st.composite
def random_span_charts(draw):
    """(expand, lengths) of a random chart that is the same under
    translation and at every length.  An item ("x", k, i, j) of kind k over
    the span i..j has the edges drawn for (k, j - i + 1): at most two tails
    over sub-spans, and events ("e", a position of the span, label).  The
    goal ("ROOT", n) has an edge to ("x", 0, 1, n) and one to each split
    ("x", 1, 1, i), ("x", 2, i + 1, n).  An item with no edges is dead, and
    so is every edge that uses it; unless the chart is drawn acyclic, a
    tail as wide as its head may have any kind, which makes cycles."""
    kinds, max_n = 3, 5
    acyclic = draw(st.booleans())
    rules = {}
    for k in range(kinds):
        for w in range(1, max_n + 1):
            tail = st.integers(1, w).flatmap(
                lambda tw, w=w: st.tuples(st.integers(0, kinds - 1),
                                          st.integers(0, w - tw), st.just(tw)))
            event = st.tuples(st.integers(0, w - 1), st.integers(0, 1))
            edges = draw(st.lists(st.tuples(st.lists(tail, max_size=2),
                                            st.lists(event, max_size=2)),
                                  max_size=3))
            rules[k, w] = [
                (tails, evs) for tails, evs in edges
                if not (acyclic and any(tw == w and k2 <= k
                                        for k2, _, tw in tails))]
    lengths = draw(st.lists(st.integers(0, max_n), min_size=1, max_size=6))

    def expand(item):
        if item[0] == "ROOT":
            n = item[1]
            return ([((("x", 0, 1, n),), (("e", n, 9),))] if n else []) + [
                ((("x", 1, 1, i), ("x", 2, i + 1, n)), ())
                for i in range(1, n)]
        _, k, i, j = item
        return [(tuple(("x", k2, i + a, i + a + tw - 1) for k2, a, tw in tails),
                 tuple(("e", i + a, label) for a, label in evs))
                for tails, evs in rules[k, j - i + 1]]

    return expand, lengths


@settings(max_examples=150, deadline=None)
@given(random_span_charts())
def test_translation_classes_lay_out_the_reference_forests(case):
    # one table serves the lengths in the order drawn; a length whose
    # expansion has a cycle fails and leaves the table usable
    expand, lengths = case
    # the goal has no position field: each length's goal is a class
    table = hypergraph.TranslationClasses(
        lambda item: () if item[0] == "ROOT" else (2, 3), lambda event: (1,))
    for n in lengths:
        goal = ("ROOT", n)
        try:
            want = util.reference_build_forest(goal, expand)
        except ValueError:
            with pytest.raises(ValueError, match="cyclic"):
                table.forest(goal, expand, n)
            continue
        got = table.forest(goal, expand, n)
        levels, edges = util.forest_sets(got)
        assert (levels, edges) == util.forest_sets(want)
        # the goal reaches every item, and every event once
        assert len(levels) == got.n_items
        assert sorted(got.events) == sorted(
            {ev for item_edges in edges.values()
             for _, evs in item_edges for ev in evs})
        assert (hypergraph.inside_count(got)[got.goal_id]
                == hypergraph.inside_count(want)[want.goal_id])

        def eventw(forest):
            return np.array([0.25 * ev[1] - 0.5 * ev[2]
                             for ev in forest.events])

        assert hypergraph.inside_logsum(got, eventw(got))[got.goal_id] == (
            pytest.approx(hypergraph.inside_logsum(
                want, eventw(want))[want.goal_id], abs=1e-12))


def test_translation_classes_reject_an_edge_with_three_tails():
    def expand(item):
        return [((("x", 1, 1), ("x", 1, 1), ("x", 1, 1)), ())]

    table = hypergraph.TranslationClasses(
        lambda item: () if item[0] == "ROOT" else (1, 2), lambda event: (1,))
    with pytest.raises(ValueError, match="edge with 3 tails at"):
        table.forest(("ROOT", 1), expand, 1)


# ---------------------------------------------------------------------------
# level-batched passes against the sequential references


@st.composite
def random_forests(draw):
    """(expand, goal, event weights) of a random acyclic forest: items
    ("i", k) take tails only from higher k, so the expansion is acyclic;
    an item with no edges is dead, and so is every edge that uses it.
    Integer weights make exact ties."""
    n = draw(st.integers(min_value=1, max_value=8))
    n_events = draw(st.integers(min_value=1, max_value=6))
    event = st.integers(min_value=0, max_value=n_events - 1)
    table = {}
    for k in range(n):
        below = range(k + 1, n)
        tails = (st.lists(st.sampled_from(below), max_size=2) if below
                 else st.just([]))
        edges = draw(st.lists(st.tuples(tails, st.lists(event, max_size=3)),
                              max_size=4))
        if edges and draw(st.booleans()):
            # a parallel edge: same tails, its own events
            edges.append((edges[0][0], draw(st.lists(event, max_size=3))))
        table[k] = [
            (tuple(("i", t) for t in ts), tuple(("e", j) for j in evs))
            for ts, evs in edges
        ]
    weight = st.one_of(
        st.just(NEG_INF),
        st.just(math.nan),
        st.integers(min_value=-3, max_value=1).map(float),
        st.floats(min_value=-5.0, max_value=1.0),
    )
    weights = draw(st.lists(weight, min_size=n_events, max_size=n_events))
    return (lambda item: table[item[1]]), ("i", 0), weights


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


# the reference passes warn on NaN weights; the passes under test must not
@pytest.mark.filterwarnings("ignore::RuntimeWarning:tests.util")
@settings(max_examples=300, deadline=None)
@given(random_forests())
def test_level_passes_match_sequential_references(case):
    expand, goal, weights = case
    forest = hypergraph.build_forest(goal, expand)
    ref = util.ListForest(forest)
    eventw = forest.event_weights(lambda ev: weights[ev[1]])

    inside = hypergraph.inside_logsum(forest, eventw)
    ref_inside = util.reference_inside_logsum(ref, eventw)
    assert_close(inside, ref_inside)
    if not np.isnan(eventw).any():
        # with NaN weights the reference also spreads NaN to items that
        # have no inside mass, where the outside pass leaves -inf
        assert_close(hypergraph.outside_logsum(forest, eventw, inside),
                     util.reference_outside_logsum(ref, eventw, ref_inside))
    logz, post = hypergraph.event_posteriors(forest, eventw)
    ref_logz, ref_post = util.reference_event_posteriors(ref, eventw)
    assert_close(logz, ref_logz)
    if math.isnan(logz):
        # no counts at all, where the reference spreads NaN
        assert not post.any()
    else:
        assert_close(post, ref_post)
    assert hypergraph.inside_count(forest) == util.reference_inside_count(ref)

    def edge_arcs(e):
        return util.edge_events(forest, e)

    scores, best = hypergraph.inside_max(forest, eventw, edge_arcs)
    ref_scores, ref_best = util.reference_inside_max(ref, eventw, edge_arcs)
    assert best == ref_best
    assert np.array_equal(scores, ref_scores, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(random_forests(), min_size=1, max_size=4))
def test_disjoint_union_matches_the_sorted_reference(cases):
    # forests whose goal is dead have no edges; the union keeps their goals
    forests = [hypergraph.build_forest(goal, expand)
               for expand, goal, _ in cases]
    union = hypergraph.disjoint_union(forests)
    ref = util.reference_disjoint_union(forests)
    assert list(union.items) == ref.items
    assert list(union.events) == ref.events
    for name in ("item_level", "edge_head", "edge_tail", "event_ptr",
                 "event_flat", "group_head", "group_ptr", "level_ptr"):
        assert np.array_equal(getattr(union, name), getattr(ref, name)), name
    bases = np.cumsum([0] + [f.n_items for f in forests[:-1]])
    assert union.goal_ids.tolist() == (
        bases + [f.goal_id for f in forests]).tolist()


def test_nan_weight_cut_off_from_the_goal_gets_no_count():
    # H is derivable but only used next to the dead item D, so the NaN
    # event below it never reaches the goal
    table = {
        "goal": [((), (("ev", "a"),)), (("H", "D"), ())],
        "H": [(("X", "X"), ())],
        "X": [((), (("ev", "b"),))],
        "D": [],
    }
    forest = hypergraph.build_forest("goal", table.__getitem__)
    assert "H" not in forest.items and ("ev", "b") not in forest.events
    weights = {"a": 0.0, "b": math.nan}
    eventw = forest.event_weights(lambda ev: weights[ev[1]])
    logz, post = hypergraph.event_posteriors(forest, eventw)
    assert logz == 0.0
    assert dict(zip(forest.events, post)) == {("ev", "a"): 1.0}


def test_tied_viterbi_compares_whole_derivations():
    # goal -> A (arc 5) with A's arc 1, or goal -> B (arc 3) with B's arc 4:
    # the first derivation's arcs (1, 5) sort before (3, 4)
    table = {
        "goal": [(("A",), (("ev", 5),)), (("B",), (("ev", 3),))],
        "A": [((), (("ev", 1),))],
        "B": [((), (("ev", 4),))],
    }
    forest = hypergraph.build_forest("goal", table.__getitem__)
    eventw = np.zeros(len(forest.events))

    def arcs(e):
        return [forest.events[k][1] for k in util.edge_events(forest, e)]

    _, best = hypergraph.inside_max(forest, eventw, arcs)
    edges = hypergraph.backtrace(forest, best)
    assert sorted(a for e in edges for a in arcs(e)) == [1, 5]


@pytest.mark.parametrize("logw", [float("nan"), NEG_INF], ids=["nan", "-inf"])
@pytest.mark.parametrize("chart", ["lc", "eisner"])
def test_viterbi_with_degenerate_weights_finds_no_derivation(
        logw, chart, recwarn):
    tags = ("DET", "NOUN", "VERB", "NOUN")
    sent = sbg.dmv_sentence_automata(tags, sbg.uniform_dmv_params(set(tags)))
    sent.event_logw = lambda ev: logw
    forest = (lc_chart.lc_forest(sent, lc_chart.DepthPolicy(1, 3))
              if chart == "lc" else sbg.eisner_forest(sent))
    with pytest.raises(ValueError, match="no derivation has nonzero weight"):
        sbg.forest_viterbi(forest, sent, tags)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
