"""Direct checks of the weighted-hypergraph engine."""

import math

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
        expected = sum(eventw[k] for k in forest.edge_events[e])
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
        if len(forest.edge_events[e]) == 2
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
        return forest.edge_events[e]

    for arcs in (None, edge_arcs):
        scores, best = hypergraph.inside_max(forest, eventw, arcs)
        ref_scores, ref_best = util.reference_inside_max(ref, eventw, arcs)
        assert best == ref_best
        assert np.array_equal(scores, ref_scores, equal_nan=True)


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
    weights = {"a": 0.0, "b": math.nan}
    eventw = forest.event_weights(lambda ev: weights[ev[1]])
    logz, post = hypergraph.event_posteriors(forest, eventw)
    assert logz == 0.0
    assert dict(zip(forest.events, post)) == {("ev", "a"): 1.0,
                                              ("ev", "b"): 0.0}


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
        return [forest.events[k][1] for k in forest.edge_events[e]]

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
    with pytest.raises(ValueError, match="no derivation has nonzero weight"):
        if chart == "lc":
            lc_chart.lc_viterbi(tags, sent, lc_chart.DepthPolicy(1, 3))
        else:
            sbg.eisner_viterbi(tags, sent)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
