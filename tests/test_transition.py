import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdep.cfg import (
    binarize_dependency,
    embedding_degree,
    max_depth_after_reduce,
    simulate_pda,
)
from lcdep.exhaustive import projective_deptrees, projective_trees
from lcdep.transition import (
    ARC_EAGER,
    ARC_STANDARD,
    INSERT,
    LEFT_COMP,
    LEFT_CORNER,
    LEFT_PRED,
    RIGHT_COMP,
    RIGHT_PRED,
    SHIFT,
    TransitionError,
    depth_re_max,
    depth_sh_max,
    format_trace,
    initial_config,
    lc_apply,
    lc_oracle,
    postprocess_terminal,
    relaxed_depth_re_max,
    run_lc_oracle,
    run_oracle,
    valid_lc_actions,
)
from lcdep.treebank import append_root, tree_from_heads
from tests.util import random_projective_tree


def apply_all(n, actions):
    config = initial_config(n)
    for a in actions:
        config = lc_apply(config, a)
    return config


def test_apply_preconditions():
    c0 = initial_config(2)
    with pytest.raises(TransitionError, match="leftPred"):
        lc_apply(c0, LEFT_PRED)
    with pytest.raises(TransitionError, match="insert"):
        lc_apply(c0, INSERT)
    c1 = lc_apply(c0, SHIFT)
    with pytest.raises(TransitionError, match="must be incomplete"):
        lc_apply(c1, SHIFT)
    with pytest.raises(TransitionError, match="two stack elements"):
        lc_apply(c1, LEFT_COMP)
    c2 = lc_apply(c1, RIGHT_PRED)
    with pytest.raises(TransitionError, match="must be complete"):
        lc_apply(c2, RIGHT_PRED)
    assert set(valid_lc_actions(c0)) == {SHIFT}
    assert set(valid_lc_actions(c1)) == {LEFT_PRED, RIGHT_PRED}
    assert set(valid_lc_actions(c2)) == {SHIFT, INSERT}


def test_apply_exhausted_buffer():
    c = apply_all(1, [SHIFT])
    with pytest.raises(TransitionError, match="buffer is empty"):
        lc_apply(c, SHIFT)


def test_unsound_sequence():
    # a valid action sequence that does not produce a tree
    c = apply_all(3, [SHIFT, LEFT_PRED, SHIFT, LEFT_PRED, INSERT])
    assert c.render_stack() == "<x({1})><3>"
    assert c.arcs == frozenset({(3, 2)})
    assert not c.is_terminal
    assert postprocess_terminal(c) == (0, 3, 0)


def test_postprocess_internal_dummy_and_root():
    c = apply_all(3, [SHIFT, RIGHT_PRED, SHIFT, LEFT_PRED, SHIFT])
    assert postprocess_terminal(c) == (0, 0, 0)
    assert postprocess_terminal(c, root_position=3) == (3, 3, 0)


def test_oracle_trace_frozen_four_tokens():
    # a heads b, b heads c and d; one degree of center-embedding
    tree = tree_from_heads([0, 1, 2, 2])
    trace = run_lc_oracle(tree)
    assert [s.action for s in trace.steps] == [
        SHIFT, RIGHT_PRED, SHIFT, RIGHT_PRED, INSERT, RIGHT_COMP, INSERT,
    ]
    assert trace.arcs == tree.arcs
    assert depth_re_max(trace) == 2
    assert depth_sh_max(trace) == 2


def test_oracle_trace_frozen_three_tokens():
    tree = tree_from_heads([2, 0, 2])
    trace = run_lc_oracle(tree)
    assert [s.action for s in trace.steps] == [
        SHIFT, LEFT_PRED, INSERT, RIGHT_PRED, INSERT,
    ]
    assert depth_re_max(trace) == 1


def test_oracle_trace_frozen_five_tokens():
    tree = tree_from_heads([2, 0, 4, 2, 4])
    trace = run_lc_oracle(tree)
    assert [s.action for s in trace.steps] == [
        SHIFT, LEFT_PRED, INSERT, RIGHT_PRED, SHIFT,
        LEFT_COMP, SHIFT, RIGHT_COMP, INSERT,
    ]
    assert depth_re_max(trace) == 1


@pytest.mark.parametrize("system", [LEFT_CORNER, ARC_STANDARD, ARC_EAGER])
def test_oracle_of_the_empty_sentence_takes_no_step(system):
    trace = run_oracle(tree_from_heads(()), system)
    assert trace.steps == ()
    assert trace.arcs == frozenset()


def test_format_trace():
    tree = tree_from_heads([2, 0, 2])
    lines = format_trace(run_lc_oracle(tree)).splitlines()
    assert lines[0] == "1\tshift\t1\tshift"
    assert lines[1] == "2\tleftPred\t1\treduce"
    assert len(lines) == 5


def test_projective_tree_counts_frozen():
    assert [len(projective_trees(n)) for n in (1, 2, 3)] == [1, 2, 7]


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_recovers_all_projective_trees(n):
    for tree in projective_deptrees(n):
        trace = run_lc_oracle(tree)
        assert trace.n_actions == 2 * n - 1
        assert trace.arcs == tree.arcs
        assert trace.final_config.is_terminal


@pytest.mark.parametrize("n", range(2, 7))
def test_oracle_with_appended_root(n):
    for tree in projective_deptrees(n):
        rooted = append_root(tree)
        trace = run_lc_oracle(rooted)
        assert trace.n_actions == 2 * (n + 1) - 1
        assert trace.arcs == rooted.arcs


@pytest.mark.parametrize("n", range(2, 7))
def test_rightcomp_restriction(n):
    # the oracle never composes rightward into a bare dummy, and the folded
    # head never owns left children it already attached
    for tree in projective_deptrees(n):
        config = initial_config(tree.n)
        while not config.is_terminal:
            action = lc_oracle(config, tree)
            if action == RIGHT_COMP:
                second = config.spines[-2]
                assert second.nodes, "rightComp into a bare dummy"
                head = config.spines[-1].head
                assert not any(h == head and d < head for h, d in config.arcs)
            config = lc_apply(config, action)


@pytest.mark.parametrize("n", range(1, 6))
def test_depth_re_matches_pda_on_implicit_binarization(n):
    for tree in projective_deptrees(n):
        trace = run_lc_oracle(tree)
        parse = binarize_dependency(tree)
        pda = simulate_pda(parse, "main")
        assert depth_re_max(trace) == max_depth_after_reduce(pda)
        assert depth_re_max(trace) - 1 == embedding_degree(parse)


@pytest.mark.parametrize("n", range(1, 7))
def test_relaxed_depth_limits(n):
    for tree in projective_deptrees(n):
        trace = run_lc_oracle(tree)
        assert relaxed_depth_re_max(trace, 1) == depth_re_max(trace)
        assert relaxed_depth_re_max(trace, n + 1) == 1
        prev = depth_re_max(trace)
        for c in range(1, n + 2):
            cur = relaxed_depth_re_max(trace, c)
            assert cur <= prev  # monotone in the cutoff
            prev = cur


def test_arc_standard_frozen():
    # right chain 1 -> 2 -> 3 with a final root marker
    tree = tree_from_heads([4, 1, 2, 0])
    trace = run_oracle(tree, ARC_STANDARD)
    assert [(s.action, s.depth) for s in trace.steps] == [
        ("shift", 1), ("shift", 2), ("shift", 3),
        ("rightArc", 2), ("rightArc", 1), ("shift", 2), ("leftArc", 1),
    ]
    assert trace.arcs == tree.arcs


def test_arc_eager_constant_on_forward_chain():
    tree = tree_from_heads([4, 1, 2, 0])
    trace = run_oracle(tree, ARC_EAGER)
    assert max(s.depth for s in trace.steps) == 1
    assert trace.arcs == tree.arcs


def test_arc_eager_left_chain():
    # a left chain also stays flat: the subtree forming at the buffer front
    # counts as a single component
    tree = tree_from_heads([2, 3, 4, 0])
    trace = run_oracle(tree, ARC_EAGER)
    assert trace.arcs == tree.arcs
    assert max(s.depth for s in trace.steps) == 1


def test_arc_eager_unattached_pile():
    # two tokens waiting for the same later head are separate components
    tree = tree_from_heads([3, 3, 0])
    trace = run_oracle(tree, ARC_EAGER)
    assert trace.arcs == tree.arcs
    assert max(s.depth for s in trace.steps) == 2


@pytest.mark.parametrize("system", [ARC_STANDARD, ARC_EAGER])
@pytest.mark.parametrize("n", range(1, 6))
def test_reference_oracles_recover_trees(system, n):
    for tree in projective_deptrees(n):
        trace = run_oracle(tree, system)
        assert trace.arcs == tree.arcs


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12), st.integers(0, 10_000))
def test_oracle_property_random_trees(n, seed):
    tree = random_projective_tree(n, seed)
    trace = run_lc_oracle(tree)
    assert trace.n_actions == 2 * n - 1
    assert trace.arcs == tree.arcs
    # shift and reduce actions strictly alternate, starting with a shift
    phases = [s.phase for s in trace.steps]
    assert phases[::2] == ["shift"] * len(phases[::2])
    assert phases[1::2] == ["reduce"] * len(phases[1::2])


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_postprocess_recovers_oracle_tree(n, seed):
    tree = random_projective_tree(n, seed)
    rooted = append_root(tree)
    trace = run_lc_oracle(rooted)
    heads = postprocess_terminal(trace.final_config, root_position=rooted.n)
    assert heads == rooted.heads
