"""Left-corner chart vs the cubic chart, enumeration, and the stack oracle.

The depth-bounded totals are checked against filtering the exhaustive tree
enumeration by actually running the left-corner transition oracle and
measuring its relaxed post-reduce stack depth, so the chart's depth labels
are pinned to the operational definition rather than to each other.
"""

import functools
import math
import random

import pytest

from lcdep import induction, sbg
from lcdep.exhaustive import projective_trees
from lcdep.hypergraph import NEG_INF
from lcdep.lc_chart import DepthPolicy, lc_forest
from lcdep.sbg import forest_expected_counts, forest_inside, forest_viterbi
from lcdep.transition import relaxed_depth_re_max, run_lc_oracle
from lcdep.treebank import tree_from_heads

from tests import util
from tests.test_chart_golden import POLICIES

VOCAB = ("N", "V", "D")


def random_tags(n, rng):
    return tuple(rng.choice(VOCAB) for _ in range(n))


def oracle_depth(heads, cutoff):
    return relaxed_depth_re_max(run_lc_oracle(tree_from_heads(heads)), cutoff)


def admissible_trees(n, bound, cutoff):
    return [
        h for h in projective_trees(n) if oracle_depth(h, cutoff) <= bound
    ]


# ---------------------------------------------------------------------------
# unbounded behaviour: the chart is just another projective parser


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 7), (4, 30)])
def test_derivation_count_matches_projective_trees(n, expected):
    assert len(projective_trees(n)) == expected
    tags = ("N",) * n
    sent = sbg.dmv_sentence_automata(tags, sbg.uniform_dmv_params(["N"]))
    assert forest_inside(lc_forest(sent), sent, "count")[1] == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_unbounded_marginal_matches_cubic_chart_and_enumeration(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(
            tags, sbg.random_dmv_params(VOCAB, rng)
        )
        _, lc = forest_inside(lc_forest(sent), sent)
        _, ei = sbg.eisner_inside(tags, sent)
        assert lc == pytest.approx(ei, abs=1e-10)
        if n <= 5:
            assert lc == pytest.approx(
                sbg.brute_force_marginal(tags, sent), abs=1e-10
            )


def drop_transitions_into(sent, side, h, state, n_states):
    """Reinstall the (side, h) machine of ``sent`` without the transitions
    that enter ``state``."""
    deps = range(1, h) if side == sbg.LEFT else range(h + 1, sent.n + 1)
    trans = [
        (q, d, r, w)
        for d in deps
        for q in range(n_states)
        for r, w in sent.steps(side, h, q, d)
        if r != state
    ]
    sent.add_machine(side, h, dict(sent.init_states(side, h)),
                     dict(sent.final_states(side, h)), trans)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_states_nothing_enters_are_pruned_without_losing_mass(n):
    rng = random.Random(500 + n)
    tags = tuple(str(i + 1) for i in range(n))
    sent = sbg.random_sentence_automata(n, 3, rng)
    # state 2 (always final) can no longer be entered by the right machine
    # of token 1 nor the left machine of token n
    drop_transitions_into(sent, sbg.RIGHT, 1, 2, 3)
    drop_transitions_into(sent, sbg.LEFT, n, 2, 3)
    assert not sent.may_reach(sbg.RIGHT, 1, 2, 2, n)
    forest = lc_forest(sent)
    assert not [it for it in forest.items
                if it[:3] == ("RQ", 2, 1) and it[3] > 1]
    eisner = sbg.eisner_forest(sent)
    assert not [it for it in eisner.items
                if it[:2] == ("LQ", 2) and it[3] == n and it[2] < n]

    _, logz = forest_inside(forest, sent)
    assert logz == pytest.approx(sbg.brute_force_marginal(tags, sent),
                                 abs=1e-10)
    _, logz = forest_inside(eisner, sent)
    assert logz == pytest.approx(sbg.brute_force_marginal(tags, sent),
                                 abs=1e-10)
    ref, ref_logz = sbg.brute_force_expected_counts(tags, sent)
    for counts, logz in (forest_expected_counts(forest, sent),
                         forest_expected_counts(eisner, sent)):
        counts = util.without_leaf_marks(counts)
        assert logz == pytest.approx(ref_logz, abs=1e-10)
        for key in set(counts) | set(ref):
            assert counts.get(key, 0.0) == pytest.approx(
                ref.get(key, 0.0), abs=1e-8), key
    ok = [h for h in projective_trees(n) if oracle_depth(h, 1) <= 1]
    _, logz = forest_inside(lc_forest(sent, DepthPolicy(1, 1)), sent)
    assert logz == pytest.approx(
        sbg.brute_force_marginal(tags, sent, lambda h: h in ok), abs=1e-10)


@pytest.mark.parametrize("n", range(1, 6))
def test_unbounded_marginal_multistate_automata(n):
    rng = random.Random(200 + n)
    for _ in range(3):
        tags = tuple(str(i + 1) for i in range(n))
        sent = sbg.random_sentence_automata(n, rng.randint(2, 4), rng)
        _, lc = forest_inside(lc_forest(sent), sent)
        assert lc == pytest.approx(
            sbg.brute_force_marginal(tags, sent), abs=1e-10
        )


def test_single_token_marginal_is_root_times_stops():
    params = sbg.uniform_dmv_params(["N"])
    sent = sbg.dmv_sentence_automata(("N",), params)
    _, lc = forest_inside(lc_forest(sent), sent)
    assert lc == pytest.approx(math.log(0.5) + math.log(0.5), abs=1e-12)


# ---------------------------------------------------------------------------
# depth-bounded behaviour vs the transition-system oracle


@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_bounded_count_equals_oracle_filtered_enumeration(bound, cutoff):
    rng = random.Random(bound * 10 + cutoff)
    for n in range(1, 7):
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(
            tags, sbg.random_dmv_params(VOCAB, rng)
        )
        _, cnt = forest_inside(
            lc_forest(sent, DepthPolicy(bound, cutoff)), sent, "count"
        )
        assert cnt == len(admissible_trees(n, bound, cutoff))


@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_bounded_marginal_equals_oracle_filtered_enumeration(bound, cutoff):
    rng = random.Random(bound * 100 + cutoff)
    for n in range(1, 7):
        depths = {
            h: oracle_depth(h, cutoff) for h in projective_trees(n)
        }
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(
            tags, sbg.random_dmv_params(VOCAB, rng)
        )
        _, lc = forest_inside(lc_forest(sent, DepthPolicy(bound, cutoff)),
                              sent)
        bf = sbg.brute_force_marginal(
            tags, sent, tree_filter=lambda h: depths[h] <= bound
        )
        if bf == NEG_INF:
            assert lc == NEG_INF
        else:
            assert lc == pytest.approx(bf, abs=1e-10)


def test_depth_one_admits_exactly_no_center_embedding():
    # at the strictest setting the admissible set is a strict subset that
    # still covers linear chains in both directions
    n = 5
    adm = set(admissible_trees(n, 1, 1))
    assert (0, 1, 2, 3, 4) in adm  # right chain
    assert (2, 3, 4, 5, 0) in adm  # left chain
    assert len(adm) < len(projective_trees(n))


def test_seven_token_counterexample_is_excluded_at_bound_two():
    # this tree's relaxed post-reduce depth is 3, so a bound of 2 must drop
    # it even though a naive reading of the composition depth updates keeps
    # every intermediate label at 2
    heads = (7, 6, 2, 3, 3, 7, 0)
    assert oracle_depth(heads, 1) == 3
    n = 7
    rng = random.Random(0)
    tags = random_tags(n, rng)
    sent = sbg.dmv_sentence_automata(tags, sbg.random_dmv_params(VOCAB, rng))
    _, cnt = forest_inside(lc_forest(sent, DepthPolicy(2, 1)), sent, "count")
    assert cnt == len(admissible_trees(n, 2, 1))
    assert heads not in admissible_trees(n, 2, 1)


def test_larger_cutoff_admits_more_trees():
    n = 6
    counts = [len(admissible_trees(n, 1, c)) for c in (1, 2, 3, 4)]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


# ---------------------------------------------------------------------------
# expected counts and EM plumbing


@pytest.mark.parametrize("bound,cutoff", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_bounded_expected_counts_match_filtered_enumeration(bound, cutoff):
    rng = random.Random(bound * 7 + cutoff)
    for n in range(1, 6):
        depths = {
            h: oracle_depth(h, cutoff) for h in projective_trees(n)
        }
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(
            tags, sbg.random_dmv_params(VOCAB, rng)
        )
        got, logz = forest_expected_counts(
            lc_forest(sent, DepthPolicy(bound, cutoff)), sent)
        got = util.without_leaf_marks(got)
        want, wlogz = sbg.brute_force_expected_counts(
            tags, sent, tree_filter=lambda h: depths[h] <= bound
        )
        if wlogz == NEG_INF:
            assert logz == NEG_INF
            continue
        assert logz == pytest.approx(wlogz, abs=1e-8)
        for k in set(got) | set(want):
            assert got.get(k, 0.0) == pytest.approx(
                want.get(k, 0.0), abs=1e-8
            )


def test_unbounded_expected_counts_match_cubic_chart():
    rng = random.Random(42)
    for n in (2, 3, 4, 5):
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(
            tags, sbg.random_dmv_params(VOCAB, rng)
        )
        got, logz = forest_expected_counts(lc_forest(sent), sent)
        got = util.without_leaf_marks(got)
        want, wlogz = forest_expected_counts(sbg.eisner_forest(sent), sent)
        assert logz == pytest.approx(wlogz, abs=1e-10)
        for k in set(got) | set(want):
            assert got.get(k, 0.0) == pytest.approx(
                want.get(k, 0.0), abs=1e-8
            )


# ---------------------------------------------------------------------------
# viterbi


def test_viterbi_matches_enumeration():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 6)
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(
            tags, sbg.random_dmv_params(VOCAB, rng)
        )
        got = forest_viterbi(lc_forest(sent), sent, tags)
        _, want = sbg.brute_force_viterbi(tags, sent)
        assert got.heads == want


def test_bounded_viterbi_matches_filtered_enumeration():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(2, 6)
        bound, cutoff = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        depths = {
            h: oracle_depth(h, cutoff) for h in projective_trees(n)
        }
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(
            tags, sbg.random_dmv_params(VOCAB, rng)
        )
        got = forest_viterbi(lc_forest(sent, DepthPolicy(bound, cutoff)),
                             sent, tags)
        _, want = sbg.brute_force_viterbi(
            tags, sent, tree_filter=lambda h: depths[h] <= bound
        )
        assert got.heads == want


def test_viterbi_tie_break_prefers_smaller_arc_list():
    params = sbg.uniform_dmv_params(["N"])
    tags = ("N", "N")
    sent = sbg.dmv_sentence_automata(tags, params)
    assert forest_viterbi(lc_forest(sent), sent, tags).heads == (0, 1)


# ---------------------------------------------------------------------------
# leaf marks and the must-head constraint


@functools.lru_cache(maxsize=None)
def chart_trees(n, policy):
    """The trees of n tokens that the left-corner chart under ``policy``
    admits (None is unbounded)."""
    if policy is None:
        return frozenset(projective_trees(n))
    return frozenset(admissible_trees(n, policy.max_depth,
                                      policy.size_cutoff))


def some_automata(kind, tags, rng):
    if kind == "dmv":
        return sbg.dmv_sentence_automata(tags,
                                         sbg.random_dmv_params(VOCAB, rng))
    return sbg.random_sentence_automata(len(tags), 3, rng)


@pytest.mark.parametrize("kind", ["dmv", "random"])
@pytest.mark.parametrize("policy", POLICIES, ids=str)
def test_leaf_marks_count_leaves(policy, kind):
    # each leaf carries exactly one mark in every derivation: the expected
    # marks at a position are the probability that its token has no
    # dependent, and pricing every mark at log 2 doubles a tree's weight
    # once per leaf
    rng = random.Random("leaves %s %s" % (policy, kind))
    for n in range(1, 7):
        tags = random_tags(n, rng)
        sent = some_automata(kind, tags, rng)
        trees = sorted(chart_trees(n, policy))
        weights = [sbg.tree_log_weight(h, tags, sent) for h in trees]
        logz = sbg._logsumexp(weights)
        if logz == NEG_INF:
            continue
        forest = lc_forest(sent, policy)
        counts, _ = forest_expected_counts(forest, sent)
        for p in range(1, n + 1):
            want = sum(math.exp(w - logz)
                       for h, w in zip(trees, weights) if p not in h)
            assert counts.get(sbg.leaf_mark(p), 0.0) == pytest.approx(
                want, abs=1e-9)
        event_logw = sent.event_logw
        sent.event_logw = lambda ev: (math.log(2.0) if ev[2] == "leaf"
                                      else event_logw(ev))
        _, doubled = forest_inside(forest, sent)
        assert doubled == pytest.approx(sbg._logsumexp(
            [w + math.log(2.0) * sum(p not in h for p in range(1, n + 1))
             for h, w in zip(trees, weights)]), abs=1e-9)


@pytest.mark.parametrize("kind", ["dmv", "random"])
@pytest.mark.parametrize("policy", POLICIES, ids=str)
def test_blocked_positions_remove_childless_analyses(policy, kind):
    # -inf on the leaf marks of the blocked positions keeps exactly the
    # trees where every blocked token heads a dependent
    rng = random.Random("blocked %s %s" % (policy, kind))
    pinned = 0
    for _ in range(12):
        n = rng.randint(1, 5)
        tags = random_tags(n, rng)
        sent = some_automata(kind, tags, rng)
        blocked = frozenset(
            p for p in range(1, n + 1) if tags[p - 1] == "D"
        )
        admitted = chart_trees(n, policy)

        def has_dep(heads):
            return heads in admitted and all(p in heads for p in blocked)

        want_z = sbg.brute_force_marginal(tags, sent, tree_filter=has_dep)
        want, _ = sbg.brute_force_expected_counts(tags, sent, has_dep)
        best = util.brute_force_best_derivation(tags, sent, has_dep)
        forest = lc_forest(sent, policy)
        sent = util.must_head(sent, blocked)
        _, lc = forest_inside(forest, sent)
        if want_z == NEG_INF:
            assert lc == NEG_INF
            with pytest.raises(ValueError):
                forest_viterbi(forest, sent, tags)
            continue
        pinned += bool(blocked)
        assert lc == pytest.approx(want_z, abs=1e-10)
        got, _ = forest_expected_counts(forest, sent)
        got = util.without_leaf_marks(got)
        for k in set(got) | set(want):
            assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0),
                                                    abs=1e-9)
        assert forest_viterbi(forest, sent, tags).heads == best
    assert pinned >= 3


def test_blocked_single_token_sentence_has_no_parse():
    sent = sbg.dmv_sentence_automata(
        ("D",), sbg.uniform_dmv_params(["D"])
    )
    _, lc = forest_inside(lc_forest(sent), util.must_head(sent, {1}))
    assert lc == NEG_INF


# ---------------------------------------------------------------------------
# forest size


@pytest.mark.parametrize("n,policy,n_edges", [
    (6, None, 488),
    (8, (2, 1), 1456),
    (10, (1, 3), 2194),
    (20, (1, 3), 21349),
])
def test_dmv_forest_size_is_pinned_and_few_items_are_dead(n, policy,
                                                          n_edges):
    # edge counts with the goal deriving the root's one dependent; pruning
    # unreachable automaton states changes none of them, and leaf marks
    # add events, not edges
    tags = ("N",) * n
    sent = sbg.dmv_sentence_automata(tags, sbg.uniform_dmv_params(["N"]))
    forest = lc_forest(sent, policy and DepthPolicy(*policy))
    assert forest.n_edges == n_edges
    assert (forest.item_level < 0).sum() < 0.05 * forest.n_items


# ---------------------------------------------------------------------------
# forest caching


def test_forest_is_cached_per_length_and_policy():
    induction.clear_forest_cache()
    f1 = induction._chart_forest(3, DepthPolicy(2, 1))
    assert induction._chart_forest(3, DepthPolicy(2, 1)) is f1
    assert induction._chart_forest(3, DepthPolicy(3, 1)) is not f1
    assert induction._chart_forest(4, DepthPolicy(2, 1)) is not f1
    induction.clear_forest_cache()


def test_cached_forest_reprices_per_sentence():
    induction.clear_forest_cache()
    rng = random.Random(21)
    params = sbg.random_dmv_params(VOCAB, rng)
    forest = induction._chart_forest(2, DepthPolicy(2, 1))
    for tags in [("N", "V"), ("D", "N"), ("V", "V")]:
        sent = sbg.dmv_sentence_automata(tags, params)
        _, lc = forest_inside(forest, sent)
        assert lc == pytest.approx(
            sbg.brute_force_marginal(tags, sent), abs=1e-10
        )
    induction.clear_forest_cache()
