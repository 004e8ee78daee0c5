"""Head-automaton grammars: exhaustive oracles vs the cubic chart."""

import math
import random

import numpy as np
import pytest

from lcdep import induction, sbg
from lcdep.exhaustive import projective_trees
from lcdep.hypergraph import NEG_INF
from tests import util

VOCAB = ("N", "V", "D")


def random_tags(n, rng):
    return tuple(rng.choice(VOCAB) for _ in range(n))


def test_uniform_params_tree_weight_single_token():
    params = sbg.uniform_dmv_params(["N"])
    sent = sbg.dmv_sentence_automata(("N",), params)
    # stop left (adjacent) * stop right (adjacent) * root choice
    expected = math.log(0.5) + math.log(0.5) + math.log(1.0)
    assert math.isclose(sbg.tree_log_weight((0,), ("N",), sent), expected)


def test_tree_weight_follows_dmv_factorization():
    rng = random.Random(7)
    params = sbg.random_dmv_params(VOCAB, rng)
    tags = ("D", "N", "V")
    heads = (2, 3, 0)  # D <- N <- V, V is root
    sent = sbg.dmv_sentence_automata(tags, params)

    def s(h, side, adj):
        return params.stop[h, side, adj]

    expected = (
        math.log(params.root["V"])
        + math.log(s("D", "L", True)) + math.log(s("D", "R", True))
        + math.log(1 - s("N", "L", True)) + math.log(params.attach["N", "L"]["D"])
        + math.log(s("N", "L", False)) + math.log(s("N", "R", True))
        + math.log(1 - s("V", "L", True)) + math.log(params.attach["V", "L"]["N"])
        + math.log(s("V", "L", False)) + math.log(s("V", "R", True))
    )
    assert math.isclose(sbg.tree_log_weight(heads, tags, sent), expected)


def test_tree_weight_left_adjacency_order():
    # two left dependents: the nearer one is consumed first (adjacent step)
    rng = random.Random(11)
    params = sbg.random_dmv_params(VOCAB, rng)
    tags = ("D", "N", "V")
    heads = (3, 3, 0)
    sent = sbg.dmv_sentence_automata(tags, params)

    def s(h, side, adj):
        return params.stop[h, side, adj]

    expected = (
        math.log(params.root["V"])
        + sum(
            math.log(s(t, side, True))
            for t in ("D", "N")
            for side in ("L", "R")
        )
        + math.log(s("V", "R", True))
        # nearest-first: attach N while adjacent, then D while non-adjacent
        + math.log(1 - s("V", "L", True)) + math.log(params.attach["V", "L"]["N"])
        + math.log(1 - s("V", "L", False)) + math.log(params.attach["V", "L"]["D"])
        + math.log(s("V", "L", False))
    )
    assert math.isclose(sbg.tree_log_weight(heads, tags, sent), expected)


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 7), (4, 30)])
def test_count_semiring_matches_enumeration(n, expected):
    assert len(projective_trees(n)) == expected
    params = sbg.uniform_dmv_params(VOCAB)
    tags = tuple(VOCAB[i % len(VOCAB)] for i in range(n))
    sent = sbg.dmv_sentence_automata(tags, params)
    _, total = sbg.eisner_inside(tags, sent, semiring="count")
    assert total == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inside_matches_brute_force_dmv(n):
    rng = random.Random(100 + n)
    for trial in range(4):
        params = sbg.random_dmv_params(VOCAB, rng)
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(tags, params)
        _, logz = sbg.eisner_inside(tags, sent)
        assert math.isclose(logz, sbg.brute_force_marginal(tags, sent), abs_tol=1e-10)


@pytest.mark.parametrize("n,n_states", [(1, 3), (2, 3), (3, 3), (4, 4), (5, 3)])
def test_inside_matches_brute_force_multistate(n, n_states):
    rng = random.Random(200 + 10 * n + n_states)
    for trial in range(3):
        sent = sbg.random_sentence_automata(n, n_states, rng)
        tags = tuple("X%d" % i for i in range(n))
        _, logz = sbg.eisner_inside(tags, sent)
        assert math.isclose(logz, sbg.brute_force_marginal(tags, sent), abs_tol=1e-10)


@pytest.mark.parametrize("n,n_edges", [(4, 72), (8, 432), (12, 1336),
                                       (20, 5800)])
def test_dmv_forest_size_is_pinned_and_few_items_are_dead(n, n_edges):
    # edge counts with the goal deriving the root's one dependent; pruning
    # unreachable automaton states changes none of them
    tags = ("N",) * n
    sent = sbg.dmv_sentence_automata(tags, sbg.uniform_dmv_params(["N"]))
    forest = sbg.eisner_forest(sent)
    assert forest.n_edges == n_edges
    assert (forest.item_level < 0).sum() < 0.05 * forest.n_items


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expected_counts_match_brute_force(n):
    rng = random.Random(300 + n)
    params = sbg.random_dmv_params(VOCAB, rng)
    tags = random_tags(n, rng)
    sent = sbg.dmv_sentence_automata(tags, params)
    counts, logz = sbg.forest_expected_counts(sbg.eisner_forest(sent), sent)
    ref_counts, ref_logz = sbg.brute_force_expected_counts(tags, sent)
    assert math.isclose(logz, ref_logz, abs_tol=1e-10)
    keys = set(counts) | set(ref_counts)
    for key in keys:
        assert math.isclose(
            counts.get(key, 0.0), ref_counts.get(key, 0.0), abs_tol=1e-8
        ), key


def test_expected_counts_bounded_by_sentence_length():
    rng = random.Random(17)
    params = sbg.random_dmv_params(VOCAB, rng)
    tags = random_tags(5, rng)
    sent = sbg.dmv_sentence_automata(tags, params)
    counts, _ = sbg.forest_expected_counts(sbg.eisner_forest(sent), sent)
    dmv = util.dmv_counts_from_events(counts, tags)
    total_attach = sum(dmv.attach.values())
    total_root = sum(dmv.root.values())
    assert math.isclose(total_root, 1.0, abs_tol=1e-9)
    # n tokens produce n - 1 real attachments plus the root choice
    assert math.isclose(total_attach, len(tags) - 1, abs_tol=1e-9)
    for c in counts.values():
        assert -1e-9 <= c <= len(tags) + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_viterbi_matches_brute_force(n):
    rng = random.Random(400 + n)
    for trial in range(4):
        params = sbg.random_dmv_params(VOCAB, rng)
        tags = random_tags(n, rng)
        sent = sbg.dmv_sentence_automata(tags, params)
        tree = sbg.forest_viterbi(sbg.eisner_forest(sent), sent, tags)
        score, heads = sbg.brute_force_viterbi(tags, sent)
        assert math.isclose(
            sbg.tree_log_weight(tree.heads, tags, sent), score, abs_tol=1e-10
        )
        assert tree.heads == heads


def test_viterbi_tie_prefers_lower_heads():
    # a one-tag uniform model scores both two-token trees identically
    params = sbg.uniform_dmv_params(["N"])
    tags = ("N", "N")
    sent = sbg.dmv_sentence_automata(tags, params)
    w01 = sbg.tree_log_weight((0, 1), tags, sent)
    w20 = sbg.tree_log_weight((2, 0), tags, sent)
    assert math.isclose(w01, w20, abs_tol=1e-12)
    tree = sbg.forest_viterbi(sbg.eisner_forest(sent), sent, tags)
    score, heads = sbg.brute_force_viterbi(tags, sent)
    assert tree.heads == heads == (0, 1)


def test_inside_outside_split_consistency():
    # posterior attachment mass per dependent sums to one
    rng = random.Random(23)
    params = sbg.random_dmv_params(VOCAB, rng)
    tags = random_tags(4, rng)
    sent = sbg.dmv_sentence_automata(tags, params)
    counts, _ = sbg.forest_expected_counts(sbg.eisner_forest(sent), sent)
    per_dep = {d: 0.0 for d in range(1, 5)}
    for event, c in counts.items():
        if event[2] == "trans":
            per_dep[event[5]] += c
    for d, mass in per_dep.items():
        assert math.isclose(mass, 1.0, abs_tol=1e-9), (d, mass)


def test_em_monotone_on_toy_corpus():
    rng = random.Random(31)
    corpus = [random_tags(rng.randint(1, 5), rng) for _ in range(12)]
    params = sbg.random_dmv_params(VOCAB, rng)
    prev = None
    for _ in range(8):
        params, loglik = util.em_step(corpus, params)
        if prev is not None:
            assert loglik >= prev - 1e-9
        prev = loglik


def test_em_fits_deterministic_corpus():
    # a mild push toward N-rooted analyses lets EM leave the symmetric
    # starting point and saturate on the only consistent grammar
    corpus = [("N",), ("D", "N")] * 4
    params = sbg.uniform_dmv_params(("D", "N"))
    params.root = {"N": 0.7, "D": 0.3}
    for _ in range(60):
        params, loglik = util.em_step(corpus, params)
    assert params.root["N"] > 0.99
    assert params.attach["N", "L"]["D"] > 0.99
    # half of the N-headed sentences take the left dependent
    assert math.isclose(params.stop["N", "L", True], 0.5, abs_tol=1e-2)
    assert math.isclose(loglik, 8 * math.log(0.5), abs_tol=1e-2)


def test_length_bias_applies_arc_bias():
    rng = random.Random(43)
    params = sbg.random_dmv_params(VOCAB, rng)
    tags = random_tags(4, rng)
    sent = sbg.dmv_sentence_automata(tags, params)
    beta = 0.7
    biased = util.apply_constraints(params, tags, induction.ConstraintSet(),
                                    beta)
    for heads in projective_trees(4):
        base = sbg.tree_log_weight(heads, tags, sent)
        expect = base - beta * sum(
            abs(h - (d + 1)) - 1 for d, h in enumerate(heads) if h != 0
        )
        assert math.isclose(
            sbg.tree_log_weight(heads, tags, biased), expect, abs_tol=1e-10
        )


def test_weighted_automata_harmonic_shape():
    tags = ("A", "B", "C")
    sent = sbg.weighted_sentence_automata(
        len(tags),
        attach_logw=lambda h, d: -math.log(abs(h - d)),
        root_logw=lambda d: 0.0,
    )
    # chain 1 <- 2 <- 3 has two unit arcs; 1 <- 3, 2 <- 3 has lengths 2 and 1
    near = sbg.tree_log_weight((2, 3, 0), tags, sent)
    far = sbg.tree_log_weight((3, 3, 0), tags, sent)
    assert math.isclose(near - far, math.log(2.0), abs_tol=1e-12)
