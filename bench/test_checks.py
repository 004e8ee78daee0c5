"""Each output check accepts a right answer and rejects a wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import importlib
import math
import pathlib
import random
import sys

import checks
import corpus
import workloads

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_tree_checks():
    assert checks.tree_errors((2, 0, 2)) == []
    assert checks.tree_errors((0, 0, 2))          # two roots
    assert checks.tree_errors((2, 3, 1))          # no root, a cycle
    assert checks.tree_errors((3, 0, 1, 2))       # 1->3 crosses 2->4
    assert checks.tree_errors((2, 0, 5))          # head out of range
    assert checks.tree_errors((0, 4, 1, 1))       # 2<-4 crosses 1->3
    assert checks.tree_errors((3, 0, 2))          # 3->1 spans the root
    assert checks.tree_errors((1, 0))             # own head


def test_tree_checks_on_drawn_trees():
    rng = random.Random(3)
    for n in range(1, 25):
        tags, heads = corpus.sample_length(rng, n)
        assert len(tags) == n
        assert checks.tree_errors(heads) == []


def test_depth_check():
    assert checks.depth_errors(1, 1, (2, 0)) == []
    assert checks.depth_errors(2, 1, (2, 0)) != []


def test_depth_check_flags_a_tree_deeper_than_the_bound():
    sys.path.insert(0, str(SRC))
    lcdep = {m: importlib.import_module("lcdep." + m)
             for m in ("exhaustive", "transition", "treebank")}
    trees = lcdep["exhaustive"].projective_trees(7)
    depth = {h: workloads.lc_depth(lcdep, h) for h in trees}
    deep = [h for h in trees if depth[h] > workloads.DEPTH_BOUND]
    assert deep and len(deep) < len(trees)
    for h in trees:
        flagged = checks.depth_errors(depth[h], workloads.DEPTH_BOUND, h)
        assert bool(flagged) == (h in deep)


def test_em_checks():
    good = [(1, -10.0, 0), (2, -9.0, 0), (3, -9.0, 0)]
    assert checks.em_errors(good, 3) == []
    assert checks.em_errors(good, 4)                          # too few
    assert checks.em_errors([(1, -10.0, 0), (2, -10.5, 0)], 2)  # decrease
    assert checks.em_errors([(1, -10.0, 2), (2, -9.0, 0)], 2)   # skipped


def test_marginal_check():
    assert checks.marginal_errors(-3.25, -3.25 + 1e-12) == []
    assert checks.marginal_errors(-3.25, -3.25 + 1e-6)
    values = [-1.0, -2.0, -3.5]
    assert math.isclose(checks.logsumexp(values),
                        math.log(sum(math.exp(v) for v in values)))


def test_count_check():
    assert checks.count_errors(7.0 - 1e-9, 3.0, 20.0, 10) == []
    assert checks.count_errors(7.5, 3.0, 20.0, 10)    # heads off
    assert checks.count_errors(7.0, 3.0, 19.0, 10)    # stops off


def test_viterbi_check():
    assert checks.viterbi_errors(-5.0, -5.0) == []
    assert checks.viterbi_errors(-5.1, -5.0)


def test_baselines():
    gold = [(2, 0, 2), (0, 1, 2)]
    assert checks.left_neighbour(3) == (0, 1, 2)
    assert checks.right_neighbour(3) == (2, 3, 0)
    assert checks.baseline_errors(gold, gold) == []
    assert checks.baseline_errors([(0, 1, 2), (0, 1, 2)], gold)
