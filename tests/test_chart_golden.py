"""Golden digests of the forests both charts build.

For each length n <= 7 the digest covers the forest's items and events and
its edge arrays (``edge_head``, ``edge_tail``, ``event_ptr``,
``event_flat``): for the left-corner chart under every depth policy of
POLICIES and every blocked set of ``blocked_sets(n)``, for the head-split
chart once per length, each on DMV automata and on seeded random automata.
Items, events and edge arrays hold only integers and strings, so the digests
do not depend on floating-point arithmetic.  Any change to a chart's
expansion, its pruning or the forest layout must reproduce them.
Regenerate with

    PYTHONPATH=src python -m tests.test_chart_golden
"""

import hashlib
import random

import pytest

from lcdep import lc_chart, sbg
from lcdep.lc_chart import DepthPolicy

MAX_N = 7
AUTOMATA = ("dmv", "random")
POLICIES = (None, DepthPolicy(1, 1), DepthPolicy(1, 3), DepthPolicy(2, 1),
            DepthPolicy(2, 2))

GOLDEN = {
    ('lc', 'dmv', 1): '9587e6fa163dd81a0093aec63967ed07a7e07f05c6df188cbeb382136bdcb2f0',
    ('lc', 'dmv', 2): '0145f9958191901897906381adad4767c7f1b1706f2c9f711b037a2842ea32fc',
    ('lc', 'dmv', 3): '9f0ba2fbb4f151bbb2f0a68ac489d6892c0b11230ad06ccdf9f655f7064d07c7',
    ('lc', 'dmv', 4): 'c11cdd4fcba9c8597e2715dc0b524f30bfca3ae2c35c7799d931ab220aaec681',
    ('lc', 'dmv', 5): '59be8910bcb572e4d1b37c85f3fb6877803c7f23f6982fab6ca17a1146c473f6',
    ('lc', 'dmv', 6): 'a985c74edb116521c0b7f7829b081303ff5ee62d3fa70fbf1494b5c7aea2f566',
    ('lc', 'dmv', 7): '139442f8742867b4cebcc32405d1c997a23395ff05595b99e16834b0a472c4b9',
    ('lc', 'random', 1): 'e97e9c2b03dbd73d9fa4c579b1c81e1bffbcf1208ca0fd37cfed49d7438fc0ba',
    ('lc', 'random', 2): '0b5699e73ad7ef8a350554ba589b270a7777ffe2236007627662c2deea513dad',
    ('lc', 'random', 3): '3754420b50561a5a1203a5a0f3e2c94864ddb0048af5b11be7c3ced300348916',
    ('lc', 'random', 4): '9a46c4e6b05e5e4473cd59e86a72e537ac58314ca754ca4aef870172fbac316c',
    ('lc', 'random', 5): 'e8cff9fa8484c29b73f2b7bb78f6eb61eafc398e62078b2e6ce2dac506a363e9',
    ('lc', 'random', 6): 'dd593676f86d7811b3648b55fe2a64e52ec4ba3c1713c3b865368686b5db205a',
    ('lc', 'random', 7): 'e6d6c11aee3e4fd9b6300bda6a6f4d58de0d43e8b0ea08aad9fb69c46c7d0ab8',
    ('eisner', 'dmv', 1): 'e0ea072a20195961c048642ffe70451831e288735db33d55543a86e1e625237b',
    ('eisner', 'dmv', 2): 'fda2808c17d974cd7705bbc7ed6ac160e0cae1e9a0c5020bc58cc658766a4cce',
    ('eisner', 'dmv', 3): 'f501b6022f2b635f73c7c5e6fc7f8201e17ed65028bf697d75fea9dece5d083a',
    ('eisner', 'dmv', 4): '4dcbfe3f960b0d1736230216f01c554ae99e7e5d3691dc529ab60026fd8c0943',
    ('eisner', 'dmv', 5): 'd54f43fa7a127e7fd963d05d7276a5e53a06496cd0207e3ac1c673e360f84a33',
    ('eisner', 'dmv', 6): '115f8db0da98f51c8916a6403b884f0d2d81858fac68f999ca0d2c5bd375e3b4',
    ('eisner', 'dmv', 7): '783c62565aee6647ae34fd94a76e100960171ae11b1cd463f838d25d5443b2bc',
    ('eisner', 'random', 1): '2833f465af2bf211c0a94bbd6429347abe6d4176181d15d8d761abd18059430c',
    ('eisner', 'random', 2): '9c4d7e365d1c78e1c6d1b08b98117066043b8b5fd8cbb9f7c69b6f53a10a4dd1',
    ('eisner', 'random', 3): '100c16c3817663776b9b490d084520411972a7136faf038abda1f6e840c2e0bb',
    ('eisner', 'random', 4): 'ad9719cd991b0e3ba970ffa503d082cc77215564476804d203ec6e7b14da0289',
    ('eisner', 'random', 5): '8d8caa26272424d6eab4c813dd9785a1462a4104a3f3576a34c70e9320fd1959',
    ('eisner', 'random', 6): '7e06385db5b476e431593d714f8288b526550fe682150a3e9c6cc64ee299ad23',
    ('eisner', 'random', 7): '561d63e4c42772413130ff3c2f5b591682449c4bdd81a6b58f19cb596bf4946e',
}


def blocked_sets(n):
    return (frozenset(), frozenset({1}), frozenset({2, n}))


def automata(kind, tags):
    if kind == "dmv":
        return sbg.dmv_sentence_automata(tags, sbg.uniform_dmv_params("NVD"))
    n = len(tags)
    return sbg.random_sentence_automata(n, 3, random.Random(n))


def forest_line(forest):
    return "%r|%r|%r|%r|%r|%r" % (
        forest.items, forest.events, forest.edge_head.tolist(),
        forest.edge_tail.tolist(), forest.event_ptr.tolist(),
        forest.event_flat.tolist())


def digest(chart, kind, n):
    tags = tuple("NVD"[k % 3] for k in range(n))
    sent = automata(kind, tags)
    if chart == "eisner":
        lines = [forest_line(sbg.eisner_forest(sent))]
    else:
        lines = [forest_line(lc_chart.lc_forest(sent, policy, blocked))
                 for policy in POLICIES for blocked in blocked_sets(n)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("chart", ["lc", "eisner"])
@pytest.mark.parametrize("kind", AUTOMATA)
@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_golden_forests(chart, kind, n):
    assert digest(chart, kind, n) == GOLDEN[chart, kind, n]


if __name__ == "__main__":
    print("GOLDEN = {")
    for chart in ("lc", "eisner"):
        for kind in AUTOMATA:
            for n in range(1, MAX_N + 1):
                print("    (%r, %r, %d): %r,"
                      % (chart, kind, n, digest(chart, kind, n)))
    print("}")
