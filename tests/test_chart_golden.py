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
    ('lc', 'dmv', 1): '205864caf1ac356e2d79387b84cb63ea762574a560a4a60761270f5e07e8f2b6',
    ('lc', 'dmv', 2): '2810b9c2c66fb9e1e7b9dadbf0026a5765dc4af46098b6142a950307bfc1b951',
    ('lc', 'dmv', 3): '5ee35ed671a020e8d10b01ec5f5bff670f30b834530a63720b02d11eb72952d3',
    ('lc', 'dmv', 4): '262646559da1cdc6b2f25360679434cf51b9977acaadd60d9d6e7270d37bb439',
    ('lc', 'dmv', 5): 'b432c5e339f2e3bc341ebff55c1b31f956310cbfeef1f5c34e6c72dfe28bbe05',
    ('lc', 'dmv', 6): 'e087a73d93d4770a78ebceab9f9a72d61e3b8708a9eda412e810a9da7e19dcf1',
    ('lc', 'dmv', 7): '64c4ed958b7e7a2daa48e912d9766907e9af848163000fe4737fa19756cdc797',
    ('lc', 'random', 1): '11ff0c9814da5b2bbc60bf6c53b12d1da2a04be807ddd8fcd518aedb2bb31c77',
    ('lc', 'random', 2): '204fd4c0b1a08d203d71b19e9c0df7e06ad02b61996ebe48fa24ab7ca5c1ad82',
    ('lc', 'random', 3): 'f7713f6414d85b8b054dd59c4da1f46ef429b8229b749720905f7f9f38f2818f',
    ('lc', 'random', 4): '72f49bd92fda7e0fc43165f269a287177dbe85160407b94f62dc64d436ff5901',
    ('lc', 'random', 5): '9146109ce2b6b66f11cede63a8dea99c95b1dd9647d1386d37f4f244cd4c4bf5',
    ('lc', 'random', 6): 'fb817fe9d9c9f3d2899f1fe35383fe5d6ee88be1a559c7eb767a98532e780d0d',
    ('lc', 'random', 7): 'dee284e3244c8f510eaed4bb6355e942c34130a5e177fe357b9b34a392447a5b',
    ('eisner', 'dmv', 1): '65065ddff54e3151adec10d236bbcdcb0ace2ce28ff633c3cbb2ee4e5ea30bfe',
    ('eisner', 'dmv', 2): 'df3a931abe98f4bbb1d7bd1b6a92e84c2ee349bcb3967ec62e3628a067fed191',
    ('eisner', 'dmv', 3): 'a812521ce8707ae776ca5a886986c36179c64d95f910caf295821cda574a79f9',
    ('eisner', 'dmv', 4): '0717d946d5b7dc8afad4b1918353fb0d6fd86dc673d2e3eed544b39074d174f0',
    ('eisner', 'dmv', 5): 'ea3138e37e3a7f132e3d0d36edca289dd900320a8de76d5b2718afa1579574b8',
    ('eisner', 'dmv', 6): '527bc4c34a83233d77bb293509b9605ba129a6413b47ca3b26e7d4f82b319cef',
    ('eisner', 'dmv', 7): '44d1b795c539edb9a1022e3e42933b6e808e63f02081a5aac028a4cbc19d029f',
    ('eisner', 'random', 1): 'ca2be47a138f3b4e0b6dfcb82eef2d48ea5cc11e56bf18969011b1cb016f4db6',
    ('eisner', 'random', 2): '7e3a23e7b8631086e9d2d10b287894b39cd7e48af9aa5e0cc09bc91271f02429',
    ('eisner', 'random', 3): 'fd784d12cb7740cf00d3faeea19c140a5547d385531dd6237958a05e012ffa50',
    ('eisner', 'random', 4): '1d7753b5eac16a327796c8aa81a2c0b08ff4d3494a78c4ab70f62fb01840e82a',
    ('eisner', 'random', 5): '45ef91e734ba9872f2c8ba7f73f7d6fcf68ea422cf82f4b9041859fbae6b0e5b',
    ('eisner', 'random', 6): '1ade3b62ec300f671166e03a08fdfe93d1706dffb1216bc61c861a0c5fa13eb8',
    ('eisner', 'random', 7): 'e4b156da4096e8e6d03af1b76814e0ed260a31e55b190b00520e43ec75334c78',
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
