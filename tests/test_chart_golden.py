"""Golden digests of the forests both charts build.

For each length n <= 7 the digest covers the forest's items and events and
its edge arrays (``edge_head``, ``edge_tail``, ``event_ptr``,
``event_flat``): for the left-corner chart under every depth policy of
POLICIES, for the head-split chart once per length, each on DMV automata
and on seeded random automata.
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
    ('lc', 'dmv', 1): '23a8f00c64074f8a5c89fc2c3ec847d27bf2b6eebef517b945b9e049f68a88a1',
    ('lc', 'dmv', 2): 'ebcc069ec46e07fb3ecb72488db8d6d49f60fab7d94721f9ea8e731fe8e0d7d4',
    ('lc', 'dmv', 3): '98b1ee3539a172f975a86c70b6cb2703eecf3bbb363cd47b810f60854323126e',
    ('lc', 'dmv', 4): 'c2f4743a7a5e4845144816559915fbbf0908f382c745cb46245e80d124ac34f2',
    ('lc', 'dmv', 5): 'f363ff0bfa6eaa2773b09490070750f8b483005e56e99ea0f28f279ec0fa2430',
    ('lc', 'dmv', 6): 'c30f588a22d0cbfcfdf85e0837d9972d0d8a3c1b85e232c1da7d09789f8efaf4',
    ('lc', 'dmv', 7): '56feb7717a23dbcb3508df03e67f20e7da350fdec0c828f7b0271d51f48f4ecb',
    ('lc', 'random', 1): '6d31609f0532142a4b37222a7508fc41f71ed34090e45faf509327508060f68c',
    ('lc', 'random', 2): 'df439ab1ee272f90d033bba29eb9b6fe6ed14a8ea213e26c3d0956f0209cd6b4',
    ('lc', 'random', 3): 'f4a3eb4c17f0148434bc5939d0a0cace72d15dfcfeb172ece1b158e04771b3a4',
    ('lc', 'random', 4): '18e78fae2ae20208766e064387dace48201dbfec28ac0d476ec58238c876d3eb',
    ('lc', 'random', 5): 'f7c93d9556980a31fadfc7f2cbfdd219b9b6bd073250ac024ddff9f87842e080',
    ('lc', 'random', 6): 'e1e5c7049bfb05feb6c17df040f4b823445e7febcc514aef6d8d591f53c35063',
    ('lc', 'random', 7): '95f8b206a93dc713dd620b3bdde936421072162885f3856e2fae8a1c7b6ac6a2',
    ('eisner', 'dmv', 1): '58414bd6fa83425b5a12cb028fd26dcad1cc75dbfa3cbbd52b60e70637dec843',
    ('eisner', 'dmv', 2): '333d33b6460cb87fd28cc2a98f8f73ff56b90a5260da1b12e9e9df8ddd49073f',
    ('eisner', 'dmv', 3): 'abac9aee36a22e4ab27d1f7bdcd1ce067844ebe0a5bc3ee7bd51a8440faf8132',
    ('eisner', 'dmv', 4): 'a82238dffbbaaf7cd1a75225b2d11bc48061374aa18d86f432c3a6aebfff2d2d',
    ('eisner', 'dmv', 5): 'c287f26ba6d8c4dc511057c6b91e6442de57c962fbd5c8e4eeb14121a6571d0f',
    ('eisner', 'dmv', 6): 'd2f9b5aa37cf9b667f3d12fa0efbc6e956411d9d84c8e5dc8d65b33a664dcc83',
    ('eisner', 'dmv', 7): 'b3eabd67fe02f6e0ef2173c5a232002050b365e8fea9e3e62681e4f6b03a6ecf',
    ('eisner', 'random', 1): 'bbddb691288408d0b991cea8c24943ad6e70c7d5bda125c390a21e7c7a5d3bca',
    ('eisner', 'random', 2): 'cb2daf99895f7c3dbc8453eba7fccd5e674b8881ed0b7029fcc30ecb7e639131',
    ('eisner', 'random', 3): 'ddc42d211685a0150583d3af34af77545818ea0028d8c0662034bf61825ecb7f',
    ('eisner', 'random', 4): '371c7ec88fef3e872b6a1863fdf545d9d813d8781c6c318e566bdd7cf344a441',
    ('eisner', 'random', 5): '2a6d307d984d7381b186a9f0e8fbe5b7a2ecacd579056fa466b320e4becff0c3',
    ('eisner', 'random', 6): '2879af56b8254d181d34ac3c3cd8ce22642cbb94b3a80af37e544c0e806e7a87',
    ('eisner', 'random', 7): 'cdfb395c34ab70cd2a328b865f386dad1b0241333e178cd8cd8c3ef9060623cc',
}


def blocked_sets(n):
    """Sets of positions whose token must head a dependent, as the tests
    of the must-head constraint draw them."""
    return (frozenset(), frozenset({1}), frozenset({2, n}))


def automata(kind, tags):
    if kind == "dmv":
        return sbg.dmv_sentence_automata(tags, sbg.uniform_dmv_params("NVD"))
    n = len(tags)
    return sbg.random_sentence_automata(n, 3, random.Random(n))


def forest_line(forest):
    return "%r|%r|%r|%r|%r|%r" % (
        list(forest.items), list(forest.events), forest.edge_head.tolist(),
        forest.edge_tail.tolist(), forest.event_ptr.tolist(),
        forest.event_flat.tolist())


def digest(chart, kind, n):
    tags = tuple("NVD"[k % 3] for k in range(n))
    sent = automata(kind, tags)
    if chart == "eisner":
        lines = [forest_line(sbg.eisner_forest(sent))]
    else:
        lines = [forest_line(lc_chart.lc_forest(sent, policy))
                 for policy in POLICIES]
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
