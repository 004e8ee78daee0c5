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
    ('lc', 'dmv', 1): '3cb43ea69c4fc3f614699378958d93f73815cb882d843f95ce7b9f76eaaaa063',
    ('lc', 'dmv', 2): 'c24e6145ffc4d0bf9b35a8c59470f337455586573bfd311f8cd1de9f6f1c71fe',
    ('lc', 'dmv', 3): 'd585db1769b01b1aa612e9265ee88beba3e3a2c76038ac7d325d84bc0dbd87b0',
    ('lc', 'dmv', 4): '56ac7d9794ac6a6ce7e1e7a254efe74ed4a4880c24f0463ed235aca253b2edfe',
    ('lc', 'dmv', 5): 'd08e45c7dd7cf9c29b8821fb819054a0c3dd08875768c47ba8da02ead5ce0dca',
    ('lc', 'dmv', 6): 'f3855eb4d5bcdba2fe40f5802de05f262a59d6946db7b15badda123a888aca98',
    ('lc', 'dmv', 7): '692aba5b609f88ed3568fd462e6ee7729aca91c00a520076714bdc9973fa1001',
    ('lc', 'random', 1): '9deedee4aa4aa32adda45bd26cd22bcb45cc3879b08fddd1d78d28bb1c4b6820',
    ('lc', 'random', 2): 'df439ab1ee272f90d033bba29eb9b6fe6ed14a8ea213e26c3d0956f0209cd6b4',
    ('lc', 'random', 3): 'f4a3eb4c17f0148434bc5939d0a0cace72d15dfcfeb172ece1b158e04771b3a4',
    ('lc', 'random', 4): '18e78fae2ae20208766e064387dace48201dbfec28ac0d476ec58238c876d3eb',
    ('lc', 'random', 5): 'f7c93d9556980a31fadfc7f2cbfdd219b9b6bd073250ac024ddff9f87842e080',
    ('lc', 'random', 6): '975348f27e0dbcb6845a96397b1aaab78ee464525956400cbab7052152640212',
    ('lc', 'random', 7): 'a7ba44669bce13076606d59f9c380d04eb52d56957d6e82b767b109422bd651e',
    ('eisner', 'dmv', 1): '9a395281a67aa58ddd282a431358007a391979f7c79c8f8f858a73d7145e6f55',
    ('eisner', 'dmv', 2): '9e8a0d92133cf1ef8ef0c069973812fb4a660c766da6c5e7b2028464481d05d7',
    ('eisner', 'dmv', 3): '87618536361a0dc6ef2382b4dd9bb2b287008ec778c261c8a32c4d61e1ab0484',
    ('eisner', 'dmv', 4): 'cd3d69e73b03c92a6ceb9dbae5a9434d31bb1b429302ff2a7300af5ffd0067d7',
    ('eisner', 'dmv', 5): 'a116a06293a10366caebd22234e301c2b1e6409d2630276ccf636e4b01a4811c',
    ('eisner', 'dmv', 6): '1d801e98be1bbfd54c1eb7f59e19a75859029dd787b8acb4b9720a43991066fd',
    ('eisner', 'dmv', 7): '58dcc42d43bde772ae554e3bb02fb27e0430797f3d4f09fc90a2415101d15d59',
    ('eisner', 'random', 1): '92bd6058bcab19b3bac680851def347e0faa71a0233439c81043496ee2352a76',
    ('eisner', 'random', 2): 'cb2daf99895f7c3dbc8453eba7fccd5e674b8881ed0b7029fcc30ecb7e639131',
    ('eisner', 'random', 3): 'ddc42d211685a0150583d3af34af77545818ea0028d8c0662034bf61825ecb7f',
    ('eisner', 'random', 4): '371c7ec88fef3e872b6a1863fdf545d9d813d8781c6c318e566bdd7cf344a441',
    ('eisner', 'random', 5): '2a6d307d984d7381b186a9f0e8fbe5b7a2ecacd579056fa466b320e4becff0c3',
    ('eisner', 'random', 6): 'bf44b0fc0adcd8745589979e7e8dbbe0713cd5792447b892bbcb77d37f56f9bb',
    ('eisner', 'random', 7): 'c820da31bb652648e7233408fa8a17d6179216858fdaca770a7bf7a349e90c1e',
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
