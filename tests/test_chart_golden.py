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
    ('lc', 'dmv', 1): '1a0fa4dbeb887f7448d568a43e776e3f17927b5d5af2a675f7ed9da064eff381',
    ('lc', 'dmv', 2): '8fa5480c8977b6437ce7cd46c927e6ec70c10f03c19fd2579beec316cf166e49',
    ('lc', 'dmv', 3): '4ed38d4b1d7aa16641bd975ff0e89069cc773b503a86b9f2953e4465fb08ecf3',
    ('lc', 'dmv', 4): '8b4d415def91b136e3f12bff96f5a7a5d5d50877028a981a0cf995cafd584103',
    ('lc', 'dmv', 5): '5dcbcbb7b0c4aea121747aa75a474009acaff2d6e155fac46371e837df8469eb',
    ('lc', 'dmv', 6): '219e57cb930ef919b0f0f64a1220e0fe02e833fa94b80af90e362fa2d926fad0',
    ('lc', 'dmv', 7): '706634e1b62f62cad49c736bd53900237d09521119e3c266154a734906ffb7c5',
    ('lc', 'random', 1): '84b7a5145d5c4942434caba2782a54af6b332ebe176eb8e9eeadc60878dfa254',
    ('lc', 'random', 2): '5eccf4a923776567dea4a3252f8d19505c0c9376f02ffdea35c032f30469cea7',
    ('lc', 'random', 3): '2b799465564e2dadfb59932488121f8fd43273d3349560b7ad31899ff3518c2f',
    ('lc', 'random', 4): '7f466d6ff558210135ee9289d713babe9a7106debe86f345551c58b51ed6efb8',
    ('lc', 'random', 5): 'c7b9208529da9fdcaa2037e9d6c340fbae30e31b11a9b74c3d8e5bb755b848a9',
    ('lc', 'random', 6): 'e6895328246598e4d224bf525f7b981143fb3cfbdf5e608c4e2a6a3fbc0d918a',
    ('lc', 'random', 7): 'd1579abb30924bbb3f6c398e0b2cb3403767e6d4095f7df9197e29f55919bba8',
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
        forest.items, forest.events, forest.edge_head.tolist(),
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
