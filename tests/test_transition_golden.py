"""Golden digests of the oracle traces of every transition system.

For each system and each length n <= 7, the digest covers every projective
tree of n tokens and its ``append_root`` form: the action, depth, phase and
``top_size`` of every step, and the arcs the replay produced.  Any change to
a system's configurations, actions, oracle or depth must reproduce them.
Regenerate with

    PYTHONPATH=src python -m tests.test_transition_golden
"""

import hashlib

import pytest

from lcdep.exhaustive import projective_deptrees
from lcdep.transition import SYSTEMS, run_oracle
from lcdep.treebank import append_root

MAX_N = 7

GOLDEN = {
    ('leftCorner', 1): 'e8bf0a64be5273e338f433d4d68b5a354009f923498cf03c40c2bbfcdb22c7bc',
    ('leftCorner', 2): 'b4e7257dea1fb6bd452094e9144c4140db9180b6c7b93c1f563652b2ddeec9f5',
    ('leftCorner', 3): '973ced43b058045d05b4d876e0e17fd29d6fd466c98413ca02b16c1e63abaa86',
    ('leftCorner', 4): '3c7f7d49e1768248a621e31b2f41f095532f1445b7bd1ad22da876f766a8da93',
    ('leftCorner', 5): '86bbf3d5c299e5551c7d14d7a8755a667a50c6ac4c2c419e9b482fa909163ee0',
    ('leftCorner', 6): 'd909256fde54d3bca519bb5b071e8da28f94d97a7c927c014c8b29b791ed388c',
    ('leftCorner', 7): '44a38c228f02289137505f2bda9bb34ef0b6150d1f67705bd8a965bf1bd7a4c2',
    ('arcStandard', 1): '942c443d50ac310240fc44a0efec0e47b0e51d835aa6d68f72cec5c413d59d95',
    ('arcStandard', 2): '2d91076dfe15f6c53d6ce15d4106559c5f0267f7f3b51d48ee3e968a932bf9ad',
    ('arcStandard', 3): 'bd4c34dce23d265c167db31f33f9ac5d0d7f6fd6703b87b196ddfdfee54ec342',
    ('arcStandard', 4): 'f70e9e29de6d4c989746a23ba9e8af53edb22252be1978c5ace64de5c278c3a7',
    ('arcStandard', 5): 'be3d62f572c6f056c845485c44f5c5a65b075f16ef13e22ced1308616311b21d',
    ('arcStandard', 6): '22bffbf1f7136d50ab211c9e8e7ab3f43dc22e24f120b35ed31b53d97ddb3683',
    ('arcStandard', 7): '1b8ae98d36e3a4e5672b3de6aad43caf2f856fcf9dafcb994e3e506c54750b65',
    ('arcEager', 1): '2ac20c4ee11b604296e7f9afd8887a275675f65eb27de1b85782abbf22ab05a9',
    ('arcEager', 2): 'c4eb43020d448113903c09fe0433131a54c611cf27067e048c4164e96b72e8be',
    ('arcEager', 3): 'b550ed86a3904c5f3cfd31fc5c23ef5cbc5984db59bb11555446a82f01c06516',
    ('arcEager', 4): 'd27302bfbe1ba59bd5700966f7c7c58c3d8515ea07fd7810423e5195cc894b23',
    ('arcEager', 5): '10ce8696d7376acd81ca7559a7c353944f8d97df81dd0d462158787365e049b7',
    ('arcEager', 6): '65231fa41cb4bc62410f34298f9ad0202e4944a046e9cbc9b4fecff79a3bd78f',
    ('arcEager', 7): '504678f8fc032264b9b8451080eec023c24d0b5005af699546bbd789c8864b32',
}


def _trace_line(tree, system):
    trace = run_oracle(tree, system)
    steps = ";".join("%s,%d,%s,%r" % (s.action, s.depth, s.phase, s.top_size)
                     for s in trace.steps)
    return "%r|%s|%r" % (tree.heads, steps, sorted(trace.arcs))


def digest(system, n):
    lines = []
    for tree in projective_deptrees(n):
        lines.append(_trace_line(tree, system))
        lines.append(_trace_line(append_root(tree), system))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_golden_oracle_traces(system, n):
    assert digest(system, n) == GOLDEN[system, n]


if __name__ == "__main__":
    print("GOLDEN = {")
    for system in SYSTEMS:
        for n in range(1, MAX_N + 1):
            print("    (%r, %d): %r," % (system, n, digest(system, n)))
    print("}")
