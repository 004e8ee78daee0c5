"""Golden outputs of perceptron training and beam decoding.

The digests pin the model file, the final weights, the update count and
the decoded heads (unbounded, raw bound 2, depthRe bound 2 with relax_c=2)
of every transition system, so any change to feature extraction, scoring,
the beam or the update must reproduce them bit for bit.  Regenerate with

    PYTHONPATH=src python -m tests.test_supervised_golden
"""

import hashlib
import random

import pytest

from lcdep import supervised as sp
from lcdep.transition import ARC_EAGER, ARC_STANDARD, LEFT_CORNER
from lcdep.treebank import tree_from_heads

from tests.util import random_projective_tree

TAGS = ("N", "V", "D", "A", "P")
# one form contains ">", the separator between a feature and its action
FORMS = ("the", "dog", "saw", "a>b", "cat", "in", "red", "x")

CASES = (
    (LEFT_CORNER, sp.FULL),
    (LEFT_CORNER, sp.LIMITED),
    (ARC_STANDARD, sp.FULL),
    (ARC_EAGER, sp.FULL),
)

GOLDEN = {
    ('leftCorner', 'full'): {
        'model': '0401ae3eba3374403d387ab603de5c8eb8309fa7f0a08fd73166563f9764a152',
        'final': 'abb4e328730675089ac9c5da528d14697603b7be7c6d3ada18853c8cc92775e4',
        'updates': 28,
        'unbounded': 'ed40f779e289788c7d5043663687d4883c4d8d55de782b6178512e55cdb18e53',
        'raw2': '6a69e93a74ff6f019fee5a639c0d21a85120ebc6f619cb5dfe476475d8ebb3ca',
        'depthRe2': 'ed40f779e289788c7d5043663687d4883c4d8d55de782b6178512e55cdb18e53',
    },
    ('leftCorner', 'limited'): {
        'model': 'bc6a07c4e5a92824b18d90912d1a6c33e53a7fcd0d7127a730a1526f068e610a',
        'final': '985a400b1ba8de11967667e0f4aec75fd27f3f702eaf1f2b03ed99facb2a2564',
        'updates': 27,
        'unbounded': '5970320e196614f280cc4c22ef7b1f699403ba9e2928e2add6cd20cfa4800b65',
        'raw2': '4b2912db919f3fbcf8e3c077d3070a669d461cb374880e664d446f50b3ee39af',
        'depthRe2': '5970320e196614f280cc4c22ef7b1f699403ba9e2928e2add6cd20cfa4800b65',
    },
    ('arcStandard', 'full'): {
        'model': 'dc98c5271b4302141fbbb953b9d39fb651b02ab12e5d40fe243baf2e6805bac8',
        'final': 'd02fc7034f27f4a04d399dea78607a8cbfb1fe0e3b01f4fe9849bb9cdcc58624',
        'updates': 24,
        'unbounded': '4664e02ad4c854fddaff390c4b88f23c19559647fd877942508a3981282e0a3d',
        'raw2': 'eed9f4d79a642ff623f551a7fdb4f01064aab3e7d4dc4342a7587477c1abf5e4',
        'depthRe2': 'eed9f4d79a642ff623f551a7fdb4f01064aab3e7d4dc4342a7587477c1abf5e4',
    },
    ('arcEager', 'full'): {
        'model': '5535a1728b91d2a2f0cfdc728d23d6b44d6212e740a86d375d7b8d37bf97564e',
        'final': 'ce9776de555d96de9a6459647ec5b95806344605d8d9b280e937d6f4d4b0ea7a',
        'updates': 28,
        'unbounded': 'ab9af178723022c58b5b52c81aca059524b60ea36ceaa723845f8c5e8a1f9e2f',
        'raw2': '9d2cb1c0eb6edd935a8c73de2ca11d2f9117a293f8eaf5dba56a96abf4aefec8',
        'depthRe2': '9d2cb1c0eb6edd935a8c73de2ca11d2f9117a293f8eaf5dba56a96abf4aefec8',
    },
}


def _corpus(seed, lengths):
    rng = random.Random(seed)
    out = []
    for k, n in enumerate(lengths):
        heads = random_projective_tree(n, seed=1000 * seed + k).heads
        tags = [rng.choice(TAGS) for _ in range(n)]
        forms = [rng.choice(FORMS) for _ in range(n)]
        out.append(tree_from_heads(heads, tags=tags, forms=forms))
    return out


TRAIN = _corpus(1, (3, 5, 7, 4, 6, 8, 5, 9, 11, 6))
HELDOUT = _corpus(4, (6, 9, 12, 15))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _heads(decoded):
    return _sha(repr([t.heads for t in decoded]))


def digests(system, feature_set):
    model = sp.train_perceptron(TRAIN, system=system, feature_set=feature_set,
                                beam_size=4, epochs=3, seed=5)
    return {
        "model": _sha("\n".join(sp.parser_to_lines(model))),
        "final": _sha("\n".join(
            "%s\t%r" % kv for kv in sorted(model.final_weights.items()))),
        "updates": model.n_updates,
        "unbounded": _heads(sp.decode_corpus(HELDOUT, model)),
        "raw2": _heads(sp.decode_corpus(HELDOUT, model, depth_bound=2,
                                        depth_measure=sp.RAW)),
        "depthRe2": _heads(sp.decode_corpus(
            HELDOUT, model, depth_bound=2, depth_measure=sp.DEPTH_RE,
            relax_c=2)),
    }


@pytest.mark.parametrize("system,feature_set", CASES)
def test_golden_training_and_decoding(system, feature_set):
    assert digests(system, feature_set) == GOLDEN[system, feature_set]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print("    %r: {" % (case,))
        for key, value in digests(*case).items():
            print("        %r: %r," % (key, value))
        print("    },")
    print("}")
