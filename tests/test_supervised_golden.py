"""Golden outputs of perceptron training and beam decoding.

The digests pin the model file, the final weights, the update count and
the decoded heads (unbounded, raw bound 2, depthRe bound 2 with relax_c=2)
of every transition system, so any change to feature extraction, scoring,
the beam or the update must reproduce them bit for bit.  A second corpus
puts the separators "|", ">" and "=" into forms and tags, so that value
tuples such as ("a|b", "c") and ("a", "b|c") spell the same feature and
must share its weight.  Regenerate with

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

# forms and tags holding the separators: a|b + c and a + b|c join alike
SEP_TAGS = ("c", "b|c", "a", "N=V", "V>")
SEP_FORMS = ("a|b", "a", "b|c", "c", "x>y", "p=q")

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

GOLDEN_SEPARATORS = {
    ('leftCorner', 'full'): {
        'model': '940eb5de3309067a84011936941d61539dfa9b96ea28fa76bb8671f0fbef3494',
        'final': '8bc83fc9a1f8b4535da6a92dcfa6517fd110f9acc2d0b8e9b0c3645105bff244',
        'updates': 24,
        'unbounded': '25a96fab1d0edd9c585a270490b730b6c522e65d42772c23408f78046d1f0a0f',
        'raw2': '25a96fab1d0edd9c585a270490b730b6c522e65d42772c23408f78046d1f0a0f',
        'depthRe2': '25a96fab1d0edd9c585a270490b730b6c522e65d42772c23408f78046d1f0a0f',
    },
    ('leftCorner', 'limited'): {
        'model': '5261cce7005c7cb29b42024206b52e0e744924bbc5d9d5dca71e9281427c8d0c',
        'final': '61bf93f163ef4202ad3b07a4186530539ff61f97424d9569b4a99ac73bbc0c6e',
        'updates': 25,
        'unbounded': '8818accd754dc80b25ca2b4d0cdbc827b1205c883ef780904a31b2fcf5fc6e3e',
        'raw2': '8818accd754dc80b25ca2b4d0cdbc827b1205c883ef780904a31b2fcf5fc6e3e',
        'depthRe2': '8818accd754dc80b25ca2b4d0cdbc827b1205c883ef780904a31b2fcf5fc6e3e',
    },
    ('arcStandard', 'full'): {
        'model': '4323a0ca21f001da4c916a8674626a5fd56850c30aa2d535aab7e20556e85222',
        'final': 'b9521ff96227d29b9d1249dbd807d43e29cde8b48b90d4ef346d6575c0d1677e',
        'updates': 21,
        'unbounded': '016701a442a90d92b6ebe5b6a55fcbb3dba5a4cf743457a0e6acc86c21e300ba',
        'raw2': '62d26c73517ac6c744c8ad2e1f63dc26be1e01acce50be7f7394a85c1760d35c',
        'depthRe2': '62d26c73517ac6c744c8ad2e1f63dc26be1e01acce50be7f7394a85c1760d35c',
    },
    ('arcEager', 'full'): {
        'model': '9ed794d9e8494d9d0d218c6b057afb3652de782e4d6f69b18643e34540c19845',
        'final': '5e16332df55d41fdacca2effccf7fffc30c61f85fd5e07e1a8c92e72de84e50d',
        'updates': 28,
        'unbounded': '84e2e49fa5ee38c6413c57bc5c8c7b2957e36d8b0232f5e3a684eb23cc90c9cb',
        'raw2': '412bbb10871fc346ef245caa5be02de10c13d908317453c4ca78bcc88055a357',
        'depthRe2': '412bbb10871fc346ef245caa5be02de10c13d908317453c4ca78bcc88055a357',
    },
}


def _corpus(seed, lengths, tagset=TAGS, formset=FORMS):
    rng = random.Random(seed)
    out = []
    for k, n in enumerate(lengths):
        heads = random_projective_tree(n, seed=1000 * seed + k).heads
        tags = [rng.choice(tagset) for _ in range(n)]
        forms = [rng.choice(formset) for _ in range(n)]
        out.append(tree_from_heads(heads, tags=tags, forms=forms))
    return out


TRAIN_LENGTHS = (3, 5, 7, 4, 6, 8, 5, 9, 11, 6)
HELDOUT_LENGTHS = (6, 9, 12, 15)
CORPORA = {
    "plain": (_corpus(1, TRAIN_LENGTHS), _corpus(4, HELDOUT_LENGTHS)),
    "separators": (_corpus(1, TRAIN_LENGTHS, SEP_TAGS, SEP_FORMS),
                   _corpus(4, HELDOUT_LENGTHS, SEP_TAGS, SEP_FORMS)),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _heads(decoded):
    return _sha(repr([t.heads for t in decoded]))


def digests(system, feature_set, corpus="plain"):
    train, heldout = CORPORA[corpus]
    model = sp.train_perceptron(train, system=system, feature_set=feature_set,
                                beam_size=4, epochs=3, seed=5)
    return {
        "model": _sha("\n".join(sp.parser_to_lines(model))),
        "final": _sha("\n".join(
            "%s\t%r" % kv for kv in sorted(model.final_weights.items()))),
        "updates": model.n_updates,
        "unbounded": _heads(sp.decode_corpus(heldout, model)),
        "raw2": _heads(sp.decode_corpus(heldout, model, depth_bound=2,
                                        depth_measure=sp.RAW)),
        "depthRe2": _heads(sp.decode_corpus(
            heldout, model, depth_bound=2, depth_measure=sp.DEPTH_RE,
            relax_c=2)),
    }


@pytest.mark.parametrize("system,feature_set", CASES)
def test_golden_training_and_decoding(system, feature_set):
    assert digests(system, feature_set) == GOLDEN[system, feature_set]


@pytest.mark.parametrize("system,feature_set", CASES)
def test_golden_with_separators_in_the_forms(system, feature_set):
    assert (digests(system, feature_set, "separators")
            == GOLDEN_SEPARATORS[system, feature_set])


if __name__ == "__main__":
    for name, corpus in (("GOLDEN", "plain"),
                         ("GOLDEN_SEPARATORS", "separators")):
        print("%s = {" % name)
        for case in CASES:
            print("    %r: {" % (case,))
            for key, value in digests(*case, corpus).items():
                print("        %r: %r," % (key, value))
            print("    },")
        print("}")
