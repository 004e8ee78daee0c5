"""Seeded synthetic treebanks for the benchmark.

The benchmark draws its own inputs with a head-outward sampler over a
planted grammar defined here, so a change to the program cannot change what
the benchmark feeds it.  The program only ever sees the CoNLL text that
``to_conll`` writes.
"""

import hashlib
import random

# The planted grammar uses all 17 tags of Universal Dependencies v1.
ROOT = {"VERB": 70, "NOUN": 12, "ADJ": 6, "PROPN": 5, "PRON": 2, "NUM": 2,
        "X": 1, "INTJ": 1, "SYM": 1}

# head tag -> (left dependents, right dependents), each a weight table
# followed by the stop probabilities (adjacent, non-adjacent) of that side.
GRAMMAR = {
    "VERB": (
        ({"PRON": 4, "NOUN": 4, "PROPN": 2, "AUX": 3, "ADV": 2, "PART": 2,
          "SCONJ": 1, "INTJ": 1, "CONJ": 1}, 0.30, 0.70),
        ({"NOUN": 5, "PRON": 1, "PROPN": 1, "ADV": 2, "PUNCT": 3, "VERB": 1,
          "ADJ": 1, "NUM": 1, "CONJ": 1}, 0.25, 0.55),
    ),
    "NOUN": (
        ({"DET": 6, "ADJ": 3, "NUM": 1, "ADP": 3, "PROPN": 1}, 0.35, 0.70),
        ({"NOUN": 2, "ADJ": 1, "VERB": 1, "PROPN": 1, "X": 1, "CONJ": 1,
          "SYM": 1}, 0.70, 0.85),
    ),
    "PROPN": (
        ({"ADP": 3, "DET": 1, "PROPN": 2}, 0.55, 0.85),
        ({"PROPN": 2, "NUM": 1, "PUNCT": 1}, 0.75, 0.90),
    ),
    "PRON": (({"ADP": 1}, 0.85, 0.95), ({"ADJ": 1}, 0.95, 0.99)),
    "ADJ": (
        ({"ADV": 3, "ADP": 1}, 0.65, 0.90),
        ({"NOUN": 1, "VERB": 1, "PUNCT": 1}, 0.85, 0.95),
    ),
    "ADV": (({"ADV": 1}, 0.90, 0.95), ({"ADP": 1}, 0.95, 0.99)),
    "NUM": (({"NUM": 1, "ADP": 1}, 0.80, 0.95), ({"SYM": 1}, 0.85, 0.95)),
    "X": (({"DET": 1}, 0.90, 0.95), ({"X": 1}, 0.85, 0.95)),
    "INTJ": (({}, 1.0, 1.0), ({"PUNCT": 1}, 0.70, 0.95)),
    "SYM": (({"NUM": 1}, 0.90, 0.95), ({}, 1.0, 1.0)),
}
LEAF = (({}, 1.0, 1.0), ({}, 1.0, 1.0))


def _draw(rng, table):
    u = rng.random() * sum(table.values())
    for key in sorted(table):
        u -= table[key]
        if u < 0:
            return key
    return max(table)


class _TooLong(Exception):
    pass


def sample_tree(rng, max_len):
    """One (tags, heads) pair drawn head-outward, or None past max_len.

    heads[i] is the 1-based head of token i+1, 0 for the root.
    """
    budget = [max_len]

    def gen(tag):
        budget[0] -= 1
        if budget[0] < 0:
            raise _TooLong
        sides = []
        for table, stop_adj, stop_non in GRAMMAR.get(tag, LEAF):
            deps = []
            while table and rng.random() >= (stop_non if deps else stop_adj):
                deps.append(gen(_draw(rng, table)))
            sides.append(deps)
        return tag, sides[0], sides[1]

    try:
        root = gen(_draw(rng, ROOT))
    except _TooLong:
        return None
    tags, heads = [], []

    def place(node):
        """Lay out a subtree; returns its head's position."""
        tag, left, right = node
        # dependents are generated nearest-first, so the last left one
        # lands leftmost
        kids = [place(child) for child in reversed(left)]
        pos = len(tags) + 1
        tags.append(tag)
        heads.append(0)
        kids += [place(child) for child in right]
        for k in kids:
            heads[k - 1] = pos
        return pos

    place(root)
    return tuple(tags), tuple(heads)


def sample_length(rng, n, tagset=None):
    """A tree of exactly n tokens, all of them in ``tagset`` if given, by
    rejection."""
    while True:
        drawn = sample_tree(rng, n)
        if (drawn is not None and len(drawn[0]) == n
                and (tagset is None or tagset.issuperset(drawn[0]))):
            return drawn


def stratified(rng, lengths, per_length, tagset=None):
    return [sample_length(rng, n, tagset)
            for n in lengths for _ in range(per_length)]


LEXICON = 12  # word forms per tag


def with_forms(rng, trees):
    """Attach word forms: each tag has its own small Zipfian lexicon."""
    ranks = {r: 1.0 / r for r in range(1, LEXICON + 1)}
    out = []
    for tags, heads in trees:
        forms = tuple("%s%d" % (t.lower(), _draw(rng, ranks)) for t in tags)
        out.append((tags, heads, forms))
    return out


def to_conll(trees):
    """CoNLL-X text for (tags, heads[, forms]) trees."""
    blocks = []
    for tree in trees:
        tags, heads = tree[0], tree[1]
        forms = tree[2] if len(tree) > 2 else tuple(t.lower() for t in tags)
        lines = [
            "%d\t%s\t_\t%s\t%s\t_\t%d\t_\t_\t_" % (i + 1, f, t, t, h)
            for i, (t, h, f) in enumerate(zip(tags, heads, forms))
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]
