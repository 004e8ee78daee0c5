"""Dependency treebank reading, validation, and tree transformations.

Trees are immutable. Token positions are 1-based; head 0 means the token is
attached to the artificial root. `append_root` materializes that artificial
root as a "$" token at position n+1, which is the convention every parsing
module here assumes (the root node sits at the *end* of the sentence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ROOT_FORM = "$"
ROOT_TAG = "$"

# Universal Dependencies v1 tags; the Google universal treebanks use the
# older 12-tag inventory.
UD_FUNCTION_TAGS = frozenset({"ADP", "AUX", "CONJ", "DET", "PART", "SCONJ"})
UD_NOUN_TAGS = frozenset({"NOUN", "PRON", "PROPN"})
GOOGLE_FUNCTION_TAGS = frozenset({"DET", "CONJ", "PRT"})

DEFAULT_PUNCT_TAGS = frozenset({"PUNCT", "."})


class TreebankError(ValueError):
    pass


@dataclass(frozen=True)
class Token:
    index: int  # 1-based position
    form: str
    pos: str
    head: int  # head position, 0 = artificial root

    def __post_init__(self):
        if self.index < 1:
            raise TreebankError("token index must be >= 1, got %d" % self.index)
        if self.head == self.index:
            raise TreebankError("token %d is its own head" % self.index)


@dataclass(frozen=True)
class DepTree:
    """A single-rooted dependency tree over a sentence.

    The empty tree (no tokens) is permitted so that stripping an
    all-punctuation sentence has a representable result; callers drop it.
    """

    tokens: tuple[Token, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            return
        n = len(self.tokens)
        roots = []
        for i, tok in enumerate(self.tokens, start=1):
            if tok.index != i:
                raise TreebankError(
                    "token at position %d carries index %d" % (i, tok.index))
            if not (0 <= tok.head <= n):
                raise TreebankError(
                    "token %d has out-of-range head %d" % (i, tok.head))
            if tok.head == 0:
                roots.append(i)
        if len(roots) != 1:
            raise TreebankError("tree must have exactly one root, got %r" % roots)
        # acyclicity: walk up from every token
        for i in range(1, n + 1):
            seen = set()
            j = i
            while j != 0:
                if j in seen:
                    raise TreebankError("cycle through token %d" % i)
                seen.add(j)
                j = self.tokens[j - 1].head

    def __len__(self):
        return len(self.tokens)

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def heads(self) -> tuple[int, ...]:
        """heads[i-1] is the head of token i (0 for the root)."""
        return tuple(t.head for t in self.tokens)

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t.pos for t in self.tokens)

    @property
    def root(self) -> int:
        for t in self.tokens:
            if t.head == 0:
                return t.index
        raise TreebankError("empty tree has no root")

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """All (head, dependent) pairs except the root attachment."""
        return frozenset((t.head, t.index) for t in self.tokens if t.head != 0)

    def children(self, i: int) -> list[int]:
        return [t.index for t in self.tokens if t.head == i]

    def with_heads(self, heads) -> "DepTree":
        heads = list(heads)
        if len(heads) != len(self.tokens):
            raise TreebankError("head vector length mismatch")
        return DepTree(tuple(
            Token(t.index, t.form, t.pos, h) for t, h in zip(self.tokens, heads)))


def tree_from_heads(heads, tags=None, forms=None) -> DepTree:
    """Convenience constructor: heads[i] is the head of token i+1 (0 = root)."""
    n = len(heads)
    tags = list(tags) if tags is not None else ["X"] * n
    forms = list(forms) if forms is not None else ["w%d" % (i + 1) for i in range(n)]
    return DepTree(tuple(
        Token(i + 1, forms[i], tags[i], heads[i]) for i in range(n)))


@dataclass
class Corpus:
    sentences: list[DepTree]

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self):
        return len(self.sentences)

    def filtered(self, max_len: int) -> "Corpus":
        return Corpus([t for t in self.sentences if len(t) <= max_len])


_POS_COLUMN_ALIASES = {
    "cpostag": 3, "upos": 3, "upostag": 3,
    "postag": 4, "xpos": 4, "xpostag": 4,
}


def _resolve_pos_column(pos_column) -> int:
    if isinstance(pos_column, str):
        try:
            return _POS_COLUMN_ALIASES[pos_column.lower()]
        except KeyError:
            raise TreebankError("unknown POS column selector %r" % pos_column)
    return int(pos_column)


def parse_conll(text: str, pos_column=3, max_len: int | None = None) -> Corpus:
    """Parse CoNLL-X / CoNLL-U text into a Corpus.

    `pos_column` selects the 0-based column holding the POS tag (3 = CPOSTAG /
    UPOS, 4 = POSTAG / XPOS; string aliases accepted). Multiword-token ranges
    ("1-2") and empty nodes ("8.1") are skipped, comment lines ignored.
    """
    col = _resolve_pos_column(pos_column)
    sentences = []
    rows: list[tuple[int, str, str, int]] = []  # (id, form, pos, head)

    def flush(line_no):
        if not rows:
            return
        rows.sort(key=lambda r: r[0])
        ids = [r[0] for r in rows]
        if ids != list(range(1, len(ids) + 1)):
            raise TreebankError(
                "sentence %d (ending line %d): token ids %r are not 1..n"
                % (len(sentences) + 1, line_no, ids))
        try:
            tree = DepTree(tuple(Token(i, f, p, h) for i, f, p, h in rows))
        except TreebankError as e:
            raise TreebankError(
                "sentence %d (ending line %d): %s" % (len(sentences) + 1, line_no, e))
        sentences.append(tree)
        rows.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush(line_no)
            continue
        if line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) == 1:  # tolerate space-separated test fixtures
            fields = line.split()
        if len(fields) < 8:
            raise TreebankError("line %d: expected >= 8 columns, got %d"
                                % (line_no, len(fields)))
        tok_id = fields[0]
        if "-" in tok_id or "." in tok_id:
            continue
        try:
            idx = int(tok_id)
            head = int(fields[6])
        except ValueError:
            raise TreebankError("line %d: malformed ID or HEAD field" % line_no)
        if col >= len(fields):
            raise TreebankError("line %d: no column %d" % (line_no, col))
        rows.append((idx, fields[1], fields[col], head))
    flush(line_no=len(text.splitlines()) + 1)

    corpus = Corpus(sentences)
    if max_len is not None:
        corpus = corpus.filtered(max_len)
    return corpus


def serialize_conll(corpus) -> str:
    """Emit CoNLL-X style text; parse_conll(serialize_conll(c)) round-trips
    FORM, POS, and HEAD."""
    blocks = []
    for tree in corpus:
        lines = []
        for t in tree.tokens:
            lines.append("\t".join([
                str(t.index), t.form, "_", t.pos, t.pos, "_",
                str(t.head), "_", "_", "_",
            ]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def strip_punctuation(tree: DepTree, punct_tags=DEFAULT_PUNCT_TAGS) -> DepTree:
    """Remove punctuation tokens, reattaching children of a removed token to
    its closest non-punctuation ancestor. Returns the empty tree if every
    token is punctuation."""
    keep = [t.index for t in tree.tokens if t.pos not in punct_tags]
    if not keep:
        return DepTree(())
    new_index = {old: new for new, old in enumerate(keep, start=1)}
    lifted = {}
    for old in keep:
        h = tree.tokens[old - 1].head
        while h != 0 and tree.tokens[h - 1].pos in punct_tags:
            h = tree.tokens[h - 1].head
        lifted[old] = h
    rootless = [old for old in keep if lifted[old] == 0]
    # normally just the original root; if the root was punctuation, the
    # leftmost stranded token takes over and the others attach under it
    new_root = tree.root if tree.root in lifted and lifted[tree.root] == 0 \
        else rootless[0]
    new_tokens = []
    for old in keep:
        tok = tree.tokens[old - 1]
        if old == new_root:
            new_head = 0
        elif lifted[old] == 0:
            new_head = new_index[new_root]
        else:
            new_head = new_index[lifted[old]]
        new_tokens.append(Token(new_index[old], tok.form, tok.pos, new_head))
    return DepTree(tuple(new_tokens))


def _crossing(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (a1, a2), (b1, b2) = sorted(a), sorted(b)
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def is_projective(tree: DepTree) -> bool:
    """True iff no two arcs cross, counting the root attachment as an arc
    from the artificial root position n+1 (cf. append_root)."""
    if len(tree) <= 1:
        return True
    arcs = list(tree.arcs)
    arcs.append((len(tree) + 1, tree.root))
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if _crossing(arcs[i], arcs[j]):
                return False
    return True


def projectivize(tree: DepTree) -> DepTree:
    """Pseudo-projectivize by repeatedly lifting the dependent of the
    shortest non-projective arc to its head's head (unlabeled; no inverse
    transformation). Projective input comes back unchanged."""
    if not tree.tokens:
        return tree
    heads = list(tree.heads)
    n = len(heads)

    def offenders():
        arcs = [(h, d) for d, h in enumerate(heads, start=1) if h != 0]
        root = heads.index(0) + 1
        all_arcs = arcs + [(n + 1, root)]
        bad = set()
        for i in range(len(all_arcs)):
            for j in range(i + 1, len(all_arcs)):
                if _crossing(all_arcs[i], all_arcs[j]):
                    for arc in (all_arcs[i], all_arcs[j]):
                        # the root attachment and arcs out of the root token
                        # cannot be lifted (their "grandparent" is artificial);
                        # every crossing pair contains a liftable arc, since
                        # two arcs sharing the root endpoint never cross
                        if arc[0] != n + 1 and heads[arc[0] - 1] != 0:
                            bad.add(arc)
        return bad

    while True:
        bad = offenders()
        if not bad:
            break
        h, d = min(bad, key=lambda arc: (abs(arc[0] - arc[1]), arc[1]))
        heads[d - 1] = heads[h - 1]  # nonzero: root-headed arcs are excluded
    return tree.with_heads(heads)


def append_root(tree: DepTree, if_present: str = "error") -> DepTree:
    """Append the artificial root token "$" at position n+1 with a single
    arc to the old root. Applying it twice is an error by default
    (if_present="noop" returns the tree unchanged instead)."""
    if tree.tokens and tree.tokens[-1].form == ROOT_FORM \
            and tree.tokens[-1].pos == ROOT_TAG and tree.tokens[-1].head == 0:
        if if_present == "noop":
            return tree
        raise TreebankError("tree already carries an appended root")
    if not tree.tokens:
        raise TreebankError("cannot append a root to the empty tree")
    n = len(tree)
    old_root = tree.root
    tokens = [Token(t.index, t.form, t.pos, t.head if t.head != 0 else n + 1)
              for t in tree.tokens]
    tokens.append(Token(n + 1, ROOT_FORM, ROOT_TAG, 0))
    return DepTree(tuple(tokens))


def has_appended_root(tree: DepTree) -> bool:
    return bool(tree.tokens) and tree.tokens[-1].form == ROOT_FORM \
        and tree.tokens[-1].pos == ROOT_TAG and tree.tokens[-1].head == 0


def random_reorder(tree: DepTree, seed: int) -> DepTree:
    """Uniformly permute {head} ∪ children at every node and linearize
    depth-first; the output is projective by construction and isomorphic to
    the input."""
    rng = random.Random(seed)
    children = {i: tree.children(i) for i in range(0, len(tree) + 1)}
    order: list[int] = []

    def emit(node: int):
        block = [node] + children[node]
        rng.shuffle(block)
        for x in block:
            if x == node:
                order.append(node)
            else:
                emit(x)

    emit(tree.root)
    new_pos = {old: new for new, old in enumerate(order, start=1)}
    new_tokens = [None] * len(tree)
    for old in order:
        tok = tree.tokens[old - 1]
        head = 0 if tok.head == 0 else new_pos[tok.head]
        new_tokens[new_pos[old] - 1] = Token(new_pos[old], tok.form, tok.pos, head)
    return DepTree(tuple(new_tokens))
