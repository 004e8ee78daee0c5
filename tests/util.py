"""Independent reference implementations used to check the package.

The degree oracle here searches for the zig-zag derivation pattern directly
(chains of right-edge runs into left-edge runs), with none of the run-counting
arithmetic the production code uses.
"""

import random

from lcdep.treebank import tree_from_heads


def _yield_size(node):
    if node.is_preterminal:
        return 1
    return sum(_yield_size(c) for c in node.children)


def _first_leaf(node, offset):
    """Position (1-based, given the subtree starts at `offset`) of the
    leftmost terminal."""
    return offset


def _left_chain(node):
    """Strict descendants reached by repeatedly taking the first child."""
    out = []
    cur = node
    while not cur.is_preterminal:
        cur = cur.children[0]
        out.append(cur)
    return out


def _right_chain(node):
    out = []
    cur = node
    while not cur.is_preterminal:
        cur = cur.children[1]
        out.append(cur)
    return out


def chain_degree(parse):
    """Center-embedding degree by explicit chain search.

    A chain alternates B-nodes and C-nodes: B1 is any right child, each C_i
    is reached from B_i by one or more first-child steps, each B_{i+1} from
    C_i by one or more last-child steps, and the final C_m spans at least two
    words. The degree is the largest chain length m.
    """
    memo = {}

    def chase(b):
        if id(b) in memo:
            return memo[id(b)]
        best = 0
        for c in _left_chain(b):
            here = 1 if _yield_size(c) >= 2 else 0
            for b2 in _right_chain(c):
                sub = chase(b2)
                if sub:
                    here = max(here, 1 + sub)
            best = max(best, here)
        memo[id(b)] = best
        return best

    best = 0

    def visit(node):
        nonlocal best
        if node.is_preterminal:
            return
        best = max(best, chase(node.children[1]))
        visit(node.children[0])
        visit(node.children[1])

    visit(parse)
    return best


def chain_token_degree(parse, position):
    """Token-level degree: the largest chain whose innermost constituent
    contains the token somewhere other than its first word."""
    spans = {}

    def index(node, lo):
        if node.is_preterminal:
            spans[id(node)] = (lo, lo)
            return lo + 1
        mid = index(node.children[0], lo)
        hi = index(node.children[1], mid)
        spans[id(node)] = (lo, hi - 1)
        return hi

    index(parse, 1)

    def contains_nonfirst(node):
        lo, hi = spans[id(node)]
        return lo < position <= hi

    def chase(b):
        best = 0
        for c in _left_chain(b):
            here = 1 if contains_nonfirst(c) else 0
            for b2 in _right_chain(c):
                sub = chase(b2)
                if sub:
                    here = max(here, 1 + sub)
            best = max(best, here)
        return best

    best = 0

    def visit(node):
        nonlocal best
        if node.is_preterminal:
            return
        lo, hi = spans[id(node.children[1])]
        if lo <= position <= hi:
            best = max(best, chase(node.children[1]))
        visit(node.children[0])
        visit(node.children[1])

    visit(parse)
    return best


def random_projective_tree(n, seed, tags=None):
    """Uniform-ish random projective single-root tree over n tokens."""
    rng = random.Random(seed)
    heads = [0] * n

    def build(lo, hi, head):
        if lo > hi:
            return
        r = rng.randint(lo, hi)
        heads[r - 1] = head
        split(lo, r - 1, r, rightward=False)
        split(r + 1, hi, r, rightward=True)

    def split(lo, hi, head, rightward):
        # tile [lo..hi] with child subtrees of `head`
        if lo > hi:
            return
        if rightward:
            k = rng.randint(lo, hi)
            build(lo, k, head)
            split(k + 1, hi, head, rightward)
        else:
            k = rng.randint(lo, hi)
            build(k, hi, head)
            split(lo, k - 1, head, rightward)
    build(1, n, 0)
    return tree_from_heads(heads, tags=tags)


def random_single_root_tree(n, seed, tags=None):
    """Random (possibly non-projective) single-root tree."""
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * n
    for k, tok in enumerate(order):
        if k == 0:
            heads[tok - 1] = 0
        else:
            heads[tok - 1] = order[rng.randrange(k)]
    return tree_from_heads(heads, tags=tags)


def _lc_token_view(tok, forms, tags):
    if tok is None or not (1 <= tok <= len(forms)):
        return {}
    return {("", "w"): forms[tok - 1], ("", "t"): tags[tok - 1]}


def _lc_incomplete_view(spine, forms, tags):
    view = {}

    def put(role, tok):
        view[role, "w"] = forms[tok - 1]
        view[role, "t"] = tags[tok - 1]

    nodes = spine.nodes
    if len(nodes) >= 1:
        put("p", nodes[-1])
    if len(nodes) >= 2:
        put("gp", nodes[-2])
    if len(nodes) >= 3:
        put("gg", nodes[-3])
    left = spine.dummy.left
    if len(left) >= 1:
        put("l", left[0])
    if len(left) >= 2:
        put("l2", left[1])
    return view


def _lc_complete_view(spine, arcs, forms, tags):
    root = spine.nodes[0]
    view = {("", "w"): forms[root - 1], ("", "t"): tags[root - 1]}
    children = sorted(d for h, d in arcs if h == root)
    if children:
        view["l", "w"] = forms[children[0] - 1]
        view["l", "t"] = tags[children[0] - 1]
        view["r", "w"] = forms[children[-1] - 1]
        view["r", "t"] = tags[children[-1] - 1]
    if len(children) >= 2:
        view["l2", "w"] = forms[children[1] - 1]
        view["l2", "t"] = tags[children[1] - 1]
    return view


def reference_lc_features(config, forms, tags, feature_set):
    """Left-corner feature strings computed view by view: a dict of
    (role, leaf) values per address, read back template by template."""
    from lcdep.supervised import NULL, lc_templates

    spines = config.spines
    reduce_mode = bool(spines) and spines[-1].is_complete
    views = {}
    if reduce_mode:
        views["q0"] = _lc_complete_view(spines[-1], config.arcs, forms, tags)
        stack_below = spines[:-1]
        buffer_from = config.buffer_pos
    else:
        views["q0"] = _lc_token_view(
            config.buffer_pos if not config.buffer_empty else None, forms, tags
        )
        stack_below = spines
        buffer_from = config.buffer_pos + 1
    if len(stack_below) >= 1:
        views["s0"] = _lc_incomplete_view(stack_below[-1], forms, tags)
    if len(stack_below) >= 2:
        views["s1"] = _lc_incomplete_view(stack_below[-2], forms, tags)
    views["q1"] = _lc_token_view(buffer_from, forms, tags)
    views["q2"] = _lc_token_view(buffer_from + 1, forms, tags)

    feats = []
    for idx, template in enumerate(lc_templates(feature_set)):
        vals = []
        for addr, role, leaf in template:
            view = views.get(addr)
            vals.append(view.get((role, leaf), NULL) if view else NULL)
        feats.append("%d=%s" % (idx, "|".join(vals)))
    return feats
