"""Independent reference implementations used to check the package.

The degree oracle here searches for the zig-zag derivation pattern directly
(chains of right-edge runs into left-edge runs), with none of the run-counting
arithmetic the production code uses.
"""

import collections
import math
import random

import numpy as np

from lcdep import hypergraph, induction, sbg
from lcdep.exhaustive import projective_trees
from lcdep.hypergraph import NEG_INF
from lcdep.induction import (
    CONTINUE,
    ROOT_HEAD,
    STOP,
    attach_features,
    stop_features,
)
from lcdep.sbg import (
    LEFT,
    RIGHT,
    DmvCounts,
    DmvParams,
    _tag_sequences,
    dmv_sentence_automata,
    eisner_forest,
    forest_expected_counts,
)
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


# ---------------------------------------------------------------------------
# sequential hypergraph build and passes


def reference_build_forest(goal, expand):
    """Memoize a backward-chaining expansion into a Forest: a coloured
    depth-first search, then a separate viability pass.

    ``expand(item)`` returns an iterable of ``(tails, events)`` pairs with
    at most two tails each.  Items whose every expansion bottoms out in a
    dead end are pruned (their edges are dropped), so passes only ever see
    derivable items.  Raises ValueError on a cyclic expansion.
    """
    items = [goal]
    item_index = {goal: 0}
    events = []
    event_index = {}

    def item_id(item):
        idx = item_index.get(item)
        if idx is None:
            idx = item_index[item] = len(items)
            items.append(item)
        return idx

    def event_id(event):
        idx = event_index.get(event)
        if idx is None:
            idx = event_index[event] = len(events)
            events.append(event)
        return idx

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {0: WHITE}
    raw_edges = {}
    topo = []
    stack = [(0, None)]
    while stack:
        iid, pending = stack.pop()
        if pending is None:
            if color.get(iid, WHITE) == BLACK:
                continue
            if color.get(iid) == GRAY:
                raise ValueError(
                    "cyclic chart expansion at %s" % (items[iid],)
                )
            color[iid] = GRAY
            edges = []
            children = []
            for tails, evs in expand(items[iid]):
                if len(tails) > 2:
                    raise ValueError("edge with %d tails at %s"
                                     % (len(tails), items[iid]))
                tail_ids = tuple(item_id(t) for t in tails)
                edges.append((tail_ids, tuple(event_id(ev) for ev in evs)))
                children.extend(tail_ids)
            raw_edges[iid] = edges
            stack.append((iid, True))
            for t in children:
                if color.get(t, WHITE) == WHITE:
                    stack.append((t, None))
                elif color.get(t) == GRAY:
                    raise ValueError(
                        "cyclic chart expansion at %s" % (items[t],)
                    )
        else:
            if color[iid] == BLACK:
                continue
            # all children must be finished before this item is
            unfinished = [
                t
                for tails, _ in raw_edges[iid]
                for t in tails
                if color.get(t, WHITE) != BLACK
            ]
            if unfinished:
                stack.append((iid, True))
                for t in unfinished:
                    if color.get(t, WHITE) == WHITE:
                        stack.append((t, None))
                continue
            color[iid] = BLACK
            topo.append(iid)

    # viability and level in one bottom-up pass: an edge survives when all
    # its tails are derivable, an item when one of its edges survives
    sentinel = len(items)
    level = [-1] * sentinel
    head, tail0, tail1, n_ev, flat = [], [], [], [], []
    for iid in topo:
        top = -1
        for tails, evs in raw_edges[iid]:
            above = 0
            for t in tails:
                lt = level[t]
                if lt < 0:
                    break
                if lt >= above:
                    above = lt + 1
            else:
                head.append(iid)
                tail0.append(tails[0] if tails else sentinel)
                tail1.append(tails[1] if len(tails) == 2 else sentinel)
                n_ev.append(len(evs))
                flat.extend(evs)
                if above > top:
                    top = above
        level[iid] = top
    # free the build's dicts first, which lowers the peak while the arrays
    # are made
    for table in (raw_edges, color, item_index, event_index):
        table.clear()
    return hypergraph.Forest(goal, items, events, level,
                  (head, tail0, tail1, n_ev, flat))


def reference_disjoint_union(forests):
    """The forests side by side, their edges concatenated in forest order
    and sorted by ``hypergraph.Forest``'s constructor: the reference for
    the sort-free layout of ``hypergraph.disjoint_union``."""
    item_base = np.cumsum([0] + [f.n_items for f in forests])
    event_base = np.cumsum([0] + [len(f.events) for f in forests])
    sentinel = item_base[-1]
    cat = np.concatenate
    tails = cat([np.where(f.edge_tail == f.sentinel, sentinel,
                          f.edge_tail + b)
                 for f, b in zip(forests, item_base)], axis=1)
    return hypergraph.Forest(
        None, [it for f in forests for it in f.items],
        [ev for f in forests for ev in f.events],
        cat([f.item_level for f in forests]),
        (cat([f.edge_head + b for f, b in zip(forests, item_base)]),
         tails[0], tails[1], cat([np.diff(f.event_ptr) for f in forests]),
         cat([f.event_flat + b for f, b in zip(forests, event_base)])))


def edge_events(forest, e):
    """The event ids of edge ``e`` of an array ``hypergraph.Forest``, read
    off its edge -> event CSR."""
    return tuple(forest.event_flat[forest.event_ptr[e]:
                                   forest.event_ptr[e + 1]].tolist())


def edges_by_head(forest):
    """item -> [(tail items, event tuples)] of its edges, in edge order."""
    items = list(forest.items) + [None]  # None for the sentinel
    events = list(forest.events)
    events = [events[k] for k in forest.event_flat.tolist()]
    ptr = forest.event_ptr.tolist()
    out = {}
    for e, (h, t0, t1) in enumerate(zip(forest.edge_head.tolist(),
                                        *forest.edge_tail.tolist())):
        tails = tuple(items[t] for t in (t0, t1) if t != forest.sentinel)
        out.setdefault(items[h], []).append(
            (tails, tuple(events[ptr[e]:ptr[e + 1]])))
    return out


def forest_sets(forest):
    """What the goal of ``forest`` reaches, in tuples rather than ids:
    (item -> level, item -> [(tail items, event tuples)] of its edges in
    edge order).  Forests that differ only in their ids, in the order of
    their items, events and heads, or in items the goal does not reach
    through derivable edges give the same."""
    edges = edges_by_head(forest)
    level = dict(zip(forest.items, forest.item_level.tolist()))
    reached, stack = {forest.goal}, [forest.goal]
    while stack:
        for tails, _ in edges.get(stack.pop(), ()):
            for t in tails:
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
    return ({item: level[item] for item in reached},
            {item: edges[item] for item in reached if item in edges})


class ListForest:
    """The list layout the sequential reference passes walk, read off an
    array ``hypergraph.Forest``: the same item, event and edge ids, derivable
    items in a topological order, and per-edge tail and event tuples."""

    def __init__(self, forest):
        self.goal_id = forest.goal_id
        self.n_items = forest.n_items
        self.events = forest.events
        self.edge_head = forest.edge_head.tolist()
        self.edge_tails = [
            tuple(t for t in tails if t != forest.sentinel)
            for tails in forest.edge_tail.T.tolist()
        ]
        self.edge_events = [edge_events(forest, e)
                            for e in range(forest.n_edges)]
        self.head_edges = [[] for _ in range(self.n_items)]
        for e, h in enumerate(self.edge_head):
            self.head_edges[h].append(e)
        self.topo = []
        for h in self.edge_head:
            if not self.topo or self.topo[-1] != h:
                self.topo.append(h)
        self.edge_weights = forest.edge_weights

    @property
    def n_edges(self):
        return len(self.edge_head)


def reference_inside_logsum(forest, eventw):
    """Inside log-weights per item (log-sum over derivations)."""
    inside = np.full(forest.n_items, NEG_INF)
    edge_tails = forest.edge_tails
    ew = forest.edge_weights(eventw)
    for iid in forest.topo:
        acc = NEG_INF
        for e in forest.head_edges[iid]:
            w = ew[e]
            for t in edge_tails[e]:
                w += inside[t]
            acc = np.logaddexp(acc, w)
        inside[iid] = acc
    return inside


def reference_inside_count(forest):
    """Number of derivations per item (exact Python integers)."""
    count = [0] * forest.n_items
    for iid in forest.topo:
        total = 0
        for e in forest.head_edges[iid]:
            prod = 1
            for t in forest.edge_tails[e]:
                prod *= count[t]
            total += prod
        count[iid] = total
    return count


def reference_inside_max(forest, eventw, edge_arcs):
    """Viterbi pass.

    Returns (scores, best_edge).  ``edge_arcs`` is a callable edge id ->
    tuple of (dep, head) arcs; score ties are broken by preferring the
    derivation whose sorted arc tuple is lexicographically smaller, which
    realizes the "lower head index first" decoding contract.
    """
    scores = np.full(forest.n_items, NEG_INF)
    best_edge = [-1] * forest.n_items
    keys = [None] * forest.n_items
    ew = forest.edge_weights(eventw)
    for iid in forest.topo:
        for e in forest.head_edges[iid]:
            w = ew[e]
            dead = False
            for t in forest.edge_tails[e]:
                if scores[t] == NEG_INF:
                    dead = True
                    break
                w += scores[t]
            if dead or w == NEG_INF:
                continue
            key = list(edge_arcs(e))
            for t in forest.edge_tails[e]:
                key.extend(keys[t])
            key = tuple(sorted(key))
            if (
                w > scores[iid] + 1e-12
                or best_edge[iid] < 0
                or (w > scores[iid] - 1e-12 and key < keys[iid])
            ):
                scores[iid] = w
                best_edge[iid] = e
                keys[iid] = key
    return scores, best_edge


def reference_outside_logsum(forest, eventw, inside):
    outside = np.full(forest.n_items, NEG_INF)
    outside[forest.goal_id] = 0.0
    ew = forest.edge_weights(eventw)
    for iid in reversed(forest.topo):
        out_h = outside[iid]
        if out_h == NEG_INF:
            continue
        for e in forest.head_edges[iid]:
            tails = forest.edge_tails[e]
            w = out_h + ew[e]
            for t in tails:
                w += inside[t]
            if w == NEG_INF:
                continue
            for t in tails:
                outside[t] = np.logaddexp(outside[t], w - inside[t])
    return outside


def reference_event_posteriors(forest, eventw):
    """(log marginal, expected count per event id) under the forest weights."""
    inside = reference_inside_logsum(forest, eventw)
    logz = inside[forest.goal_id]
    post = np.zeros(len(forest.events))
    if logz == NEG_INF:
        return logz, post
    outside = reference_outside_logsum(forest, eventw, inside)
    ew = forest.edge_weights(eventw)
    for e in range(forest.n_edges):
        head = forest.edge_head[e]
        if outside[head] == NEG_INF:
            continue
        w = outside[head] - logz + ew[e]
        for t in forest.edge_tails[e]:
            w += inside[t]
        if w == NEG_INF:
            continue
        mass = math.exp(w)
        for k in forest.edge_events[e]:
            post[k] += mass
    return logz, post


# ---------------------------------------------------------------------------
# The E-step and decoding one sentence at a time: the reference the corpus
# graphs of ``induction.estep``, ``induction.CorpusGraph.harmonic`` and the
# decoders are checked against


def dmv_counts_from_events(event_counts, tags):
    """Convert position-level automaton event counts to DMV decision counts.

    Transitions of real heads are attachments (and continue decisions, with
    adjacency read off the source state); final weights are stop decisions.
    Root-automaton transitions are root choices; its init/final carry no
    probability mass and are ignored.
    """
    n = len(tags)
    out = DmvCounts.zero()
    for event, c in event_counts.items():
        side, h, kind = event[0], event[1], event[2]
        if h == n + 1:
            if kind == "trans":
                out.root[tags[event[5] - 1]] += c
            continue
        ht = tags[h - 1]
        if kind == "trans":
            q, _, d = event[3], event[4], event[5]
            out.attach[ht, side, tags[d - 1]] += c
            out.cont[ht, side, q == 0] += c
        elif kind == "final":
            out.stop[ht, side, event[3] == 0] += c
    return out


def merge_counts(total, other, mult=1):
    """Add ``mult`` times the counts of ``other`` to ``total``."""
    for field in ("attach", "stop", "cont", "root"):
        mine = getattr(total, field)
        for key, c in getattr(other, field).items():
            mine[key] += mult * c
    return total


def _best_run(sent, side, h, deps):
    """The log-weight of the best state path of the (side, h) automaton
    consuming ``deps``."""
    best = dict(sent.init_states(side, h))
    for d in deps:
        nxt = {}
        for q, wq in best.items():
            for r, w in sent.steps(side, h, q, d):
                nxt[r] = max(nxt.get(r, NEG_INF), wq + w)
        best = nxt
    finals = dict(sent.final_states(side, h))
    return max([wq + finals[q] for q, wq in best.items() if q in finals],
               default=NEG_INF)


def brute_force_best_derivation(tags, sent, tree_filter):
    """The heads of the tree, among the projective trees ``tree_filter``
    admits, with the best single derivation: one state path per automaton
    run, as a chart's Viterbi pass scores it (``sbg.brute_force_viterbi``
    sums each run's paths instead, which differs on automata with several
    paths per run).  Ties prefer the smaller sorted (dependent, head) arc
    list; None when every tree weighs -inf."""
    n = len(tags)
    best, best_key, best_heads = NEG_INF, None, None
    for heads in projective_trees(n):
        if not tree_filter(heads):
            continue
        w = sum(_best_run(sent, side, h, deps)
                for h in range(1, n + 1)
                for side, deps in zip((LEFT, RIGHT),
                                      sbg._ordered_deps(heads, h, n)))
        w += _best_run(sent, LEFT, n + 1, sbg._ordered_deps(heads, n + 1, n))
        if w == NEG_INF:
            continue
        key = sorted((d + 1, h) for d, h in enumerate(heads))
        if (best_heads is None or w > best + hypergraph.TIE_TOL
                or (w > best - hypergraph.TIE_TOL and key < best_key)):
            best, best_key, best_heads = w, key, heads
    return best_heads


def without_leaf_marks(counts):
    """An event -> count dict without its leaf marks (``sbg.leaf_mark``),
    which only the left-corner chart charges: what such a chart's counts
    and the head-split chart's or the brute force's have in common."""
    return {ev: c for ev, c in counts.items() if ev[2] != "leaf"}


def must_head(sent, blocked):
    """``sent`` with the leaf mark (``sbg.leaf_mark``) of every position of
    ``blocked`` priced -inf, so that a chart with leaf marks keeps only the
    trees where each of them heads a dependent."""
    event_logw = sent.event_logw
    sent.event_logw = lambda ev: (NEG_INF if ev[2] == "leaf"
                                  and ev[1] in blocked else event_logw(ev))
    return sent


def apply_constraints(params, tags, cs, length_bias=None):
    """One sentence's DMV automata with the restrictions of ``cs`` and the
    length bias folded in, the reference for the prices of
    ``induction.CorpusGraph``.

    A tag of ``cs.stop_one_tags`` stops with probability one, and a tag at
    none of the positions ``cs.root_allowed`` gives has root probability
    zero; then every real-head transition gains -beta * (|h - d| - 1),
    which leaves the root arc and adjacent arcs as they are.  The leaf
    marks of the positions ``cs.blocked_positions`` gives weigh -inf
    (``must_head``).
    """
    allowed = cs.root_allowed(tags)
    root_tags = (set(params.root) if allowed is None
                 else {tags[d - 1] for d in allowed})
    restricted = DmvParams(
        attach=params.attach,
        stop={key: 1.0 if key[0] in cs.stop_one_tags else p
              for key, p in params.stop.items()},
        root={t: p if t in root_tags else 0.0
              for t, p in params.root.items()})
    sent = dmv_sentence_automata(tags, restricted)
    n = len(tags)
    pairs = ([(side, h) for h in range(1, n + 1) for side in (LEFT, RIGHT)]
             if length_bias else [])
    for side, h in pairs:
        deps = range(1, h) if side == LEFT else range(h + 1, n + 1)
        trans = [(q, d, r, w + -length_bias * (abs(h - d) - 1))
                 for d in deps for q in (0, 1)
                 for r, w in sent.steps(side, h, q, d)]
        sent.add_machine(side, h, sent.init_states(side, h),
                         sent.final_states(side, h), trans)
    return must_head(sent, cs.blocked_positions(tags))


def reference_decode(params, corpus, cs, policy=None, length_bias=None):
    """Viterbi trees one sentence at a time, each from its own priced
    automata (``apply_constraints``) and cached forest: the reference for
    ``induction.decode`` and ``induction.decode_constrained``."""
    out = []
    for k, tags in enumerate(_tag_sequences(corpus)):
        sent = apply_constraints(params, tags, cs, length_bias)
        forest = induction._chart_forest(
            len(tags), policy, bool(cs.blocked_positions(tags)))
        try:
            out.append(sbg.forest_viterbi(forest, sent, tags))
        except ValueError as exc:
            if str(exc) != sbg.NO_DERIVATION:
                raise
            raise ValueError("%s for sentence %d of the corpus, tags %r"
                             % (sbg.NO_DERIVATION, k, tags)) from None
    return out


def reference_sentence_expectations(tags, params, cs, policy=None,
                                    length_bias=None):
    """(DmvCounts, log marginal) of one sentence from its own priced
    automata and cached forest, or (None, -inf) when the constraints leave
    no admissible analysis."""
    sent = apply_constraints(params, tags, cs, length_bias)
    forest = induction._chart_forest(len(tags), policy,
                                     bool(cs.blocked_positions(tags)))
    events, logz = sbg.forest_expected_counts(forest, sent)
    if logz == NEG_INF or math.isnan(logz):
        return None, NEG_INF
    return dmv_counts_from_events(events, tags), logz


def _reference_chunk(groups, expectations):
    total = DmvCounts.zero()
    loglik = 0.0
    skipped = 0
    for tags, mult in groups:
        counts, logz = expectations(tags)
        if counts is None:
            skipped += mult
            continue
        loglik += mult * logz
        merge_counts(total, counts, mult)
    return total, loglik, skipped


def reference_estep(groups, params, cs, policy=None, length_bias=None):
    """(DmvCounts, log-likelihood, skipped sentence count) over (tags,
    multiplicity) groups, one sentence at a time."""
    return _reference_chunk(groups, lambda tags: reference_sentence_expectations(
        tags, params, cs, policy, length_bias))


def feature_space(groups):
    """The FeatureSpace of the tagset of (tags, multiplicity) groups."""
    return induction.FeatureSpace({t for tags, _ in groups for t in tags})


def harmonic_counts(groups):
    """The DmvCounts of ``induction.CorpusGraph.harmonic``'s count vector
    over (tags, multiplicity) groups, on the head-split chart."""
    space = feature_space(groups)
    return space.dmv_counts(induction.CorpusGraph(groups, space).harmonic())


def reference_harmonic_counts(groups):
    """Counts of one E-step where attaching positions i and j has weight
    1/|i-j|, one sentence at a time."""
    def expectations(tags):
        sent = sbg.weighted_sentence_automata(
            len(tags),
            attach_logw=lambda h, d: -math.log(abs(h - d)),
            root_logw=lambda d: 0.0,
        )
        events, logz = sbg.forest_expected_counts(
            induction._chart_forest(len(tags)), sent)
        return dmv_counts_from_events(events, tags), logz

    return _reference_chunk(groups, expectations)[0]


# ---------------------------------------------------------------------------
# EM for DMV probabilities by normalized counts: the reference the featurized
# EM of ``induction`` is checked against


def dmv_params_from_counts(counts, old_params):
    """Normalize counts into probabilities, keeping old values where a
    context was never used."""
    attach = {k: dict(v) for k, v in old_params.attach.items()}
    totals = collections.defaultdict(float)
    for (h, side, d), c in counts.attach.items():
        totals[h, side] += c
    for (h, side), z in totals.items():
        if z > 0:
            attach[h, side] = {
                d: counts.attach.get((h, side, d), 0.0) / z
                for d in old_params.attach[h, side]
            }
    stop = dict(old_params.stop)
    contexts = set(counts.stop) | set(counts.cont)
    for h, side, adj in contexts:
        s = counts.stop.get((h, side, adj), 0.0)
        g = counts.cont.get((h, side, adj), 0.0)
        if s + g > 0:
            stop[h, side, adj] = s / (s + g)
    root = dict(old_params.root)
    z = sum(counts.root.values())
    if z > 0:
        root = {d: counts.root.get(d, 0.0) / z for d in old_params.root}
    return DmvParams(attach=attach, stop=stop, root=root)


def em_step(corpus, params):
    """One EM iteration of the DMV.

    Returns (new params, corpus log-likelihood of the *input* params).
    Iterating cannot decrease the returned log-likelihood.
    """
    total = DmvCounts.zero()
    loglik = 0.0
    for tags in _tag_sequences(corpus):
        sent = dmv_sentence_automata(tags, params)
        counts, logz = forest_expected_counts(eisner_forest(sent), sent)
        loglik += logz
        merge_counts(total, dmv_counts_from_events(counts, tags))
    return dmv_params_from_counts(total, params), loglik


# ---------------------------------------------------------------------------
# The featurized DMV M-step one softmax context at a time: the reference the
# flat layout of ``induction.FeatureSpace`` is checked against


def count_vector(space, counts):
    """A DmvCounts as one count per decision of ``space``'s flat layout, as
    the E-step gives it and the M-step takes it."""
    return np.array([getattr(counts, field).get(key, 0.0)
                     for field, key in space.keys])


def reference_contexts(space):
    """The softmax contexts of ``space`` built one by one from the feature
    templates: (name, decisions, feature-id matrix) per context."""
    def context(name, decisions, rows):
        mat = np.array([[space.index[key] for key in row] for row in rows],
                       dtype=np.int64)
        return (name, tuple(decisions), mat)

    out = []
    for h in space.tags:
        for side in (LEFT, RIGHT):
            rows = [attach_features(h, d, side) for d in space.tags]
            out.append(context(("attach", h, side), space.tags, rows))
    for h in space.tags:
        for side in (LEFT, RIGHT):
            for adj in (True, False):
                rows = [stop_features(h, side, adj, dec)
                        for dec in (STOP, CONTINUE)]
                out.append(context(("stop", h, side, adj), (STOP, CONTINUE),
                                   rows))
    rows = [attach_features(ROOT_HEAD, d, LEFT) for d in space.tags]
    out.append(context(("root",), space.tags, rows))
    return out


def reference_context_counts(contexts, counts):
    """Align a DmvCounts onto the context/decision layout."""
    out = []
    for name, decisions, _ in contexts:
        if name[0] == "attach":
            _, h, side = name
            vec = [counts.attach.get((h, side, d), 0.0) for d in decisions]
        elif name[0] == "stop":
            _, h, side, adj = name
            vec = [
                counts.stop.get((h, side, adj), 0.0),
                counts.cont.get((h, side, adj), 0.0),
            ]
        else:
            vec = [counts.root.get(d, 0.0) for d in decisions]
        out.append(np.array(vec, dtype=float))
    return out


def reference_weights_to_params(contexts, w):
    """Softmax every context; zero weights give uniform multinomials."""
    w = np.asarray(w, dtype=float)
    attach = {}
    stop = {}
    root = {}
    for name, decisions, mat in contexts:
        logits = w[mat].sum(axis=1)
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        if name[0] == "attach":
            _, h, side = name
            attach[h, side] = dict(zip(decisions, probs))
        elif name[0] == "stop":
            _, h, side, adj = name
            stop[h, side, adj] = float(probs[decisions.index(STOP)])
        else:
            root = dict(zip(decisions, probs))
    return DmvParams(attach=attach, stop=stop, root=root)


def reference_mstep_objective(contexts, w, context_counts, sigma2=10.0):
    """Penalized expected complete-data log-likelihood and its gradient.

    Returns (objective, gradient) of
        sum_e c_e * log softmax(w)_e  -  ||w||^2 / (2 sigma2).
    """
    w = np.asarray(w, dtype=float)
    obj = -(w @ w) / (2.0 * sigma2)
    grad = -w / sigma2
    for (name, decisions, mat), cvec in zip(contexts, context_counts):
        total = cvec.sum()
        if total == 0.0:
            continue
        logits = w[mat].sum(axis=1)
        m = logits.max()
        exps = np.exp(logits - m)
        z = exps.sum()
        logprobs = logits - m - math.log(z)
        obj += float(cvec @ logprobs)
        delta = cvec - total * (exps / z)
        np.add.at(grad, mat, delta[:, None])
    return obj, grad
