"""Shared weighted-hypergraph machinery for the chart parsers.

A chart is expressed as a backward-chaining expansion: ``expand(item)`` yields
every way the item can be derived, each as ``(tails, events)`` where ``tails``
is a tuple of at most two child items and ``events`` is a tuple of grammar
decisions (automaton init/final/transition uses) charged at that step.
``build_forest`` memoizes the recursion into an explicit acyclic hypergraph
stored as flat integer arrays, so a forest built once for a sentence shape
can be re-weighted cheaply on every training iteration.

Build.  One depth-first pass pops items from a stack, expands each once and
interns its tails and events into flat int lists; each item's edges are
contiguous, in expansion order.  Derivability and levels are then decided
over those arrays in numpy, one wavefront at a time (Kahn's algorithm): an
item is decided once every tail of its edges is, an edge is derivable when
all its tails are, an item when one of its edges is.  A cycle leaves items
undecided, which is an error.  Charts should emit only items that can be
derived (see ``lc_chart`` and ``sbg``): every dead item is expanded all the
same and then dropped.

Builds can share an ``ExpansionMemo``, which keeps every item's edges and
level under global ids, so that a build expands only the items no earlier
build has.  The forest is then taken from the memo: one walk over its items
finds the order in which a build from nothing would pop them, which fixes
that build's item ids, event ids and edge order, and the arrays are
gathered.  The forest cache in ``induction`` gives each chart one memo per
depth policy, shared across the sentence lengths of the DMV: every item but
a length's goal ``("ROOT", n)`` has the same edges at every length.

Array layout.  Items keep the ids they were interned with (``items[i]``);
id ``n_items`` is a sentinel whose value is 0 in log space (1 in the count
semiring).  Every derivable item gets a topological *level*: 0 when all its
edges have no tails, otherwise 1 + the highest level among its tails.  Edges
are stably sorted by (level of head, head), so each head's edges form one
contiguous group in expansion order and each level one contiguous run of
groups:

- ``edge_head[e]`` the head of edge ``e``; ``edge_tail[:, e]`` its two
  tails, padded with the sentinel;
- ``group_head[g]`` and ``group_ptr[g]:group_ptr[g + 1]`` the head and edge
  range of head group ``g`` (CSR head -> edges); ``level_ptr[l]`` the first
  group of level ``l``;
- ``event_ptr[e]:event_ptr[e + 1]`` the range of ``event_flat`` holding the
  event ids of edge ``e`` (CSR edge -> events).

Inside and Viterbi run one level at a time, bottom up: gather the tails'
values for the level's edges, then reduce each head group (a max-shifted
log-sum-exp, or a max).  Outside runs top down over the transposed graph:
the uses of each item (edge, slot) are grouped the same way by the item's
level, compiled on the first outside pass.  Expected counts are one
``np.bincount`` of edge posteriors over the edge -> event map.

Edge weights are never stored: the log-weight of an edge is the sum of its
events' log-weights, supplied at pass time as an array indexed by event id.
"""

import numpy as np

NEG_INF = float("-inf")
# Viterbi scores within TIE_TOL count as tied; heads whose two best edges lie
# closer than TIE_GAP are re-decided by the sequential comparison with its
# arc-key tie-break
TIE_TOL = 1e-12
TIE_GAP = 2 * TIE_TOL


class Forest:
    """An acyclic hypergraph with a single goal item, as flat arrays (see
    the module docstring for the layout); a ``disjoint_union`` has one goal
    per forest in ``goal_ids``."""

    def __init__(self, goal, items, events, level, edges):
        """``level`` gives each item's level (-1 when not derivable);
        ``edges`` is (heads, first tails, second tails, event counts, event
        ids) of the derivable edges as flat sequences in expansion order,
        with missing tails set to the sentinel ``len(items)``."""
        head, tail0, tail1, n_ev, flat = (np.asarray(x, dtype=np.intp)
                                          for x in edges)
        level = np.array(level, dtype=np.intp)
        order = _level_order(head, level)
        first = (np.cumsum(n_ev) - n_ev)[order]
        n_ev = n_ev[order]
        self._lay_out(goal, items, events, level, head[order],
                      np.stack((tail0[order], tail1[order])), n_ev,
                      flat[_ranges(first, n_ev)])

    def _lay_out(self, goal, items, events, level, head, tails, n_ev, flat):
        """Keep edges sorted by (level of head, head): their heads, tails
        (2 x edges), event counts and event ids, edge after edge."""
        self.goal = goal
        self.goal_id = 0
        self.goal_ids = np.zeros(1, dtype=np.intp)
        self.items = items
        self.events = events
        self.sentinel = len(items)
        self.item_level = level
        self.edge_head = head
        self.edge_tail = tails
        self.event_ptr = np.concatenate(([0], np.cumsum(n_ev)))
        self.event_flat = flat
        self._no_events = n_ev == 0
        self.group_head, self.group_ptr, self.level_ptr = _groups(head, level)
        self._levels = _plan(self.group_head, self.group_ptr, self.level_ptr)
        self._uses = None

    @property
    def n_items(self):
        return len(self.items)

    @property
    def n_edges(self):
        return len(self.edge_head)

    def event_weights(self, event_logw):
        """Array of event log-weights from a callable event -> float."""
        return np.array([event_logw(ev) for ev in self.events], dtype=float)

    def edge_weights(self, eventw):
        """Log-weight of every edge (sum of its events), vectorized."""
        if len(self.event_flat) == 0:
            return np.zeros(self.n_edges)
        # pad with a zero sentinel so offsets equal to len(flat) (edges with
        # no events at the tail) stay valid and empty segments, which
        # reduceat fills with values[off], can simply be overwritten
        values = np.append(eventw[self.event_flat], 0.0)
        sums = np.add.reduceat(values, self.event_ptr[:-1])
        sums[self._no_events] = 0.0
        return sums

    def _outside_plan(self):
        """Per level, the uses (edge, other tail) of its items grouped by
        item: the transposed forest the outside pass gathers over."""
        if self._uses is None:
            n_edges = self.n_edges
            edge = np.concatenate((np.arange(n_edges), np.arange(n_edges)))
            item = self.edge_tail.reshape(-1)
            other = self.edge_tail[::-1].reshape(-1)
            real = item != self.sentinel
            edge, item, other = edge[real], item[real], other[real]
            order = _level_order(item, self.item_level)
            edge, item, other = edge[order], item[order], other[order]
            owners, ptr, level_ptr = _groups(item, self.item_level)
            self._uses = [
                (owners_l, edge[lo:hi], other[lo:hi], starts_l, sizes_l)
                for owners_l, lo, hi, starts_l, sizes_l in _plan(
                    owners, ptr, level_ptr)
            ]
        return self._uses


def _level_order(owner, level):
    """Stable order of rows by (level of their owner item, owner)."""
    return np.argsort(level[owner] * len(level) + owner, kind="stable")


def _groups(owner, level):
    """Runs of equal ids in ``owner`` (sorted by level, then id): (id of
    each run, CSR pointer of the runs, first run of each level)."""
    starts = np.flatnonzero(np.concatenate(
        ([len(owner) > 0], owner[1:] != owner[:-1])))
    group_owner = owner[starts]
    glevel = level[group_owner]
    top = glevel[-1] + 1 if len(glevel) else 0
    return (group_owner, np.append(starts, len(owner)),
            np.searchsorted(glevel, np.arange(top + 1)))


def _plan(group_owner, group_ptr, level_ptr):
    """Per level: (owner ids, first row, end row, group starts relative to
    the first row, group sizes)."""
    out = []
    for l in range(len(level_ptr) - 1):
        ga, gb = level_ptr[l], level_ptr[l + 1]
        if ga == gb:
            continue
        lo, hi = group_ptr[ga], group_ptr[gb]
        starts = group_ptr[ga:gb] - lo
        out.append((group_owner[ga:gb], lo, hi, starts,
                    np.diff(group_ptr[ga:gb + 1])))
    return out


class ExpansionMemo:
    """Expansions kept across ``build_forest`` calls.

    Items and events are interned to global int ids.  Each item is expanded
    once and its edges are stored as global (tail ids, event ids), contiguous
    in expansion order, next to the item's level.  Every item the memo holds
    is expanded, and so is every item below it.
    """

    def __init__(self):
        self.items = []        # global id -> item
        self.index = {}        # item -> global id
        self.events = []
        self.event_index = {}
        self.start = np.zeros(0, dtype=np.intp)   # first edge of each item
        self.count = np.zeros(0, dtype=np.intp)   # and its number of edges
        # per item its level (-2 when not derivable), then -1: the level of
        # the missing tail -1
        self.level = np.full(1, -1, dtype=np.intp)
        self.tail = np.zeros((2, 0), dtype=np.intp)
        self.event_ptr = np.zeros(1, dtype=np.intp)
        self.event_flat = np.zeros(0, dtype=np.intp)
        # the walk lists of ``_walk_lists``, made on the first take
        self._kids, self._kid_lo, self._kid_hi = [], [], []
        self._kid_edges = 0

    def _truncate(self, n_items, n_events):
        """Forget the items and events interned from ``n_items`` and
        ``n_events`` on (a build that failed)."""
        for index, n in ((self.index, n_items), (self.event_index, n_events)):
            for k in [k for k, i in index.items() if i >= n]:
                del index[k]
        del self.items[n_items:]
        del self.events[n_events:]

    def _extend(self, level, tails, start, counts, n_ev, flat):
        """Store the edges of the items expanded by one build, the items
        from ``len(self.start)`` on."""
        base = len(self.start)
        cat = np.concatenate
        self.start = cat((self.start, start + self.tail.shape[1]))
        self.count = cat((self.count, counts))
        self.level = cat((self.level[:-1], level[base:]))
        self.tail = cat((self.tail, tails), axis=1)
        self.event_ptr = cat((self.event_ptr,
                              self.event_ptr[-1] + np.cumsum(n_ev)))
        self.event_flat = cat((self.event_flat, flat))

    def _walk_lists(self):
        """(the tails of every edge in order, where each item's start, where
        they end), as plain int lists: the items and tails a build's stack
        pushes, which ``_take`` walks.  Plain int lists keep the garbage
        collector from walking them item by item."""
        done, e0 = len(self._kid_lo), self._kid_edges
        if done < len(self.start):
            tails = self.tail[:, e0:].T
            real = tails >= 0
            ptr = np.concatenate(([0], np.cumsum(real.sum(axis=1)))) + len(
                self._kids)
            start = self.start[done:] - e0
            self._kid_lo += ptr[start].tolist()
            self._kid_hi += ptr[start + self.count[done:]].tolist()
            self._kids += tails[real].tolist()
            self._kid_edges = self.tail.shape[1]
        return self._kids, self._kid_lo, self._kid_hi


def build_forest(goal, expand, memo=None):
    """Memoize a backward-chaining expansion into a Forest.

    ``expand(item)`` returns an iterable of ``(tails, events)`` pairs with
    at most two tails each.  Items whose every expansion bottoms out in a
    dead end are pruned (their edges are dropped), so passes only ever see
    derivable items.  Raises ValueError on a cyclic expansion.

    One depth-first pass expands every reachable item once and records its
    edges as flat int lists; ``_levels`` then decides derivability and
    levels over those arrays.

    ``memo`` (an ``ExpansionMemo``) keeps the expansions for later builds:
    this build expands only the items the memo has not, then takes the
    forest out of the memo (``_take``) with the same ids and edge order as a
    build from nothing.  Builds that share a memo must give every item they
    share the same expansion.
    """
    keep = memo is not None
    if not keep:
        memo = ExpansionMemo()
    items, index = memo.items, memo.index
    events, event_index = memo.events, memo.event_index
    base, event_base = len(items), len(events)
    goal_id = index.get(goal)
    if goal_id is None:
        goal_id = index[goal] = len(items)
        items.append(goal)
    head, tail0, tail1, n_ev, flat = [], [], [], [], []
    # an item's edges are contiguous, from first[item] on
    first = {}
    stack = [goal_id] if goal_id >= base else []
    try:
        while stack:
            iid = stack.pop()
            if iid in first:
                continue
            first[iid] = len(head)
            children = []
            for tails, evs in expand(items[iid]):
                if len(tails) > 2:
                    raise ValueError("edge with %d tails at %s"
                                     % (len(tails), items[iid]))
                ids = []
                for t in tails:
                    tid = index.get(t)
                    if tid is None:
                        tid = index[t] = len(items)
                        items.append(t)
                    ids.append(tid)
                children += ids
                ids += (-1, -1)
                head.append(iid)
                tail0.append(ids[0])
                tail1.append(ids[1])
                n_ev.append(len(evs))
                for ev in evs:
                    eid = event_index.get(ev)
                    if eid is None:
                        eid = event_index[ev] = len(events)
                        events.append(ev)
                    flat.append(eid)
            stack += [t for t in children if t >= base and t not in first]
        if not keep:
            # free the build's dicts first, which lowers the peak while the
            # arrays are made
            index.clear()
            event_index.clear()

        n_items = len(items)
        head = np.array(head, dtype=np.intp)
        # -1 for a missing tail
        tails = np.array((tail0, tail1), dtype=np.intp)
        start = np.zeros(n_items - base, dtype=np.intp)
        start[np.fromiter(first, np.intp, len(first)) - base] = list(
            first.values())
        level = np.full(n_items + 1, -3, dtype=np.intp)
        level[:base] = memo.level[:-1]
        level[n_items] = -1
        counts = _levels(items, level, base, head, tails, start)
    except BaseException:
        if keep:
            memo._truncate(base, event_base)
        raise
    n_ev = np.array(n_ev, dtype=np.intp)
    flat = np.array(flat, dtype=np.intp)
    if keep:
        memo._extend(level, tails, start, counts, n_ev, flat)
    if base:
        return _take(memo, goal, goal_id)
    # a build from nothing: the memo's order is the forest's order
    keep_edge = (level[tails] >= -1).all(axis=0)
    tails[tails < 0] = n_items
    level = level[:-1]
    level[level < 0] = -1
    return Forest(goal, list(items) if keep else items,
                  list(events) if keep else events, level,
                  (head[keep_edge], tails[0, keep_edge],
                   tails[1, keep_edge], n_ev[keep_edge],
                   flat[np.repeat(keep_edge, n_ev)]))


def _first_seen(ids, size):
    """The distinct values of ``ids`` (each in 0..size-1) in the order they
    first occur."""
    first = np.full(size, len(ids), dtype=np.intp)
    np.minimum.at(first, ids, np.arange(len(ids)))
    present = np.flatnonzero(first < len(ids))
    return present[np.argsort(first[present])]


def _take(memo, goal, goal_id):
    """The forest below ``goal`` (memo id ``goal_id``) as a build from
    nothing gives it.

    Such a build pops items in the order of a recursive preorder that visits
    each item's distinct tails, latest occurrence first; its item and event
    ids are the order in which the tails and events of the popped items'
    edges first occur, and its edges are the popped items' edges in pop
    order.  So one walk over the items finds the pop order, and the rest is
    gathers.
    """
    kids, lo, hi = memo._walk_lists()
    seen = bytearray(len(lo))
    order = []
    stack = [goal_id]
    pop, visit, push = stack.pop, order.append, stack.extend
    while stack:
        iid = pop()
        if not seen[iid]:
            seen[iid] = 1
            visit(iid)
            push(kids[lo[iid]:hi[iid]])
    order = np.array(order, dtype=np.intp)
    counts = memo.count[order]
    edges = _ranges(memo.start[order], counts)
    tails = memo.tail[:, edges]
    seq = tails.T.ravel()
    item_ids = _first_seen(np.concatenate(([goal_id], seq[seq >= 0])),
                           len(lo))
    local = np.empty(len(lo) + 1, dtype=np.intp)
    local[item_ids] = np.arange(len(item_ids))
    local[-1] = len(item_ids)  # the sentinel, for the missing tail -1
    ptr = memo.event_ptr
    n_ev = ptr[edges + 1] - ptr[edges]
    flat = memo.event_flat[_ranges(ptr[edges], n_ev)]
    event_ids = _first_seen(flat, len(memo.events))
    event_local = np.empty(len(memo.events), dtype=np.intp)
    event_local[event_ids] = np.arange(len(event_ids))
    keep = (memo.level[tails] >= -1).all(axis=0)
    head = np.repeat(local[order], counts)
    tails = local[tails]
    flat = event_local[flat]
    level = memo.level[item_ids]
    level[level < 0] = -1
    items, events = memo.items, memo.events
    return Forest(goal, [items[i] for i in item_ids.tolist()],
                  [events[k] for k in event_ids.tolist()], level,
                  (head[keep], tails[0, keep], tails[1, keep], n_ev[keep],
                   flat[np.repeat(keep, n_ev)]))


def disjoint_union(forests):
    """The forests side by side as one forest, so that one pass runs over
    all of them.

    Forest k's item and event ids are shifted by the item and event counts
    of the forests before it, all share one sentinel, and items keep their
    levels.  Level l of the union is level l of every forest in turn, which
    keeps its edges sorted by (level of head, head) with no sort.
    ``goal_ids[k]`` is the goal of forest k; the union's ``goal`` is None.
    """
    item_base = np.cumsum([0] + [f.n_items for f in forests])
    event_base = np.cumsum([0] + [len(f.events) for f in forests])
    sentinel = item_base[-1]
    # bounds[k, l]: the first edge of level l in forest k; the last column
    # holds forest k's edge count
    top = max(len(f.level_ptr) for f in forests)
    bounds = np.array([np.pad(f.group_ptr[f.level_ptr],
                              (0, top - len(f.level_ptr)), "edge")
                       for f in forests])
    edges = _level_blocks(bounds, [f.n_edges for f in forests])
    flat = _level_blocks(
        np.array([f.event_ptr[b] for f, b in zip(forests, bounds)]),
        [len(f.event_flat) for f in forests])
    cat = np.concatenate
    union = Forest.__new__(Forest)
    union._lay_out(
        None, [it for f in forests for it in f.items],
        [ev for f in forests for ev in f.events],
        cat([f.item_level for f in forests]),
        cat([f.edge_head + b for f, b in zip(forests, item_base)])[edges],
        cat([np.where(f.edge_tail == f.sentinel, sentinel, f.edge_tail + b)
             for f, b in zip(forests, item_base)], axis=1)[:, edges],
        cat([np.diff(f.event_ptr) for f in forests])[edges],
        cat([f.event_flat + b for f, b in zip(forests, event_base)])[flat])
    union.goal_ids = item_base[:-1] + [f.goal_id for f in forests]
    return union


def _level_blocks(bounds, sizes):
    """Rows of the forests' arrays laid end to end, level 0 of every
    forest, then level 1, and so on: ``bounds[k, l]`` is the first row of
    level l in forest k, ``sizes[k]`` its number of rows."""
    starts = bounds[:, :-1] + np.cumsum([0] + sizes[:-1])[:, None]
    return _ranges(starts.T.ravel(), np.diff(bounds, axis=1).T.ravel())


def _ranges(starts, counts):
    """Concatenation of ``arange(starts[k], starts[k] + counts[k])``."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - ends + counts, counts)


def _levels(items, level, base, head, tails, start):
    """Decide the level of every item from ``base`` on, one wavefront at a
    time: an item is decided once every tail of its edges is.  Returns the
    number of edges of each of those items.

    ``level`` has one entry per item, then -1 for the missing tail -1;
    items before ``base`` are decided, the others -3 (undecided).  Items
    that are not derivable get -2.  ``head`` and ``tails`` (2 x edges, -1
    for a missing tail) are the edges of the items from ``base`` on, each
    item's edges contiguous from ``start[item - base]``.  Raises ValueError
    naming an item on a cycle when a cycle leaves items undecided.
    """
    n = len(items) - base
    head = head - base
    counts = np.bincount(head, minlength=n)
    # the uses of each undecided item as a tail, as the heads of the using
    # edges
    real = tails.reshape(-1) >= base
    used = tails.reshape(-1)[real] - base
    order = np.argsort(used, kind="stable")
    users = np.tile(head, 2)[real][order]
    use_count = np.bincount(used, minlength=n)
    use_start = np.cumsum(use_count) - use_count
    pending = np.bincount(users, minlength=n)
    # an edge's level is 1 + the max of its tails' levels, and a dead tail
    # (-2) makes it < -1
    front = np.flatnonzero(pending == 0)
    while len(front):
        k = counts[front]
        e = _ranges(start[front], k)
        l0, l1 = level[tails[0, e]], level[tails[1, e]]
        edge_level = np.maximum(l0, l1) + 1
        edge_level[np.minimum(l0, l1) < -1] = -2
        some = k > 0
        best = np.full(len(front), -2, dtype=np.intp)
        best[some] = np.maximum.reduceat(edge_level, (np.cumsum(k) - k)[some])
        level[front + base] = best
        up = users[_ranges(use_start[front], use_count[front])]
        up, hits = np.unique(up, return_counts=True)
        pending[up] -= hits
        front = up[pending[up] == 0]
    undecided = level[base:-1] == -3
    if undecided.any():
        # walk down undecided tails until an item repeats: it is on a cycle
        iid, seen = int(np.argmax(undecided)), set()
        while iid not in seen:
            seen.add(iid)
            a = start[iid]
            iid = next(t - base
                       for t in tails[:, a:a + counts[iid]].T.ravel()
                       if level[t] == -3)
        raise ValueError("cyclic chart expansion at %s" % (items[iid + base],))
    return counts


def _logsumexp_groups(w, starts, sizes):
    """Log-sum-exp of each group ``w[starts[g]:starts[g] + sizes[g]]``,
    shifted by the group's max; -inf and NaN groups pass through."""
    m = np.maximum.reduceat(w, starts)
    ok = np.isfinite(m)
    if ok.all():
        return m + np.log(np.add.reduceat(np.exp(w - np.repeat(m, sizes)),
                                          starts))
    shift = np.where(ok, m, 0.0)
    d = w - np.repeat(shift, sizes)
    d[~np.repeat(ok, sizes)] = NEG_INF
    s = np.add.reduceat(np.exp(d), starts)
    return np.where(ok, shift + np.log(np.where(ok, s, 1.0)), m)


def inside_logsum(forest, eventw):
    """Inside log-weights per item (log-sum over derivations)."""
    inside = np.full(forest.n_items + 1, NEG_INF)
    inside[forest.sentinel] = 0.0
    t0, t1 = forest.edge_tail
    ew = forest.edge_weights(eventw)
    for heads, lo, hi, starts, sizes in forest._levels:
        w = ew[lo:hi] + inside[t0[lo:hi]] + inside[t1[lo:hi]]
        inside[heads] = _logsumexp_groups(w, starts, sizes)
    return inside[:-1]


def inside_count(forest):
    """Number of derivations per item (exact Python integers)."""
    count = np.zeros(forest.n_items + 1, dtype=object)
    count[forest.sentinel] = 1
    t0, t1 = forest.edge_tail
    for heads, lo, hi, starts, _ in forest._levels:
        count[heads] = np.add.reduceat(count[t0[lo:hi]] * count[t1[lo:hi]],
                                       starts)
    return count[:-1].tolist()


def inside_max(forest, eventw, edge_arcs):
    """Viterbi pass.

    Returns (scores, best_edge).  ``edge_arcs`` is a callable edge id ->
    tuple of (dep, head) arcs.  Scores within TIE_TOL count as tied, and
    ties are broken by preferring the derivation whose sorted arc tuple
    is lexicographically smaller, which realizes the "lower head index
    first" decoding contract.  That comparison runs edge by edge in order,
    as a sequential pass would, for every head whose two best edges lie
    within TIE_GAP or that has a NaN edge; elsewhere it picks the maximum.
    """
    n = forest.n_items
    scores = np.full(n + 1, NEG_INF)
    scores[forest.sentinel] = 0.0
    best = np.full(n, -1, dtype=np.intp)
    t0, t1 = forest.edge_tail
    ew = forest.edge_weights(eventw)
    keys = {}
    for heads, lo, hi, starts, sizes in forest._levels:
        s0, s1 = scores[t0[lo:hi]], scores[t1[lo:hi]]
        w = ew[lo:hi] + s0 + s1
        m = np.fmax.reduceat(w, starts)
        first = np.minimum.reduceat(
            np.where(w == np.repeat(m, sizes), np.arange(hi - lo), hi - lo),
            starts)
        live = m > NEG_INF
        scores[heads] = np.where(live, m, NEG_INF)
        best[heads] = np.where(live, first + lo, -1)
        rest = w.copy()
        rest[first[live]] = NEG_INF
        redo = live & (np.fmax.reduceat(rest, starts) >= m - TIE_GAP)
        redo |= np.isnan(np.maximum.reduceat(w, starts))
        if not redo.any():
            continue
        # an edge with a dead tail is skipped even when its score is NaN
        alive = (s0 != NEG_INF) & (s1 != NEG_INF) & (w != NEG_INF)
        rows = (w.tolist(), alive.tolist(), t0[lo:hi].tolist(),
                t1[lo:hi].tolist())
        for g in np.flatnonzero(redo).tolist():
            a, b = int(starts[g]), int(starts[g] + sizes[g])
            iid = int(heads[g])
            score, edge, key = _sequential_max(
                forest, best, keys, edge_arcs, lo + a,
                *(row[a:b] for row in rows))
            scores[iid], best[iid] = score, edge
            if edge >= 0:
                keys[iid] = key
    return scores[:-1], best.tolist()


def _sequential_max(forest, best, keys, edge_arcs, a, ws, alive, t0, t1):
    """(score, edge, arc key) of the best of the edges ``a, a + 1, ...`` of
    one head (scores ``ws``, tails ``t0``, ``t1``), taken one at a time: the
    first live edge is kept until a clearly better one or a tied one with a
    smaller arc key comes."""
    sentinel = forest.sentinel
    score, edge, best_key = NEG_INF, -1, None
    for j, w in enumerate(ws):
        if not alive[j]:
            continue
        key = list(edge_arcs(a + j))
        for t in (t0[j], t1[j]):
            if t != sentinel:
                tail_key = keys.get(t)
                if tail_key is None:
                    tail_key = _arc_key(forest, best, keys, edge_arcs, t)
                key.extend(tail_key)
        key = tuple(sorted(key))
        if (
            w > score + TIE_TOL
            or edge < 0
            or (w > score - TIE_TOL and key < best_key)
        ):
            score, edge, best_key = w, a + j, key
    return score, edge, best_key


def _arc_key(forest, best, keys, edge_arcs, iid):
    """Sorted arcs of the best derivation of ``iid``, built from the best
    edges already chosen below it and memoized in ``keys``."""
    t0, t1 = forest.edge_tail
    sentinel = forest.sentinel
    stack = [iid]
    while stack:
        item = stack[-1]
        if item in keys:
            stack.pop()
            continue
        e = int(best[item])
        tails = [int(t) for t in (t0[e], t1[e]) if t != sentinel]
        missing = [t for t in tails if t not in keys]
        if missing:
            stack.extend(missing)
            continue
        key = list(edge_arcs(e))
        for t in tails:
            key.extend(keys[t])
        keys[item] = tuple(sorted(key))
        stack.pop()
    return keys[iid]


def backtrace(forest, best_edge, root=None):
    """Edge ids of the best derivation below ``root`` (default: goal)."""
    out = []
    t0, t1 = forest.edge_tail
    sentinel = forest.sentinel
    agenda = [forest.goal_id if root is None else root]
    while agenda:
        iid = agenda.pop()
        e = best_edge[iid]
        if e < 0:
            raise ValueError("no derivation for %s" % (forest.items[iid],))
        out.append(e)
        agenda.extend(t for t in (int(t0[e]), int(t1[e])) if t != sentinel)
    return out


def outside_logsum(forest, eventw, inside, top=0.0):
    """Outside log-weights per item.  Every goal starts at ``top`` (one
    value, or one per goal of a union).  An item's outside weight sums,
    over its uses, the head's outside weight times the edge and the other
    tail; items with no inside mass get -inf."""
    ins = np.append(inside, 0.0)
    outside = np.full(forest.n_items + 1, NEG_INF)
    outside[forest.goal_ids] = top
    head = forest.edge_head
    ew = forest.edge_weights(eventw)
    plan = forest._outside_plan()
    for items, edges, others, starts, sizes in reversed(plan):
        out_h = outside[head[edges]]
        c = out_h + ew[edges] + ins[others]
        c[out_h == NEG_INF] = NEG_INF  # even where a weight is NaN
        vals = _logsumexp_groups(c, starts, sizes)
        vals[ins[items] == NEG_INF] = NEG_INF
        outside[items] = vals
    return outside[:-1]


def event_posteriors(forest, eventw):
    """(log marginal, expected count per event id) under the forest weights.
    The counts are all zero when the goal has no finite mass."""
    logz, post = goal_posteriors(forest, eventw, (0.0,))
    return logz[0], post


def goal_posteriors(forest, eventw, log_mult):
    """Inside-outside from every goal at once: (log marginal of each goal,
    expected count per event id), where the derivations of goal k count
    ``exp(log_mult[k])`` times.  A goal without finite mass adds no count.

    The outside pass starts at goal k with ``log_mult[k]`` minus its log
    marginal, so edge masses come out normalized and weighted.
    """
    inside = inside_logsum(forest, eventw)
    logz = inside[forest.goal_ids]
    ok = np.isfinite(logz)
    post = np.zeros(len(forest.events))
    if not ok.any():
        return logz, post
    top = np.full(len(logz), NEG_INF)
    top[ok] = np.asarray(log_mult, dtype=float)[ok] - logz[ok]
    outside = outside_logsum(forest, eventw, inside, top)
    ins = np.append(inside, 0.0)
    t0, t1 = forest.edge_tail
    out_h = outside[forest.edge_head]
    mass = np.exp(out_h + forest.edge_weights(eventw) + ins[t0] + ins[t1])
    mass[out_h == NEG_INF] = 0.0
    lengths = np.diff(forest.event_ptr)
    post += np.bincount(forest.event_flat, weights=np.repeat(mass, lengths),
                        minlength=len(post))
    return logz, post
