"""Shared weighted-hypergraph machinery for the chart parsers.

A chart is expressed as a backward-chaining expansion: ``expand(item)`` yields
every way the item can be derived, each as ``(tails, events)`` where ``tails``
is a tuple of at most two child items and ``events`` is a tuple of grammar
decisions (automaton init/final/transition uses) charged at that step.
``build_forest`` memoizes the recursion into an explicit acyclic hypergraph
stored as flat integer arrays, so a forest built once for a sentence shape
can be re-weighted cheaply on every training iteration.

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
# Viterbi heads whose two best edges lie closer than this are re-decided by
# the sequential comparison with its 1e-12 tolerance and arc-key tie-break
TIE_GAP = 2e-12


class EdgeEvents:
    """Read-only per-edge view of the edge -> event CSR: ``[e]`` is the
    tuple of event ids of edge ``e``."""

    def __init__(self, ptr, flat):
        self._ptr = ptr
        self._flat = flat

    def __len__(self):
        return len(self._ptr) - 1

    def __getitem__(self, e):
        return tuple(self._flat[self._ptr[e]:self._ptr[e + 1]].tolist())


class Forest:
    """An acyclic hypergraph with a single goal item, as flat arrays (see
    the module docstring for the layout)."""

    def __init__(self, goal, items, events, level, edges):
        """``level`` gives each item's level (-1 when not derivable);
        ``edges`` is (heads, first tails, second tails, event counts, event
        ids) of the derivable edges as flat lists in expansion order, with
        missing tails set to the sentinel ``len(items)``."""
        self.goal = goal
        self.goal_id = 0
        self.items = items
        self.events = events
        self.sentinel = len(items)
        head, tail0, tail1, n_ev, flat = (np.array(x, dtype=np.intp)
                                          for x in edges)
        self.item_level = level = np.array(level, dtype=np.intp)
        order = _level_order(head, level)
        self.edge_head = head[order]
        self.edge_tail = np.stack((tail0[order], tail1[order]))
        old_ptr = np.concatenate(([0], np.cumsum(n_ev)))
        n_ev = n_ev[order]
        self.event_ptr = np.concatenate(([0], np.cumsum(n_ev)))
        self.event_flat = flat[np.repeat(old_ptr[:-1][order]
                                         - self.event_ptr[:-1], n_ev)
                               + np.arange(len(flat))]
        self._no_events = n_ev == 0
        self.edge_events = EdgeEvents(self.event_ptr, self.event_flat)
        self.group_head, self.group_ptr, self.level_ptr = _groups(
            self.edge_head, level)
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


def build_forest(goal, expand):
    """Memoize a backward-chaining expansion into a Forest.

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
    return Forest(goal, items, events, level,
                  (head, tail0, tail1, n_ev, flat))


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


def inside_max(forest, eventw, edge_arcs=None):
    """Viterbi pass.

    Returns (scores, best_edge).  Without ``edge_arcs`` the best edge of a
    head is its first edge of maximal score.  With ``edge_arcs`` (callable
    edge id -> tuple of (dep, head) arcs) scores within 1e-12 count as tied,
    and ties are broken by preferring the derivation whose sorted arc tuple
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
        if edge_arcs is None:
            continue
        rest = w.copy()
        rest[first[live]] = NEG_INF
        redo = live & (np.fmax.reduceat(rest, starts) >= m - TIE_GAP)
        redo |= np.isnan(np.maximum.reduceat(w, starts))
        if not redo.any():
            continue
        # an edge with a dead tail is skipped even when its score is NaN
        alive = (s0 != NEG_INF) & (s1 != NEG_INF) & (w != NEG_INF)
        for g in np.flatnonzero(redo).tolist():
            a, b = int(starts[g]), int(starts[g] + sizes[g])
            iid = int(heads[g])
            score, edge, key = _sequential_max(
                forest, best, keys, edge_arcs, lo + a, w[a:b].tolist(),
                alive[a:b].tolist())
            scores[iid], best[iid] = score, edge
            if edge >= 0:
                keys[iid] = key
    return scores[:-1], best.tolist()


def _sequential_max(forest, best, keys, edge_arcs, a, ws, alive):
    """(score, edge, arc key) of the best of the edges ``a, a + 1, ...`` of
    one head (scores ``ws``), taken one at a time: the first live edge is
    kept until a clearly better one or a tied one with a smaller arc key
    comes."""
    sentinel = forest.sentinel
    t0 = forest.edge_tail[0, a:a + len(ws)].tolist()
    t1 = forest.edge_tail[1, a:a + len(ws)].tolist()
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
            w > score + 1e-12
            or edge < 0
            or (w > score - 1e-12 and key < best_key)
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


def outside_logsum(forest, eventw, inside):
    """Outside log-weights per item.  An item's outside weight sums, over
    its uses, the head's outside weight times the edge and the other tail;
    items with no inside mass get -inf."""
    ins = np.append(inside, 0.0)
    outside = np.full(forest.n_items + 1, NEG_INF)
    outside[forest.goal_id] = 0.0
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
    inside = inside_logsum(forest, eventw)
    logz = inside[forest.goal_id]
    post = np.zeros(len(forest.events))
    if not np.isfinite(logz):
        return logz, post
    outside = outside_logsum(forest, eventw, inside)
    ins = np.append(inside, 0.0)
    t0, t1 = forest.edge_tail
    out_h = outside[forest.edge_head]
    lw = out_h - logz + forest.edge_weights(eventw) + ins[t0] + ins[t1]
    mass = np.exp(lw)
    mass[out_h == NEG_INF] = 0.0
    lengths = np.diff(forest.event_ptr)
    post += np.bincount(forest.event_flat, weights=np.repeat(mass, lengths),
                        minlength=len(post))
    return logz, post
