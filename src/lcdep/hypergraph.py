"""Shared weighted-hypergraph machinery for the chart parsers.

A chart is expressed as a backward-chaining expansion: ``expand(item)`` yields
every way the item can be derived, each as ``(tails, events)`` where ``tails``
is a tuple of child items and ``events`` is a tuple of grammar decisions
(automaton init/final/transition uses) charged at that step.  ``build_forest``
memoizes the recursion into an explicit acyclic hypergraph with interned
integer ids, so inside/outside passes and event posteriors run over flat
lists and a forest built once for a sentence shape can be re-weighted cheaply
on every training iteration.

Edge weights are never stored: the log-weight of an edge is the sum of its
events' log-weights, supplied at pass time as an array indexed by event id.
"""

import math

import numpy as np

NEG_INF = float("-inf")


class Forest:
    """An acyclic hypergraph with a single goal item.

    items: interned item tuples (index = item id, children before parents in
    ``topo``).  Edges are parallel lists: ``edge_head[e]`` is the derived item,
    ``edge_tails[e]`` the child ids, ``edge_events[e]`` the event ids whose
    weights multiply into the edge.
    """

    def __init__(self, goal):
        self.goal = goal
        self.items = []
        self.item_index = {}
        self.events = []
        self.event_index = {}
        self.edge_head = []
        self.edge_tails = []
        self.edge_events = []
        self.head_edges = []
        self.topo = []
        self.goal_id = None

    def item_id(self, item):
        idx = self.item_index.get(item)
        if idx is None:
            idx = len(self.items)
            self.item_index[item] = idx
            self.items.append(item)
            self.head_edges.append([])
        return idx

    def event_id(self, event):
        idx = self.event_index.get(event)
        if idx is None:
            idx = len(self.events)
            self.event_index[event] = idx
            self.events.append(event)
        return idx

    def add_edge(self, head_id, tail_ids, event_ids):
        e = len(self.edge_head)
        self.edge_head.append(head_id)
        self.edge_tails.append(tail_ids)
        self.edge_events.append(event_ids)
        self.head_edges[head_id].append(e)
        return e

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
        if not hasattr(self, "_ev_flat"):
            flat = []
            offsets = [0]
            for evs in self.edge_events:
                flat.extend(evs)
                offsets.append(len(flat))
            self._ev_flat = np.array(flat, dtype=np.int64)
            self._ev_len = np.diff(offsets)
            self._ev_off = np.array(offsets[:-1], dtype=np.int64)
        if len(self._ev_flat) == 0:
            return np.zeros(self.n_edges)
        # pad with a zero sentinel so offsets equal to len(flat) (edges with
        # no events at the tail) stay valid and empty segments, which
        # reduceat fills with values[off], can simply be overwritten
        values = np.append(eventw[self._ev_flat], 0.0)
        sums = np.add.reduceat(values, self._ev_off)
        sums[self._ev_len == 0] = 0.0
        return sums


def build_forest(goal, expand):
    """Memoize a backward-chaining expansion into a Forest.

    ``expand(item)`` returns an iterable of ``(tails, events)`` pairs.  Items
    whose every expansion bottoms out in a dead end are pruned (their edges
    are dropped), so passes only ever see derivable items.  Raises
    ValueError on a cyclic expansion.
    """
    forest = Forest(goal)
    forest.goal_id = forest.item_id(goal)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {forest.goal_id: WHITE}
    raw_edges = {}
    topo = []
    stack = [(forest.goal_id, None)]
    while stack:
        iid, pending = stack.pop()
        if pending is None:
            if color.get(iid, WHITE) == BLACK:
                continue
            if color.get(iid) == GRAY:
                raise ValueError("cyclic chart expansion at %s" % (forest.items[iid],))
            color[iid] = GRAY
            edges = []
            children = []
            for tails, events in expand(forest.items[iid]):
                tail_ids = tuple(forest.item_id(t) for t in tails)
                event_ids = tuple(forest.event_id(ev) for ev in events)
                edges.append((tail_ids, event_ids))
                children.extend(tail_ids)
            raw_edges[iid] = edges
            stack.append((iid, True))
            for t in children:
                if color.get(t, WHITE) == WHITE:
                    stack.append((t, None))
                elif color.get(t) == GRAY:
                    raise ValueError(
                        "cyclic chart expansion at %s" % (forest.items[t],)
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

    viable = [False] * forest.n_items
    for iid in topo:
        ok = False
        for tails, _ in raw_edges.get(iid, ()):
            if all(viable[t] for t in tails):
                ok = True
                break
        viable[iid] = ok
    for iid in topo:
        if not viable[iid]:
            continue
        for tails, events in raw_edges[iid]:
            if all(viable[t] for t in tails):
                forest.add_edge(iid, tails, events)
    forest.topo = [i for i in topo if viable[i]]
    return forest


def inside_logsum(forest, eventw):
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


def inside_count(forest):
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


def inside_max(forest, eventw, edge_arcs=None):
    """Viterbi pass.

    Returns (scores, best_edge).  With ``edge_arcs`` (callable edge id ->
    tuple of (dep, head) arcs) exact score ties are broken by preferring the
    derivation whose sorted arc tuple is lexicographically smaller, which
    realizes the "lower head index first" decoding contract.
    """
    scores = np.full(forest.n_items, NEG_INF)
    best_edge = [-1] * forest.n_items
    keys = [None] * forest.n_items if edge_arcs is not None else None
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
            if keys is None:
                if w > scores[iid]:
                    scores[iid] = w
                    best_edge[iid] = e
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


def backtrace(forest, best_edge, root=None):
    """Edge ids of the best derivation below ``root`` (default: goal)."""
    out = []
    agenda = [forest.goal_id if root is None else root]
    while agenda:
        iid = agenda.pop()
        e = best_edge[iid]
        if e < 0:
            raise ValueError("no derivation for %s" % (forest.items[iid],))
        out.append(e)
        agenda.extend(forest.edge_tails[e])
    return out


def outside_logsum(forest, eventw, inside):
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


def event_posteriors(forest, eventw):
    """(log marginal, expected count per event id) under the forest weights."""
    inside = inside_logsum(forest, eventw)
    logz = inside[forest.goal_id]
    post = np.zeros(len(forest.events))
    if logz == NEG_INF:
        return logz, post
    outside = outside_logsum(forest, eventw, inside)
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
