"""Shared weighted-hypergraph machinery for the chart parsers.

A chart is expressed as a backward-chaining expansion: ``expand(item)`` yields
every way the item can be derived, each as ``(tails, events)`` where ``tails``
is a tuple of at most two child items and ``events`` is a tuple of grammar
decisions (automaton init/final/transition uses) charged at that step.
``build_forest`` memoizes the recursion into an explicit acyclic hypergraph
stored as flat integer arrays, so a forest built once for a sentence shape
can be re-weighted cheaply on every training iteration.

Build.  Every forest is laid out from a ``TranslationClasses`` table.  It
expands each item shape (a class: an item moved so that its least position
is 1) once, depth first, numbering a class after its tails' classes, which
finds a cycle as it goes (an error).  It keeps a class's derivable edges as
(tail class, relative offset) and its events as (event class, relative
offset): an edge is derivable when all its tails are, an item when one of
its edges is.  A length's forest is then laid out by array arithmetic, from
every derivable class at every offset that fits, keeping the cells that the
goal's cell reaches through derivable edges; a chart's goal has no position
field, so each length's goal is a class at offset 0.  When a chart's
expansion is the same under translation and at every length, as on DMV
automata, one table serves every length; the forest cache in ``induction``
keeps one per chart and depth policy.  ``build_forest`` builds any other
expansion from a table of its own whose items and events have no position
field, so that each item is its own class at offset 0.  A table's forest
makes its items and events on demand (``Shifted``): the passes read only
arrays.

Array layout.  A built forest numbers its items (``items[i]``) by (level,
class, offset), so the goal, alone on the top level, is the last item; id
``n_items`` is a sentinel whose value is 0 in log space (1 in the count
semiring).  Every derivable item gets a topological *level*: 0 when all
its edges have no tails, otherwise 1 + the highest level among its tails.
Edges are stably sorted by (level of head, head), so each head's edges form
one contiguous group in expansion order and each level one contiguous run
of groups:

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

import bisect
import collections.abc

import numpy as np

NEG_INF = float("-inf")
# Viterbi scores within TIE_TOL count as tied; heads whose two best edges lie
# closer than TIE_GAP are re-decided by the sequential comparison with its
# arc-key tie-break
TIE_TOL = 1e-12
TIE_GAP = 2 * TIE_TOL


class Forest:
    """An acyclic hypergraph with a single goal item, as flat arrays (see
    the module docstring for the layout); ``goal_ids`` holds the goal's
    item id, or one per forest of a ``disjoint_union``.  ``items`` and
    ``events`` are sequences, made on demand from a translation-class
    layout or a union."""

    def __init__(self, goal, items, events, level, edges):
        """A forest whose goal is item 0.  ``level`` gives each item's
        level (-1 when not derivable);
        ``edges`` is (heads, first tails, second tails, event counts, event
        ids) of the derivable edges as flat sequences in expansion order,
        with missing tails set to the sentinel ``len(items)``."""
        head, tail0, tail1, n_ev, flat = (np.asarray(x, dtype=np.intp)
                                          for x in edges)
        level = np.array(level, dtype=np.intp)
        order = _level_order(head, level)
        first = (np.cumsum(n_ev) - n_ev)[order]
        n_ev = n_ev[order]
        self._lay_out(goal, [0], items, events, level, head[order],
                      np.stack((tail0[order], tail1[order])), n_ev,
                      flat[_ranges(first, n_ev)])

    def _lay_out(self, goal, goal_ids, items, events, level, head, tails,
                 n_ev, flat):
        """Keep the goals' ids and the edges sorted by (level of head,
        head): their heads, tails (2 x edges), event counts and event ids."""
        self.goal = goal
        self.goal_ids = np.asarray(goal_ids, dtype=np.intp)
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
    def goal_id(self):
        return int(self.goal_ids[0])

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
    sizes = np.diff(group_ptr)
    levels = level_ptr.tolist()
    rows = group_ptr[level_ptr].tolist()
    out = []
    for ga, gb, lo, hi in zip(levels, levels[1:], rows, rows[1:]):
        if ga < gb:
            out.append((group_owner[ga:gb], lo, hi, group_ptr[ga:gb] - lo,
                        sizes[ga:gb]))
    return out


def build_forest(goal, expand):
    """Memoize a backward-chaining expansion into a Forest.

    ``expand(item)`` returns an iterable of ``(tails, events)`` pairs with
    at most two tails each.  The forest keeps what the goal reaches through
    derivable edges, so passes only ever see derivable items.  Raises
    ValueError on a cyclic expansion.

    This is a ``TranslationClasses`` table whose items and events have no
    position field: each item is its own class, at offset 0.
    """
    return TranslationClasses(_no_positions, _no_positions).forest(
        goal, expand, 1)


def _no_positions(_):
    return ()


class Shifted(collections.abc.Sequence):
    """Tuples made on demand from translation classes: entry k is the
    normal form ``forms[cls[k]]`` with its position fields (``positions``
    of the form) moved by ``offset[k]``.  Tuples are made only when asked
    for: forests laid out from a ``TranslationClasses`` table keep their
    items and events this way, and the passes never read them."""

    def __init__(self, forms, positions, cls, offset):
        self.forms = forms
        self.positions = positions
        self.cls = cls
        self.offset = offset

    def __len__(self):
        return len(self.cls)

    def __getitem__(self, k):
        form = self.forms[self.cls[k]]
        return _moved(form, self.positions(form), int(self.offset[k]))

    def __iter__(self):
        forms, positions = self.forms, self.positions
        for c, s in zip(self.cls.tolist(), self.offset.tolist()):
            form = forms[c]
            yield _moved(form, positions(form), s)


class Chain(collections.abc.Sequence):
    """Sequences end to end, without copying them."""

    def __init__(self, parts):
        self.parts = parts
        self._ends = np.cumsum([len(p) for p in parts]).tolist()

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if not -len(self) <= k < len(self):
            raise IndexError(k)
        k %= len(self)
        part = bisect.bisect_right(self._ends, k)
        return self.parts[part][k - self._ends[part] + len(self.parts[part])]

    def __iter__(self):
        for part in self.parts:
            yield from part


def _moved(form, positions, s):
    """``form`` with its ``positions`` fields moved by ``s``."""
    if not s:
        return form
    out = list(form)
    for k in positions:
        out[k] += s
    return tuple(out)


def _normal_form(t, positions):
    """(normal form, offset) of tuple ``t`` whose position fields are
    ``positions``: ``t`` moved so that its least position is 1, and how
    far."""
    s = min([t[k] for k in positions], default=1) - 1
    return _moved(t, positions, -s), s


class TranslationClasses:
    """A chart's items modulo translation: each class expanded once, every
    length's forest laid out from the classes by array arithmetic.

    A class is an item moved so that its least position is 1 (its normal
    form); the item is the class at an offset, its least position minus 1.
    A class keeps its derivable edges as (tail class, offset relative to
    the item) and its events as (event class, relative offset), events
    being normalized the same way, and its level, which a shift does not
    change.  Classes are numbered after all their tails' classes, so a
    class never points at one added after it, and the arrays only grow as
    longer lengths arrive.

    This is sound when the chart's expansion is translation-equivariant
    and the same at every length: an item's edges are its class's edges at
    its offset.  ``item_positions(item)`` and
    ``event_positions(event)`` give the indices of the position fields of
    an item and of an event.
    """

    def __init__(self, item_positions, event_positions):
        self._item_positions = item_positions
        self._event_positions = event_positions
        self.items = []         # class -> normal form
        self._index = {}        # normal form -> class
        self.events = []        # event class -> normal form
        self._event_index = {}
        # rows per class: (level, -1 when not derivable; largest position;
        # first edge; number of edges); per edge: (first tail's class, -1
        # for none, and relative offset; the same of the second tail; first
        # event; number of events); per event of an edge: (event class,
        # relative offset)
        self._rows = ([], [], [])
        self._uses = []         # class -> its distinct (tail class, offset)
        self._arrays = [np.zeros((k, 0), dtype=np.intp) for k in (4, 6, 2)]

    def _event(self, event):
        """(event class, offset) of ``event``."""
        form, s = _normal_form(event, self._event_positions(event))
        c = self._event_index.get(form)
        if c is None:
            c = self._event_index[form] = len(self.events)
            self.events.append(form)
        return c, s

    def _normalizer(self):
        """A function (item, its edges) -> the edges as ((tail normal
        form, offset) pairs, (event class, offset) pairs).  It keeps what
        each tail and event became, since a tuple recurs in many edges."""
        tails_seen, events_seen = {}, {}
        item_positions, event_class = self._item_positions, self._event

        def tail(t):
            form = tails_seen[t] = _normal_form(t, item_positions(t))
            return form

        def event(ev):
            c = events_seen[ev] = event_class(ev)
            return c

        def normalize(item, edges):
            out = []
            for tails, evs in edges:
                if len(tails) > 2:
                    raise ValueError("edge with %d tails at %s"
                                     % (len(tails), item))
                out.append(([tails_seen.get(t) or tail(t) for t in tails],
                            [events_seen.get(ev) or event(ev) for ev in evs]))
            return out

        return normalize

    def _expand(self, forms, expand, normalize):
        """Expand the classes of the normal forms ``forms`` and every
        class below them that the table lacks, depth first, numbering each
        class after its tails' classes.  Raises ValueError on a cycle."""
        index = self._index
        pending = {}
        stack = list(forms)
        while stack:
            form = stack[-1]
            if form in index:
                stack.pop()
                continue
            edges = pending.get(form)
            if edges is None:
                edges = pending[form] = normalize(form, expand(form))
                todo = [t for tails, _ in edges for t, _ in tails
                        if t not in index]
                if todo:
                    stack += todo
                    continue
            elif any(t not in index for tails, _ in edges for t, _ in tails):
                raise ValueError("cyclic chart expansion at %s" % (form,))
            stack.pop()
            del pending[form]
            self._add(form, edges)

    def _add(self, form, edges):
        """Number the class of ``form``, whose tails' classes are numbered,
        and keep its derivable edges."""
        classes, edge_rows, event_rows = self._rows
        index = self._index
        top, first_edge = -1, len(edge_rows)
        uses = {}
        for tails, evs in edges:
            row = [-1, 0, -1, 0, len(event_rows), len(evs)]
            above = 0
            for j, (t, s) in enumerate(tails):
                c = index[t]
                level = classes[c][0]
                if level < 0:
                    break
                above = max(above, level + 1)
                row[2 * j] = c
                row[2 * j + 1] = s
            else:
                top = max(top, above)
                for j in range(len(tails)):
                    uses[row[2 * j], row[2 * j + 1]] = None
                edge_rows.append(row)
                event_rows += evs
        self._uses.append(tuple(uses))
        positions = self._item_positions(form)
        index[form] = len(self.items)
        self.items.append(form)
        classes.append((top, max([form[k] for k in positions], default=1),
                        first_edge, len(edge_rows) - first_edge))

    def _sync(self):
        """The row lists as arrays, one row of the array per field,
        extended by what was added since."""
        for k, rows in enumerate(self._rows):
            old = self._arrays[k]
            if old.shape[1] < len(rows):
                new = np.array(rows[old.shape[1]:], dtype=np.intp)
                self._arrays[k] = np.concatenate(
                    (old, new.reshape(len(new), -1).T), axis=1)
        return self._arrays

    def _reach(self, rows, goal, s, n):
        """Whether the goal, class ``goal`` at offset ``s``, reaches each
        candidate class ``rows[r]`` at offset t, as a boolean grid (r, t)
        of ``n`` offsets.  The offsets at which the goal reaches a class
        are kept as the bits of an int and passed, shifted, to its tails,
        top level first: a class's tails have lower levels."""
        reached = [0] * len(self.items)
        reached[goal] = 1 << s
        uses, rows = self._uses, rows.tolist()
        for c in reversed(rows):
            if reached[c]:
                for t, rel in uses[c]:
                    reached[t] |= reached[c] << rel
        size = (n + 7) // 8
        bits = b"".join([reached[c].to_bytes(size, "little") for c in rows])
        return np.unpackbits(np.frombuffer(bits, dtype=np.uint8),
                             bitorder="little").reshape(
                                 len(rows), size * 8)[:, :n]

    def forest(self, goal, expand, n):
        """The forest below ``goal`` of a length-``n`` sentence, whose
        positions are 1..n.  ``expand`` is the chart's expansion over that
        sentence: it gives the edges of every class the table lacks.

        The candidate items are the goal and every derivable class at every
        offset that fits in 1..n, a grid of (class, offset) cells, of which
        the items are those the goal reaches (``_reach``).  They are
        numbered by (level, class, offset), so the edges come out sorted as
        ``Forest`` lays them out, with no sort, and the goal comes last.
        """
        form, goal_at = _normal_form(goal, self._item_positions(goal))
        self._expand([form], expand, self._normalizer())
        classes, edges, events = self._sync()
        level = classes[0]
        goal_class = self._index[form]
        fits = (level >= 0) & (classes[1] <= n)
        fits[goal_class] = True  # derivable or not
        rows = np.flatnonzero(fits)
        rows = rows[np.argsort(level[rows], kind="stable")]
        cols = max(n, 1)  # an empty sentence's goal needs a cell too
        grid = len(rows) * cols
        # the cell of each candidate class at offset 0; past the grid for
        # the others, and for class -1, a missing tail
        at = np.full(len(level) + 1, grid, dtype=np.intp)
        at[rows] = np.arange(len(rows)) * cols
        reach = self._reach(rows, goal_class, goal_at, cols)
        hit = np.flatnonzero(reach)
        c, s = rows[hit // cols], hit % cols
        sentinel = len(hit)
        # the item id of each cell, and the sentinel for a missing tail,
        # whose cells lie past the grid
        ids = np.concatenate((np.cumsum(reach, dtype=np.intp) - 1,
                              np.full(cols + 1, sentinel, dtype=np.intp)))
        k = classes[3][c]
        e = _ranges(classes[2][c], k)
        s_e = np.repeat(s, k)
        n_ev = edges[5][e]
        flat = _ranges(edges[4][e], n_ev)
        # the cells of each edge's tails
        tails = np.stack([ids[at[edges[j][e]] + edges[j + 1][e] + s_e]
                          for j in (0, 2)])
        ev_at = np.repeat(s_e, n_ev) + events[1][flat]
        # event ids in the order of (event class, offset)
        width = int(ev_at.max(initial=0)) + 1
        key = events[0][flat] * width + ev_at
        used = np.zeros(len(self.events) * width, dtype=bool)
        used[key] = True
        event_ids = np.cumsum(used) - 1
        used = np.flatnonzero(used)
        forest = Forest.__new__(Forest)
        forest._lay_out(
            goal, [ids[at[goal_class] + goal_at]],
            Shifted(self.items, self._item_positions, c, s),
            Shifted(self.events, self._event_positions, used // width,
                    used % width),
            level[c], np.repeat(np.arange(len(hit)), k), tails, n_ev,
            event_ids[key])
        return forest


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
        None, item_base[:-1] + [f.goal_id for f in forests],
        Chain([f.items for f in forests]),
        Chain([f.events for f in forests]),
        cat([f.item_level for f in forests]),
        cat([f.edge_head + b for f, b in zip(forests, item_base)])[edges],
        cat([np.where(f.edge_tail == f.sentinel, sentinel, f.edge_tail + b)
             for f, b in zip(forests, item_base)], axis=1)[:, edges],
        cat([np.diff(f.event_ptr) for f in forests])[edges],
        cat([f.event_flat + b for f, b in zip(forests, event_base)])[flat])
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
