"""Supervised transition-based parsing.

Structured perceptron (max-violation updates, averaged weights) over beam
search for three transition systems: the dummy-node left-corner system (with
a full and a lookahead-limited feature set), arc-standard, and arc-eager.
Decoding can bound the stack depth, either on every configuration ("raw") or
only after reduce actions ("depthRe", which tolerates the transient element
a shift pushes).

Each system lists its feature templates; a configuration fills a vector of
slots, and each template reads its key from it (the value for a
one-component template, else the tuple of values).  Weights live in one
scoring table per template, mapping a key to its weights by action, from
training through decoding.  The ``name=v1|v2>action`` strings of a
feature are made only for parser files and for the flat views that
``ParserModel.weights`` and ``final_weights`` build on demand; since a
feature is identified by its string, keys whose values join alike (when a
form or tag holds "|") share one row of weights.
"""

import dataclasses
import random
from itertools import combinations, repeat
from operator import itemgetter

from .transition import (
    ARC_EAGER,
    ARC_STANDARD,
    LC_REDUCE_ACTIONS,
    LEFT_CORNER,
    SYSTEMS,
    ArcEager,
    ArcStandard,
    LeftCorner,
    oracle_steps,
    postprocess_terminal,
)
from .treebank import tree_from_heads

NULL = "-NULL-"

RAW = "raw"
DEPTH_RE = "depthRe"

FULL = "full"
LIMITED = "limited"

# Templates over elementary addresses: stack elements expose the dummy's
# parent chain (p, gp, gg) and the dummy's two leftmost children (l, l2);
# the buffer-view addresses expose the token (or completed subtree root)
# itself plus its leftmost/rightmost children (l, r).  In reduce mode the
# completed element on top of the stack is addressed as q0 and the elements
# below it shift to s0/s1.  A component without a .w/.t leaf reads the tag.
_SHARED_TEMPLATES = (
    "s0.p.w", "s0.p.t", "s0.l.w", "s0.l.t",
    "s1.p.w", "s1.p.t", "s1.l.w", "s1.l.t",
    "s0.p.w s0.p.t", "s0.l.w s0.l.t", "s1.p.w s1.p.t", "s1.l.w s1.l.t",
    "q0.w", "q0.t", "q0.w q0.t",
    "s0.p.w s0.l.w", "s0.p.t s0.l.t",
    "s0.p.w s1.p.w", "s0.l.w s1.l.w", "s0.p.t s1.p.t", "s0.l.t s1.l.t",
    "s0.p.w q0.w", "s0.l.w q0.w", "s0.p.t q0.t", "s0.l.t q0.t",
    "s0.p.w q0.w q0.p", "s0.p.w q0.w s0.p.t", "s0.l.w q0.w s0.l.t",
    "s0.p.w s0.p.t q0.t", "s0.l.w s0.l.t q0.t",
    "q0.t q0.l.t q0.r.t", "q0.w q0.l.t q0.r.t",
    "s0.p.t s0.gp.t s0.gg.t", "s0.p.t s0.gp.t s0.l.t",
    "s0.p.t s0.l.t s0.l2.t", "s0.p.t s0.gp.t q0.t",
    "s0.p.t s0.l.t q0.t", "s0.p.w s0.l.t q0.t", "s0.p.t s0.l.w q0.t",
    "s0.l.t s0.l2.p q0.t", "s0.l.t s0.l2.t q0.t",
    "s0.p.t q0.t q0.l.t", "s0.p.t q0.t q0.r.t",
    "s1.p.t s0.p.t s0.l.t", "s1.p.t s0.l.t q0.t", "s1.l.t s0.l.t q0.t",
    "s1.l.t s0.p.t q0.p",
)

# the lookahead templates dropped from the limited set
_ADDITIONAL_TEMPLATES = (
    "q0.t q1.t", "q0.t q1.t q2.t",
    "s0.p.t q0.p q1.p q2.p", "s0.l.t q0.t q1.t q2.t",
    "s0.p.w q0.t q1.t", "s0.p.t q0.t q1.t",
    "s0.l.w q0.t q1.t", "s0.l.t q0.t q1.t",
)


def _parse_component(comp):
    parts = comp.split(".")
    if len(parts) == 2:
        addr, leaf = parts
        if leaf in ("w", "t"):
            return (addr, "", leaf)
        return (addr, leaf, "t")
    addr, role, leaf = parts
    return (addr, role, leaf)


def _compile(templates):
    return tuple(
        tuple(_parse_component(c) for c in tmpl.split()) for tmpl in templates
    )

_SHARED = _compile(_SHARED_TEMPLATES)
_ADDITIONAL = _compile(_ADDITIONAL_TEMPLATES)
_TEMPLATES = {LIMITED: _SHARED, FULL: _SHARED + _ADDITIONAL}


def _for_feature_set(by_set, feature_set):
    try:
        return by_set[feature_set]
    except KeyError:
        raise ValueError("unknown feature set %r" % feature_set) from None


def lc_templates(feature_set):
    return _for_feature_set(_TEMPLATES, feature_set)


# One configuration fills a flat vector of slots, one per (address, role,
# leaf) component, each NULL unless its view has it: the incomplete stack
# elements s0 and s1 (roles p, gp, gg, l, l2), then q0 (the token or the
# completed element itself, then l, r), then the buffer tokens q1 and q2,
# each as a form/tag pair.  Components naming a role or leaf that no view
# has get slots of their own, which always read NULL.
_VIEWS = (
    ("s0", ("p", "gp", "gg", "l", "l2")),
    ("s1", ("p", "gp", "gg", "l", "l2")),
    ("q0", ("", "l", "r")),
    ("q1", ("",)),
    ("q2", ("",)),
)


def _slot_layout():
    slots = {}
    for addr, roles in _VIEWS:
        for role in roles:
            for leaf in ("w", "t"):
                slots[addr, role, leaf] = len(slots)
    for template in _TEMPLATES[FULL]:
        for comp in template:
            slots.setdefault(comp, len(slots))
    return slots


_SLOT = _slot_layout()
_N_SLOTS = len(_SLOT)
_S0, _S1, _Q0, _Q1 = (_SLOT[a, roles[0], "w"] for a, roles in _VIEWS[:4])


def _key_templates(names, slot_lists):
    """(names, component counts, key getters) of one system's templates.

    A getter reads its template's key from the slot vector: the value
    itself for a one-component template, else the tuple of values.
    """
    return (tuple(names), tuple(map(len, slot_lists)),
            tuple(itemgetter(*slots) for slots in slot_lists))


_LC_KEYS = {
    fs: _key_templates(map(str, range(len(t))),
                       [[_SLOT[c] for c in template] for template in t])
    for fs, t in _TEMPLATES.items()
}


def _feature(name, key):
    """A key's feature string, as model files spell it: ``name=v1|v2``, or
    ``name=v`` for a one-component template."""
    return name + "=" + (key if key.__class__ is str else "|".join(key))


def _splits(body, k):
    """Every key of a k-component template whose values join to ``body``:
    one per way to cut it at k - 1 of its pipes, none when it has fewer."""
    if k == 1:
        return [body]
    parts = body.split("|")
    ends = (len(parts),)
    return [tuple("|".join(parts[i:j]) for i, j in zip((0,) + cut, cut + ends))
            for cut in combinations(range(1, len(parts)), k - 1)]


def _aliases(key):
    """``key`` and every other key of its template spelling the same
    feature, which happens only when a value holds a pipe."""
    if key.__class__ is str or not any("|" in v for v in key):
        return (key,)
    return _splits("|".join(key), len(key))


def _put(vals, at, toks, forms, tags):
    """Write the form and tag of each token into consecutive slot pairs."""
    for tok in toks:
        vals[at] = forms[tok - 1]
        vals[at + 1] = tags[tok - 1]
        at += 2


def _lc_slots(config, forms, tags):
    """The slot vector of one left-corner configuration."""
    vals = [NULL] * _N_SLOTS
    spines = config.spines
    pos = config.buffer_pos
    n = len(forms)
    if spines and spines[-1].is_complete:
        # reduce mode: the completed element on top is q0, with its
        # leftmost and rightmost children as l and r
        root = spines[-1].nodes[0]
        kids = [d for h, d in config.arcs if h == root]
        _put(vals, _Q0, [root, min(kids), max(kids)] if kids else [root],
             forms, tags)
        spines = spines[:-1]
        after = pos
    else:
        if pos <= n:
            _put(vals, _Q0, (pos,), forms, tags)
        after = pos + 1
    # the stack elements: parent chain p, gp, gg, then left children l, l2
    for at, spine in zip((_S0, _S1), spines[:-3:-1]):
        _put(vals, at, spine.nodes[:-4:-1], forms, tags)
        _put(vals, at + 6, spine.dummy.left[:2], forms, tags)
    # buffer positions start at 1, so only the sentence end cuts q1 and q2
    _put(vals, _Q1, range(after, min(after + 1, n) + 1), forms, tags)
    return vals


def extract_lc_features(config, forms, tags, feature_set=FULL):
    """Feature strings (action not yet conjoined) for one configuration.

    Absent addresses and roles contribute a NULL placeholder rather than
    suppressing the template.  Parsing reads the same values as keys
    (``_LcSystem.keys``); this is their string form.
    """
    names, _, getters = _for_feature_set(_LC_KEYS, feature_set)
    vals = _lc_slots(config, forms, tags)
    return [_feature(name, get(vals)) for name, get in zip(names, getters)]


# ---------------------------------------------------------------------------
# the transition systems of transition.py, with features, depth bounds and
# head reading for decoding


def _action_ids(actions):
    return {a: i for i, a in enumerate(actions)}


class _LcSystem(LeftCorner):
    action_ids = _action_ids(LeftCorner.actions)

    def __init__(self, feature_set=FULL):
        self.feature_set = feature_set
        self.names, self.arity, self.getters = _for_feature_set(
            _LC_KEYS, feature_set)

    def depth_ok(self, state, action, bound, measure, relax_c=1):
        if bound is None:
            return True
        if measure == RAW:
            return state.stack_depth <= bound
        if action in LC_REDUCE_ACTIONS:
            if relax_c > 1 and state.top_element_size() <= relax_c:
                return True
            return state.stack_depth <= bound
        return True

    def keys(self, state, forms, tags):
        """The template keys of one configuration, in template order."""
        vals = _lc_slots(state, forms, tags)
        return [get(vals) for get in self.getters]

    def read_heads(self, state, n):
        return postprocess_terminal(state)


def _flat_templates(slots, names):
    """Templates of arc-standard or arc-eager over their ``slots``: a name's
    parts, split at "_", are slot names, except that "s0wt" reads s0w and
    s0t."""
    at = {slot: i for i, slot in enumerate(slots)}
    return _key_templates(names, [
        [i for part in name.split("_")
         for i in ([at[part]] if part in at
                   else [at[part[:-1]], at[part[:-2] + "t"]])]
        for name in names])


class _FlatParser:
    """Depth bound, keys and head reading of arc-standard and arc-eager;
    both bound every configuration by the system's depth."""

    def depth_ok(self, state, action, bound, measure, relax_c=1):
        return bound is None or self.depth(state) <= bound

    def keys(self, state, forms, tags):
        """The template keys of one configuration, in template order."""
        vals = self.slots(state, forms, tags)
        return [get(vals) for get in self.getters]

    def read_heads(self, state, n):
        heads = {d: h for h, d in state.arcs}
        return tuple(heads.get(t, 0) for t in range(1, n + 1))


def _flat_children(state, tok):
    return sorted(d for h, d in state.arcs if h == tok)


def _flat_wt(tok, forms, tags):
    if tok is None or not (1 <= tok <= len(forms)):
        return NULL, NULL
    return forms[tok - 1], tags[tok - 1]


def _side_tags(state, tok, tags):
    """Tags of the leftmost and rightmost children of ``tok``."""
    kids = _flat_children(state, tok) if tok else []
    return (tags[kids[0] - 1], tags[kids[-1] - 1]) if kids else (NULL, NULL)


class _AsSystem(_FlatParser, ArcStandard):
    action_ids = _action_ids(ArcStandard.actions)
    names, arity, getters = _flat_templates(
        ("s0w", "s0t", "s1w", "s1t", "q0w", "q0t", "q1t", "q2t",
         "s0lt", "s0rt", "s1lt", "s1rt"),
        ("s0w", "s0t", "s0wt", "s1w", "s1t", "s1wt", "q0w", "q0t", "q0wt",
         "s1w_s0w", "s1t_s0t", "s0t_q0t", "s1t_s0t_q0t", "s1t_s0t_s0lt",
         "s1t_s0t_s0rt", "s1t_s1lt_s0t", "s1t_s1rt_s0t", "s0t_q0t_q1t",
         "q0t_q1t_q2t"))

    def slots(self, state, forms, tags):
        s0 = state.stack[-1] if len(state.stack) >= 1 else None
        s1 = state.stack[-2] if len(state.stack) >= 2 else None
        q = [
            state.front + k if state.front + k <= state.n else None
            for k in range(3)
        ]
        return [*_flat_wt(s0, forms, tags), *_flat_wt(s1, forms, tags),
                *_flat_wt(q[0], forms, tags), _flat_wt(q[1], forms, tags)[1],
                _flat_wt(q[2], forms, tags)[1],
                *_side_tags(state, s0, tags), *_side_tags(state, s1, tags)]


class _AeSystem(_FlatParser, ArcEager):
    action_ids = _action_ids(ArcEager.actions)
    names, arity, getters = _flat_templates(
        ("s0w", "s0t", "q0w", "q0t", "q1w", "q1t", "q2t", "s0ht", "s0lt",
         "s0rt", "q0lt"),
        ("s0w", "s0t", "s0wt", "q0w", "q0t", "q0wt", "q1w", "q1t", "q2t",
         "s0w_q0w", "s0t_q0t", "s0w_q0t", "s0t_q0w", "q0t_q1t",
         "q0t_q1t_q2t", "s0t_q0t_q1t", "s0ht_s0t", "s0t_s0lt", "s0t_s0rt",
         "q0t_q0lt"))

    def slots(self, state, forms, tags):
        s0 = state.stack[-1] if state.stack else None
        q = [
            state.front + k if state.front + k <= state.n else None
            for k in range(3)
        ]
        heads = {d: h for h, d in state.arcs}
        s0h = heads.get(s0) if s0 else None
        return [*_flat_wt(s0, forms, tags), *_flat_wt(q[0], forms, tags),
                *_flat_wt(q[1], forms, tags), _flat_wt(q[2], forms, tags)[1],
                _flat_wt(s0h, forms, tags)[1], *_side_tags(state, s0, tags),
                _side_tags(state, q[0], tags)[0]]


def _system(name, feature_set=FULL):
    if name == LEFT_CORNER:
        return _LcSystem(feature_set)
    if name == ARC_STANDARD:
        return _AsSystem()
    if name == ARC_EAGER:
        return _AeSystem()
    raise ValueError("unknown system %r" % name)


# ---------------------------------------------------------------------------
# beam search


@dataclasses.dataclass(slots=True)
class BeamState:
    state: object
    score: float
    actions: tuple
    parent: object = None
    keys: list = ()  # template keys of the parent's configuration

    def path_keys(self):
        """(template keys, action) of every step on the path to this state,
        in order."""
        out = []
        node = self
        while node.parent is not None:
            out.append((node.keys, node.actions[-1]))
            node = node.parent
        return out[::-1]


def _single_rooted(heads):
    root = None
    out = list(heads)
    for i, h in enumerate(out):
        if h == 0:
            if root is None:
                root = i + 1
            else:
                out[i] = root
    if root is None:
        out[0] = 0
    return tuple(out)


# Weights are kept as a scoring table: one dict per template, mapping each
# key to a row of weights by the system's action ids, so one lookup per
# template serves every action.  Training, ParserModel and decoding hold
# only tables; "feature>action" strings are made for model files and for
# the flat views of ParserModel.


def _table(entries, sys_):
    """Scoring table of ``(feature>action, weight, line number)`` entries.

    A feature is registered under every key that spells it (``_splits``),
    all on one row.  An entry whose feature names no template of the
    system, whose action the system lacks, or whose values are too few for
    its template raises ValueError naming its line (its key when the line
    number is None).
    """
    index = {name: t for t, name in enumerate(sys_.names)}
    ids = sys_.action_ids
    table = [{} for _ in sys_.names]
    for key, w, lineno in entries:
        feat, _, action = key.rpartition(">")
        name, eq, body = feat.partition("=")
        t = index.get(name) if eq else None
        aid = ids.get(action)
        if t is None:
            problem = "names no template"
        elif aid is None:
            problem = "names no action"
        else:
            keys = _splits(body, sys_.arity[t])
            problem = None if keys else "has too few values for a template"
        if problem:
            raise ValueError("%s %s of the %s system: %r" % (
                "weight" if lineno is None else "model line %d" % lineno,
                problem, sys_.name, key))
        rows = table[t]
        row = rows.get(keys[0])
        if row is None:
            row = [0.0] * len(ids)
            for k in keys:
                rows[k] = row
        row[aid] = w
    return table


def _flat(table, sys_):
    """The flat ``feature>action -> weight`` dict of a table, zeros left
    out."""
    out = {}
    for name, rows in zip(sys_.names, table):
        for key, row in rows.items():
            feat = _feature(name, key) + ">"
            for action, w in zip(sys_.actions, row):
                if w:
                    out[feat + action] = w
    return out


def _score(table, keys, actions):
    """Score of each action id in ``actions`` for one configuration.

    ``table`` holds one dict per template, mapping a key to a row that
    starts with its weights by action id.  Each sum runs over the templates
    in order with the builtin sum, so it equals, bit for bit, the sum of
    ``weights.get(f + ">" + action, 0.0)`` over the flat weights: the
    entries left out would only add zeros.
    """
    rows = [row for row in map(dict.get, table, keys) if row is not None]
    return [sum([row[a] for row in rows], 0.0) for a in actions]


def _beam_run(sys_, table, forms, tags, beam_size, depth_bound, depth_measure,
              relax_c=1, record=None):
    """Run beam search; returns (best final or None, best partial).

    Every valid action of every state is scored, but successors are built
    and depth-checked only in rank order until the beam is full.
    ``record`` (a list, when given) receives the beam's best state after
    every round, which training uses to find violations.
    """
    n = len(forms)
    ids = sys_.action_ids
    beam = [BeamState(sys_.initial(n), 0.0, ())]
    finals = []
    best_partial = beam[0]
    for _ in range(4 * n + 8):
        # (-score, parent's actions, action, parent index): all parents hold
        # equally many actions, so this orders as (-score, actions) does
        candidates = []
        base = []
        for k, st in enumerate(beam):
            if sys_.is_terminal(st.state):
                finals.append(st)
                base.append(None)
                continue
            keys = sys_.keys(st.state, forms, tags)
            base.append(keys)
            valid = sys_.valid(st.state)
            scores = _score(table, keys, [ids[a] for a in valid])
            for action, step in zip(valid, scores):
                candidates.append((-(st.score + step), st.actions, action, k))
        candidates.sort()
        survivors = []
        for neg, actions, action, k in candidates:
            parent = beam[k]
            new_state = sys_.apply(parent.state, action)
            if not sys_.depth_ok(
                new_state, action, depth_bound, depth_measure, relax_c
            ):
                continue
            survivors.append(BeamState(
                new_state, -neg, actions + (action,), parent, base[k]
            ))
            if len(survivors) >= beam_size:
                break
        if not survivors:
            break
        beam = survivors
        if record is not None:
            record.append(beam[0])
        best_partial = min(
            [best_partial, beam[0]],
            key=lambda s: (-len(s.actions), -s.score, s.actions),
        )
    finals.sort(key=lambda s: (-s.score, s.actions))
    best_final = finals[0] if finals else None
    return best_final, best_partial


def _check_beam(beam_size):
    if beam_size < 1:
        raise ValueError("beam size must be at least 1, not %r" % (beam_size,))


def _decode(sentence, sys_, table, beam_size, depth_bound, depth_measure,
            relax_c):
    if hasattr(sentence, "forms"):
        forms, tags = list(sentence.forms), list(sentence.tags)
    else:
        forms, tags = list(sentence[0]), list(sentence[1])
    n = len(forms)
    if n == 0:
        return tree_from_heads(())
    best_final, best_partial = _beam_run(
        sys_, table, forms, tags, beam_size, depth_bound, depth_measure,
        relax_c,
    )
    chosen = best_final if best_final is not None else best_partial
    heads = _single_rooted(sys_.read_heads(chosen.state, n))
    return tree_from_heads(heads, tags=tags, forms=forms)


def beam_decode(sentence, weights, beam_size=8, depth_bound=None,
                depth_measure=RAW, system=LEFT_CORNER, feature_set=FULL,
                relax_c=1):
    """Highest-scoring parse within the beam as a DepTree.

    ``sentence`` is a DepTree (gold heads ignored) or a (forms, tags) pair;
    ``weights`` maps ``feature>action`` to a weight; a key that names no
    feature of the system raises ValueError.  Equal scores break
    toward the lexicographically smaller action-name sequence, so zero
    weights give a deterministic parse.  When the depth bound kills every
    completion, the best partial state is repaired into a tree (headless
    tokens attach to the first root).

    Every call converts ``weights`` to a scoring table first: 13-25 ms on
    a 2-core machine for the 31,585 weights of the benchmark's
    ``supervised-lc`` model.  To decode many sentences, use
    ``decode_corpus``, which scores with the model's own table.
    """
    _check_beam(beam_size)
    sys_ = _system(system, feature_set)
    table = _table(zip(weights, weights.values(), repeat(None)), sys_)
    return _decode(sentence, sys_, table, beam_size, depth_bound,
                   depth_measure, relax_c)


# ---------------------------------------------------------------------------
# training


@dataclasses.dataclass
class ParserModel:
    """A trained parser; ``table`` holds the averaged weights and
    ``final_table`` the last ones, as scoring tables (see ``_table``)."""

    system: str
    feature_set: str
    beam_size: int
    table: list
    final_table: list
    n_updates: int
    snapshots: list = None

    def _sys(self):
        return _system(self.system, self.feature_set or FULL)

    @property
    def weights(self):
        """The averaged weights as a flat ``feature>action`` dict."""
        return _flat(self.table, self._sys())

    @property
    def final_weights(self):
        """The final weights as a flat ``feature>action`` dict."""
        return _flat(self.final_table, self._sys())


def _gold_path(sys_, tree, table, forms, tags):
    """Walk the oracle once, scoring each prefix; returns the list of
    (cumulative score, template keys of the step's configuration,
    action)."""
    ids = sys_.action_ids
    score = 0.0
    path = []
    for state, action, _ in oracle_steps(sys_, tree):
        keys = sys_.keys(state, forms, tags)
        score += _score(table, keys, (ids[action],))[0]
        path.append((score, keys, action))
    return path


def train_perceptron(corpus, system=LEFT_CORNER, feature_set=FULL, beam_size=8,
                     epochs=5, seed=0, keep_snapshots=False):
    """Max-violation structured perceptron with weight averaging.

    Training decodes without a depth bound.  For every sentence whose beam
    best differs from the gold action sequence, the update happens at the
    prefix length where the beam best outscores the gold prefix by the most.
    The returned weights are the arithmetic mean of the weight-vector
    snapshots taken after every sentence visit (every update opportunity),
    so once updates stop the mean converges toward the final vector.
    """
    _check_beam(beam_size)
    corpus = list(corpus)
    sys_ = _system(system, feature_set)
    ids = sys_.action_ids
    width = len(ids)
    templates = range(len(sys_.names))
    rng = random.Random(seed)
    # per template, key -> [weight per action id, then the lazily
    # accumulated sum of its snapshots per action id, then the visit at
    # which the current weight took effect per action id]
    table = [{} for _ in templates]
    visit = 0
    n_updates = 0
    snapshots = [] if keep_snapshots else None
    for _ in range(epochs):
        order = list(range(len(corpus)))
        rng.shuffle(order)
        for idx in order:
            visit += 1
            tree = corpus[idx]
            forms, tags = list(tree.forms), list(tree.tags)
            gold = _gold_path(sys_, tree, table, forms, tags)
            record = []
            best_final, _ = _beam_run(
                sys_, table, forms, tags, beam_size, None, RAW, record=record
            )
            gold_actions = [a for _, _, a in gold]
            horizon = min(len(gold), len(record))
            correct = best_final is not None and list(
                best_final.actions
            ) == gold_actions
            if not correct and horizon > 0:
                t_star = max(
                    range(horizon),
                    key=lambda t: (record[t].score - gold[t][0], t),
                )
                # both paths take t_star + 1 steps; up to their first
                # differing action they pass the same configurations, whose
                # features cancel, so the update starts there
                beam_path = record[t_star].path_keys()
                start = 0
                while start <= t_star and beam_path[start][1] == gold[start][2]:
                    start += 1
                # keys spelling one feature may stand apart here; they
                # update one row, so the weights come out the same
                delta = {}
                for _, keys, action in gold[start: t_star + 1]:
                    for k in zip(templates, keys, repeat(action)):
                        delta[k] = delta.get(k, 0) + 1
                for keys, action in beam_path[start:]:
                    for k in zip(templates, keys, repeat(action)):
                        delta[k] = delta.get(k, 0) - 1
                for (t, key, action), d in delta.items():
                    if d == 0:
                        continue
                    rows = table[t]
                    row = rows.get(key)
                    if row is None:
                        row = [0.0] * (2 * width) + [0] * width
                        for alias in _aliases(key):
                            rows[alias] = row
                    j = ids[action]
                    old = row[j]
                    row[width + j] += old * (visit - row[2 * width + j])
                    row[2 * width + j] = visit
                    row[j] = old + d
                n_updates += 1
            if snapshots is not None:
                snapshots.append(_flat(table, sys_))
    # the averaged and the final tables; training rows are dropped as they
    # are read, so the training table and the model's do not peak together
    averaged, final = [], []
    for rows in table:
        avg_rows, final_rows = {}, {}
        averaged.append(avg_rows)
        final.append(final_rows)
        while rows:
            key, row = rows.popitem()
            ws = row[:width]
            totals = [
                total + w * (visit - last + 1) if w else total
                for w, total, last in zip(ws, row[width:], row[2 * width:])
            ]
            if any(totals):
                avg_rows[key] = [
                    total / visit if total else 0.0 for total in totals]
            if any(ws):
                final_rows[key] = ws
    return ParserModel(
        system=system,
        feature_set=feature_set if system == LEFT_CORNER else "",
        beam_size=beam_size,
        table=averaged,
        final_table=final,
        n_updates=n_updates,
        snapshots=snapshots,
    )


def decode_corpus(corpus, model, beam_size=None, depth_bound=None,
                  depth_measure=RAW, relax_c=1, jobs=1):
    """Parse every sentence with the trained model, at the model's beam
    unless ``beam_size`` is given; parallel over sentences when jobs > 1
    (decoding is read-only).  Workers receive the model's scoring table
    once, then take sentences one at a time as they free up."""
    corpus = list(corpus)
    if beam_size is None:
        beam_size = model.beam_size
    _check_beam(beam_size)
    setting = (model._sys(), model.table, beam_size, depth_bound,
               depth_measure, relax_c)
    if jobs <= 1 or len(corpus) < 2 * jobs:
        return [_decode(tree, *setting) for tree in corpus]
    # imported here: no other path of the program loads concurrent.futures
    from concurrent import futures
    with futures.ProcessPoolExecutor(
        max_workers=jobs, initializer=_set_worker_setting, initargs=(setting,)
    ) as pool:
        return list(pool.map(_decode_in_worker, corpus))


# decoding setting of a worker process, set once by its initializer
_worker_setting = None


def _set_worker_setting(setting):
    global _worker_setting
    _worker_setting = setting


def _decode_in_worker(tree):
    return _decode(tree, *_worker_setting)


# ---------------------------------------------------------------------------
# model files (same layout as the grammar-induction model file)


def parser_to_lines(model):
    lines = ["# perceptron-parser v1"]
    lines.append("# system: %s" % model.system)
    lines.append("# feature-set: %s" % (model.feature_set or "-"))
    lines.append("# beam: %d" % model.beam_size)
    weights = model.weights
    for key in sorted(weights):
        lines.append("%s\t%.17g" % (key, weights[key]))
    return lines


def parser_from_lines(lines):
    system = LEFT_CORNER
    feature_set = FULL
    beam = 8
    weights = {}  # feature>action -> (weight, line number)
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            val = line.split(":", 1)[-1].strip()
            if line.startswith("# system:"):
                if val not in SYSTEMS:
                    raise ValueError("model line %d names an unknown system: "
                                     "%r" % (lineno, line))
                system = val
            elif line.startswith("# feature-set:"):
                if val != "-" and val not in _TEMPLATES:
                    raise ValueError("model line %d names an unknown feature "
                                     "set: %r" % (lineno, line))
                feature_set = val if val != "-" else ""
            elif line.startswith("# beam:"):
                try:
                    beam = int(val)
                except ValueError:
                    raise ValueError("model line %d has a beam size that is "
                                     "not an integer: %r"
                                     % (lineno, line)) from None
            continue
        key, tab, w = line.rpartition("\t")
        if not tab:
            raise ValueError("model line %d has no tab: %r" % (lineno, line))
        try:
            weights[key] = (float(w), lineno)
        except ValueError:
            raise ValueError("model line %d has a weight that is not a "
                             "number: %r" % (lineno, line)) from None
    table = _table(((key, w, lineno) for key, (w, lineno) in weights.items()),
                   _system(system, feature_set or FULL))
    return ParserModel(
        system=system,
        feature_set=feature_set,
        beam_size=beam,
        table=table,
        final_table=table,
        n_updates=0,
    )
