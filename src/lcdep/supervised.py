"""Supervised transition-based parsing.

Structured perceptron (max-violation updates, averaged weights) over beam
search for three transition systems: the dummy-node left-corner system (with
a full and a lookahead-limited feature set), arc-standard, and arc-eager.
Decoding can bound the stack depth, either on every configuration ("raw") or
only after reduce actions ("depthRe", which tolerates the transient element
a shift pushes).
"""

import dataclasses
import random
from concurrent import futures
from itertools import repeat
from operator import itemgetter

from .transition import (
    ARC_EAGER,
    ARC_STANDARD,
    LC_ACTIONS,
    LC_REDUCE_ACTIONS,
    LEFT_CORNER,
    SHIFT,
    TransitionError,
    ae_depth,
    initial_config,
    lc_apply,
    postprocess_terminal,
    run_ae_oracle,
    run_as_oracle,
    run_lc_oracle,
    valid_lc_actions,
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


def _getters(templates):
    """(prefix, getter) per template; the getter picks the template's slot
    values as a sequence, ready for "|".join."""
    out = []
    for idx, template in enumerate(templates):
        slots = [_SLOT[c] for c in template]
        getter = (itemgetter(*slots) if len(slots) > 1
                  else itemgetter(slice(slots[0], slots[0] + 1)))
        out.append(("%d=" % idx, getter))
    return tuple(out)


_GETTERS = {fs: _getters(t) for fs, t in _TEMPLATES.items()}


def _put(vals, at, toks, forms, tags):
    """Write the form and tag of each token into consecutive slot pairs."""
    for tok in toks:
        vals[at] = forms[tok - 1]
        vals[at + 1] = tags[tok - 1]
        at += 2


def extract_lc_features(config, forms, tags, feature_set=FULL):
    """Feature strings (action not yet conjoined) for one configuration.

    Absent addresses and roles contribute a NULL placeholder rather than
    suppressing the template.
    """
    getters = _for_feature_set(_GETTERS, feature_set)
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
    return [prefix + "|".join(get(vals)) for prefix, get in getters]


# ---------------------------------------------------------------------------
# transition systems behind one decoding interface


def _action_ids(actions):
    return {a: i for i, a in enumerate(actions)}


class _LcSystem:
    name = LEFT_CORNER
    action_ids = _action_ids(LC_ACTIONS)

    def __init__(self, feature_set=FULL):
        self.feature_set = feature_set

    def initial(self, n):
        return initial_config(n)

    def valid(self, state):
        return valid_lc_actions(state)

    def apply(self, state, action):
        return lc_apply(state, action)

    def is_terminal(self, state):
        return state.is_terminal

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

    def features(self, state, forms, tags):
        return extract_lc_features(state, forms, tags, self.feature_set)

    def gold_actions(self, tree):
        return [s.action for s in run_lc_oracle(tree).steps]

    def read_heads(self, state, n):
        return postprocess_terminal(state)


@dataclasses.dataclass(frozen=True)
class _FlatState:
    """Stack-of-tokens state shared by arc-standard and arc-eager."""

    stack: tuple
    front: int
    n: int
    arcs: frozenset
    attached: frozenset = frozenset()


def _flat_children(state, tok):
    return sorted(d for h, d in state.arcs if h == tok)


def _flat_wt(tok, forms, tags):
    if tok is None or not (1 <= tok <= len(forms)):
        return NULL, NULL
    return forms[tok - 1], tags[tok - 1]


class _AsSystem:
    name = ARC_STANDARD
    action_ids = _action_ids((SHIFT, "leftArc", "rightArc"))

    def initial(self, n):
        return _FlatState(stack=(), front=1, n=n, arcs=frozenset())

    def valid(self, state):
        out = []
        if state.front <= state.n:
            out.append(SHIFT)
        if len(state.stack) >= 2:
            out.append("leftArc")
            out.append("rightArc")
        return out

    def apply(self, state, action):
        if action == SHIFT:
            return dataclasses.replace(
                state, stack=state.stack + (state.front,), front=state.front + 1
            )
        if action == "leftArc":  # second-from-top depends on top
            dep, head = state.stack[-2], state.stack[-1]
        elif action == "rightArc":
            dep, head = state.stack[-1], state.stack[-2]
        else:
            raise TransitionError("unknown action %r" % action)
        stack = tuple(t for t in state.stack if t != dep)
        return dataclasses.replace(
            state, stack=stack, arcs=state.arcs | {(head, dep)}
        )

    def is_terminal(self, state):
        return state.front > state.n and len(state.stack) <= 1

    def depth_ok(self, state, action, bound, measure, relax_c=1):
        return bound is None or len(state.stack) <= bound

    def features(self, state, forms, tags):
        s0 = state.stack[-1] if len(state.stack) >= 1 else None
        s1 = state.stack[-2] if len(state.stack) >= 2 else None
        q = [
            state.front + k if state.front + k <= state.n else None
            for k in range(3)
        ]
        s0w, s0t = _flat_wt(s0, forms, tags)
        s1w, s1t = _flat_wt(s1, forms, tags)
        q0w, q0t = _flat_wt(q[0], forms, tags)
        _, q1t = _flat_wt(q[1], forms, tags)
        _, q2t = _flat_wt(q[2], forms, tags)

        def side_tags(tok):
            kids = _flat_children(state, tok) if tok else []
            lt = tags[kids[0] - 1] if kids else NULL
            rt = tags[kids[-1] - 1] if kids else NULL
            return lt, rt

        s0lt, s0rt = side_tags(s0)
        s1lt, s1rt = side_tags(s1)
        pieces = [
            ("s0w", s0w), ("s0t", s0t), ("s0wt", s0w + "|" + s0t),
            ("s1w", s1w), ("s1t", s1t), ("s1wt", s1w + "|" + s1t),
            ("q0w", q0w), ("q0t", q0t), ("q0wt", q0w + "|" + q0t),
            ("s1w_s0w", s1w + "|" + s0w), ("s1t_s0t", s1t + "|" + s0t),
            ("s0t_q0t", s0t + "|" + q0t),
            ("s1t_s0t_q0t", "|".join((s1t, s0t, q0t))),
            ("s1t_s0t_s0lt", "|".join((s1t, s0t, s0lt))),
            ("s1t_s0t_s0rt", "|".join((s1t, s0t, s0rt))),
            ("s1t_s1lt_s0t", "|".join((s1t, s1lt, s0t))),
            ("s1t_s1rt_s0t", "|".join((s1t, s1rt, s0t))),
            ("s0t_q0t_q1t", "|".join((s0t, q0t, q1t))),
            ("q0t_q1t_q2t", "|".join((q0t, q1t, q2t))),
        ]
        return ["%s=%s" % kv for kv in pieces]

    def gold_actions(self, tree):
        return [s.action for s in run_as_oracle(tree).steps]

    def read_heads(self, state, n):
        heads = {d: h for h, d in state.arcs}
        return tuple(heads.get(t, 0) for t in range(1, n + 1))


class _AeSystem:
    name = ARC_EAGER
    action_ids = _action_ids((SHIFT, "leftArc", "rightArc", "reduce"))

    def initial(self, n):
        return _FlatState(stack=(), front=1, n=n, arcs=frozenset())

    def valid(self, state):
        out = []
        s0 = state.stack[-1] if state.stack else None
        if state.front <= state.n:
            out.append(SHIFT)
            if s0 is not None:
                out.append("rightArc")
                if s0 not in state.attached:
                    out.append("leftArc")
        if s0 is not None and s0 in state.attached:
            out.append("reduce")
        return out

    def apply(self, state, action):
        if action == SHIFT:
            return dataclasses.replace(
                state, stack=state.stack + (state.front,), front=state.front + 1
            )
        if action == "leftArc":
            dep = state.stack[-1]
            return dataclasses.replace(
                state,
                stack=state.stack[:-1],
                arcs=state.arcs | {(state.front, dep)},
                attached=state.attached | {dep},
            )
        if action == "rightArc":
            dep = state.front
            return dataclasses.replace(
                state,
                stack=state.stack + (dep,),
                front=state.front + 1,
                arcs=state.arcs | {(state.stack[-1], dep)},
                attached=state.attached | {dep},
            )
        if action == "reduce":
            return dataclasses.replace(state, stack=state.stack[:-1])
        raise TransitionError("unknown action %r" % action)

    def is_terminal(self, state):
        return state.front > state.n

    def depth_ok(self, state, action, bound, measure, relax_c=1):
        return bound is None or ae_depth(
            state.stack, state.attached, state.arcs, state.front, state.n
        ) <= bound

    def features(self, state, forms, tags):
        s0 = state.stack[-1] if state.stack else None
        q = [
            state.front + k if state.front + k <= state.n else None
            for k in range(3)
        ]
        s0w, s0t = _flat_wt(s0, forms, tags)
        q0w, q0t = _flat_wt(q[0], forms, tags)
        q1w, q1t = _flat_wt(q[1], forms, tags)
        _, q2t = _flat_wt(q[2], forms, tags)
        heads = {d: h for h, d in state.arcs}
        s0h = heads.get(s0) if s0 else None
        _, s0ht = _flat_wt(s0h, forms, tags)
        s0kids = _flat_children(state, s0) if s0 else []
        s0lt = tags[s0kids[0] - 1] if s0kids else NULL
        s0rt = tags[s0kids[-1] - 1] if s0kids else NULL
        q0kids = _flat_children(state, q[0]) if q[0] else []
        q0lt = tags[q0kids[0] - 1] if q0kids else NULL
        pieces = [
            ("s0w", s0w), ("s0t", s0t), ("s0wt", s0w + "|" + s0t),
            ("q0w", q0w), ("q0t", q0t), ("q0wt", q0w + "|" + q0t),
            ("q1w", q1w), ("q1t", q1t), ("q2t", q2t),
            ("s0w_q0w", s0w + "|" + q0w), ("s0t_q0t", s0t + "|" + q0t),
            ("s0w_q0t", s0w + "|" + q0t), ("s0t_q0w", s0t + "|" + q0w),
            ("q0t_q1t", q0t + "|" + q1t),
            ("q0t_q1t_q2t", "|".join((q0t, q1t, q2t))),
            ("s0t_q0t_q1t", "|".join((s0t, q0t, q1t))),
            ("s0ht_s0t", s0ht + "|" + s0t),
            ("s0t_s0lt", s0t + "|" + s0lt), ("s0t_s0rt", s0t + "|" + s0rt),
            ("q0t_q0lt", q0t + "|" + q0lt),
        ]
        return ["%s=%s" % kv for kv in pieces]

    def gold_actions(self, tree):
        return [s.action for s in run_ae_oracle(tree).steps]

    def read_heads(self, state, n):
        heads = {d: h for h, d in state.arcs}
        return tuple(heads.get(t, 0) for t in range(1, n + 1))


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
    feats: list = ()  # features of the parent's configuration

    def path_features(self):
        """(features, action) of every step on the path to this state, in
        order."""
        out = []
        node = self
        while node.parent is not None:
            out.append((node.feats, node.actions[-1]))
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


# Weights are kept as a scoring table: feature -> list of weights indexed by
# the system's action ids, so one lookup per feature serves every action.
# Model files and ParserModel hold the flat "feature>action" form.


def _table(weights, action_ids):
    """Scoring table of a flat ``feature>action -> weight`` dict; keys whose
    action the system lacks can never score and are left out."""
    table = {}
    width = len(action_ids)
    split = map(str.rpartition, weights, repeat(">"))
    for (feat, sep, action), w in zip(split, weights.values()):
        aid = action_ids.get(action)
        if sep and aid is not None:
            row = table.get(feat)
            if row is None:
                row = table[feat] = [0.0] * width
            row[aid] = w
    return table


def _score(table, feats, actions):
    """Score of each action id in ``actions`` for one configuration.

    ``table`` maps a feature to a row that starts with its weights by
    action id.  Each sum runs over the features in template order with the
    builtin sum, so it equals, bit for bit, the sum of
    ``weights.get(f + ">" + action, 0.0)`` over the flat weights: the
    entries left out would only add zeros.
    """
    rows = [row for row in map(table.get, feats) if row is not None]
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
            feats = sys_.features(st.state, forms, tags)
            base.append(feats)
            valid = sys_.valid(st.state)
            scores = _score(table, feats, [ids[a] for a in valid])
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
    ``weights`` maps ``feature>action`` to a weight.  Equal scores break
    toward the lexicographically smaller action-name sequence, so zero
    weights give a deterministic parse.  When the depth bound kills every
    completion, the best partial state is repaired into a tree (headless
    tokens attach to the first root).
    """
    _check_beam(beam_size)
    sys_ = _system(system, feature_set)
    return _decode(sentence, sys_, _table(weights, sys_.action_ids),
                   beam_size, depth_bound, depth_measure, relax_c)


# ---------------------------------------------------------------------------
# training


@dataclasses.dataclass
class ParserModel:
    system: str
    feature_set: str
    beam_size: int
    weights: dict          # averaged
    final_weights: dict
    n_updates: int
    snapshots: list = None


def _gold_path(sys_, tree, table, forms, tags):
    """Replay the oracle actions, scoring each prefix; returns the list of
    (cumulative score, features of the step's configuration, action)."""
    ids = sys_.action_ids
    state = sys_.initial(tree.n)
    score = 0.0
    path = []
    for action in sys_.gold_actions(tree):
        base = sys_.features(state, forms, tags)
        score += _score(table, base, (ids[action],))[0]
        path.append((score, base, action))
        state = sys_.apply(state, action)
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
    rng = random.Random(seed)
    # feature -> [weight per action id, then the lazily accumulated sum of
    # its snapshots per action id, then the visit at which the current
    # weight took effect per action id]
    table = {}
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
                beam_path = record[t_star].path_features()
                start = 0
                while start <= t_star and beam_path[start][1] == gold[start][2]:
                    start += 1
                delta = {}
                for _, fs, action in gold[start: t_star + 1]:
                    for f in fs:
                        delta[f, action] = delta.get((f, action), 0) + 1
                for fs, action in beam_path[start:]:
                    for f in fs:
                        delta[f, action] = delta.get((f, action), 0) - 1
                for (f, action), d in delta.items():
                    if d == 0:
                        continue
                    row = table.get(f)
                    if row is None:
                        row = table[f] = [0.0] * (2 * width) + [0] * width
                    j = ids[action]
                    old = row[j]
                    row[width + j] += old * (visit - row[2 * width + j])
                    row[2 * width + j] = visit
                    row[j] = old + d
                n_updates += 1
            if snapshots is not None:
                snapshots.append({
                    f + ">" + a: row[j]
                    for f, row in table.items() for a, j in ids.items()
                    if row[j]
                })
    # the flat "feature>action" dicts, sharing one key string per entry;
    # rows are dropped as they are read, so the table and the dicts do
    # not peak together
    weights, averaged = {}, {}
    while table:
        f, row = table.popitem()
        for action, j in ids.items():
            w, total = row[j], row[width + j]
            if w:
                total += w * (visit - row[2 * width + j] + 1)
            if not (w or total):
                continue
            key = f + ">" + action
            if w:
                weights[key] = w
            if total:
                averaged[key] = total / visit
    return ParserModel(
        system=system,
        feature_set=feature_set if system == LEFT_CORNER else "",
        beam_size=beam_size,
        weights=averaged,
        final_weights=weights,
        n_updates=n_updates,
        snapshots=snapshots,
    )


def decode_corpus(corpus, model, beam_size=None, depth_bound=None,
                  depth_measure=RAW, relax_c=1, jobs=1):
    """Parse every sentence with the trained model; parallel over sentences
    when jobs > 1 (decoding is read-only).  Workers receive the scoring
    table once, then take sentences one at a time as they free up."""
    corpus = list(corpus)
    beam_size = beam_size or model.beam_size
    _check_beam(beam_size)
    sys_ = _system(model.system, model.feature_set or FULL)
    setting = (sys_, _table(model.weights, sys_.action_ids), beam_size,
               depth_bound, depth_measure, relax_c)
    if jobs <= 1 or len(corpus) < 2 * jobs:
        return [_decode(tree, *setting) for tree in corpus]
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
    for key in sorted(model.weights):
        lines.append("%s\t%.17g" % (key, model.weights[key]))
    return lines


def parser_from_lines(lines):
    system = LEFT_CORNER
    feature_set = FULL
    beam = 8
    weights = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# system:"):
                system = line.split(":", 1)[1].strip()
            elif line.startswith("# feature-set:"):
                val = line.split(":", 1)[1].strip()
                feature_set = val if val != "-" else ""
            elif line.startswith("# beam:"):
                beam = int(line.split(":", 1)[1])
            continue
        key, tab, w = line.rpartition("\t")
        if not tab:
            raise ValueError("model line %d has no tab: %r" % (lineno, line))
        try:
            weights[key] = float(w)
        except ValueError:
            raise ValueError("model line %d has a weight that is not a "
                             "number: %r" % (lineno, line)) from None
    return ParserModel(
        system=system,
        feature_set=feature_set,
        beam_size=beam,
        weights=weights,
        final_weights=dict(weights),
        n_updates=0,
    )
