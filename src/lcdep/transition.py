"""Transition systems for projective dependency parsing with stack-depth
instrumentation.

The left-corner system builds trees with six actions over stacks of right
spines whose unrealized heads are dummy nodes.  Arc-standard and arc-eager
are the reference points for the depth analyses and the supervised parser.
Each system is defined once, here: its configurations, valid actions,
apply, terminal test, deterministic oracle and depth.  One replay loop runs
every oracle over a gold tree and records the stack depth after every
action; the supervised parser's beam runs the same definitions.
"""

from dataclasses import dataclass

from lcdep.treebank import DepTree

SHIFT = "shift"
INSERT = "insert"
LEFT_PRED = "leftPred"
RIGHT_PRED = "rightPred"
LEFT_COMP = "leftComp"
RIGHT_COMP = "rightComp"
LEFT_ARC = "leftArc"
RIGHT_ARC = "rightArc"
REDUCE = "reduce"

LC_SHIFT_ACTIONS = (SHIFT, INSERT)
LC_REDUCE_ACTIONS = (LEFT_PRED, RIGHT_PRED, LEFT_COMP, RIGHT_COMP)
LC_ACTIONS = LC_SHIFT_ACTIONS + LC_REDUCE_ACTIONS

LEFT_CORNER = "leftCorner"
ARC_STANDARD = "arcStandard"
ARC_EAGER = "arcEager"
SYSTEMS = (LEFT_CORNER, ARC_STANDARD, ARC_EAGER)


class TransitionError(Exception):
    """An action was applied to a configuration that does not license it."""


@dataclass(frozen=True)
class Dummy:
    """Placeholder for a not-yet-seen head.

    ``left`` holds the indices of dependents already attached below the
    placeholder, in the left-to-right order they were collected.
    """

    left: tuple = ()


@dataclass(frozen=True)
class Spine:
    """Right spine of a stack element: realized nodes, then an optional dummy.

    ``nodes[0]`` is the root of the subtree the element represents; each later
    node is a right dependent of its predecessor.  An element is complete when
    it has no trailing dummy.
    """

    nodes: tuple = ()
    dummy: Dummy = None

    @property
    def is_complete(self):
        return self.dummy is None

    @property
    def head(self):
        """Root token of the element, or None for a bare unrealized head."""
        return self.nodes[0] if self.nodes else None

    def render(self):
        parts = [str(t) for t in self.nodes]
        if self.dummy is not None:
            inner = ",".join(str(t) for t in self.dummy.left)
            parts.append("x({%s})" % inner)
        return "<" + ",".join(parts) + ">"


@dataclass(frozen=True)
class Configuration:
    """Parser state: stack of spines, next buffer position, emitted arcs.

    ``starts`` records the leftmost token of each stack element (elements
    cover disjoint contiguous spans, in stack order); it is what the relaxed
    depth measure needs to know the size of the top element.
    """

    spines: tuple = ()
    buffer_pos: int = 1
    n: int = 0
    arcs: frozenset = frozenset()
    starts: tuple = ()

    @property
    def stack_depth(self):
        return len(self.spines)

    @property
    def buffer_empty(self):
        return self.buffer_pos > self.n

    @property
    def is_terminal(self):
        """Every token is read and one complete element is left; the
        initial configuration of an empty sentence is terminal too."""
        return self.buffer_empty and (
            self.n == 0
            or (len(self.spines) == 1 and self.spines[0].is_complete))

    def top_element_size(self):
        """Token count of the top element, counting a dummy slot as one."""
        if not self.spines:
            return 0
        real = self.buffer_pos - self.starts[-1]
        return real + (0 if self.spines[-1].is_complete else 1)

    def render_stack(self):
        return "".join(s.render() for s in self.spines) or "[]"


def initial_config(n):
    return Configuration(spines=(), buffer_pos=1, n=n, arcs=frozenset(), starts=())


def _require(cond, action, reason):
    if not cond:
        raise TransitionError("%s: %s" % (action, reason))


def valid_lc_actions(config):
    """Actions whose preconditions hold in ``config``."""
    out = []
    top = config.spines[-1] if config.spines else None
    shift_phase = top is None or not top.is_complete
    if shift_phase and not config.buffer_empty:
        out.append(SHIFT)
        if top is not None:
            out.append(INSERT)
    if top is not None and top.is_complete:
        out.append(LEFT_PRED)
        out.append(RIGHT_PRED)
        if len(config.spines) >= 2 and not config.spines[-2].is_complete:
            out.append(LEFT_COMP)
            out.append(RIGHT_COMP)
    return out


def lc_apply(config, action):
    """Apply one left-corner action, checking its preconditions.

    Only insert and rightComp add arcs; every other action shares the arc
    set of ``config``.
    """
    spines, beta, arcs, starts = (
        config.spines,
        config.buffer_pos,
        config.arcs,
        config.starts,
    )
    top = spines[-1] if spines else None

    if action in LC_SHIFT_ACTIONS:
        _require(not config.buffer_empty, action, "buffer is empty")
        _require(
            top is None or not top.is_complete,
            action,
            "top of stack must be incomplete (or the stack empty)",
        )
        j = beta
        if action == SHIFT:
            spines = spines + (Spine(nodes=(j,)),)
            starts = starts + (j,)
        else:
            _require(top is not None, action, "needs a dummy node to fill")
            added = [(j, k) for k in top.dummy.left]
            if top.nodes:
                added.append((top.nodes[-1], j))
            arcs = arcs.union(added)
            spines = spines[:-1] + (Spine(nodes=top.nodes + (j,)),)
        beta += 1
    elif action in LC_REDUCE_ACTIONS:
        _require(top is not None, action, "stack is empty")
        _require(top.is_complete, action, "top of stack must be complete")
        if action == LEFT_PRED:
            spines = spines[:-1] + (Spine(dummy=Dummy((top.head,))),)
        elif action == RIGHT_PRED:
            spines = spines[:-1] + (Spine(nodes=(top.head,), dummy=Dummy()),)
        else:
            _require(len(spines) >= 2, action, "needs two stack elements")
            second = spines[-2]
            _require(
                not second.is_complete,
                action,
                "second stack element must end with a dummy node",
            )
            if action == LEFT_COMP:
                merged = Spine(
                    nodes=second.nodes,
                    dummy=Dummy(second.dummy.left + (top.head,)),
                )
            else:
                added = [(top.head, k) for k in second.dummy.left]
                if second.nodes:
                    added.append((second.nodes[-1], top.head))
                arcs = arcs.union(added)
                merged = Spine(nodes=second.nodes + (top.head,), dummy=Dummy())
            spines = spines[:-2] + (merged,)
            starts = starts[:-1]
    else:
        raise TransitionError("unknown action: %r" % (action,))

    return Configuration(
        spines=spines,
        buffer_pos=beta,
        n=config.n,
        arcs=arcs,
        starts=starts,
    )


class _Gold:
    """Gold-arc lookups shared by the oracles."""

    def __init__(self, tree):
        self.heads = tree.heads
        self.deps = [[] for _ in range(tree.n + 1)]
        for tok in tree.tokens:
            if tok.head != 0:
                self.deps[tok.head].append(tok.index)
        for ds in self.deps:
            ds.sort()
        self.arcs = tree.arcs

    def head(self, t):
        return self.heads[t - 1]

    def remaining_deps(self, t, beta):
        """Dependents of ``t`` not yet read (positions >= beta)."""
        return [d for d in self.deps[t] if d >= beta]

    def next_dep(self, t, beta):
        rem = self.remaining_deps(t, beta)
        return rem[0] if rem else None

    def done(self, t, attached):
        """Whether every dependent of ``t`` is in ``attached``."""
        return all(d in attached for d in self.deps[t])


def lc_oracle(config, gold):
    """Return the action recovering ``gold`` from ``config``.

    The shift phase prefers Insert over Shift; the reduce phase prefers
    compositions over predictions.  ``gold`` is a ``_Gold`` index or a
    ``DepTree``.
    """
    if isinstance(gold, DepTree):
        gold = _Gold(gold)
    beta = config.buffer_pos
    top = config.spines[-1] if config.spines else None

    if top is None or not top.is_complete:
        if config.buffer_empty:
            raise TransitionError("oracle: shift phase with an empty buffer")
        j = beta
        if top is not None:
            i = top.nodes[-1] if top.nodes else None
            lam = top.dummy.left
            if i is not None:
                if (i, j) in gold.arcs and not gold.remaining_deps(j, j + 1):
                    return INSERT
            elif any((j, k) in gold.arcs for k in lam):
                return INSERT
        return SHIFT

    head = top.head
    second = config.spines[-2] if len(config.spines) >= 2 else None
    if second is not None and not second.is_complete:
        i = second.nodes[-1] if second.nodes else None
        lam = second.dummy.left
        no_pending = not gold.remaining_deps(head, beta)
        gold_head = gold.head(head)
        if i is not None:
            if no_pending and gold.next_dep(i, beta) == gold_head:
                return LEFT_COMP
            if len(gold.remaining_deps(head, beta)) == 1 and (i, head) in gold.arcs:
                return RIGHT_COMP
        else:
            if no_pending and gold_head != 0 and any(
                gold.head(k) == gold_head for k in lam
            ):
                return LEFT_COMP
            if gold.remaining_deps(head, beta) and any(
                (head, k) in gold.arcs for k in lam
            ):
                return RIGHT_COMP
    if gold.remaining_deps(head, beta):
        return RIGHT_PRED
    return LEFT_PRED


@dataclass(frozen=True)
class FlatConfig:
    """Arc-standard and arc-eager configuration: a stack of tokens, the next
    buffer position, the arcs built so far and the tokens they attach."""

    stack: tuple = ()
    front: int = 1
    n: int = 0
    arcs: frozenset = frozenset()
    attached: frozenset = frozenset()

    @property
    def buffer_empty(self):
        return self.front > self.n

    def shifted(self):
        return FlatConfig(self.stack + (self.front,), self.front + 1, self.n,
                          self.arcs, self.attached)


class TransitionSystem:
    """One transition system, used by both the oracle replay and the beam of
    the supervised parser.

    A system gives the initial configuration of an n-token sentence
    (``initial``), the actions a configuration licenses (``valid``), their
    application (``apply``), where a parse ends (``is_terminal``), the gold
    action in a configuration (``oracle``, None once the replay is over) and
    the stack depth that the analyses and the depth bounds measure
    (``depth``).  Steps taking one of ``shift_actions`` belong to the shift
    phase, the others to the reduce phase.
    """

    name = None
    actions = ()
    shift_actions = ()

    def top_size(self, config):
        """Size of the top stack element; None where the system does not
        track element extents."""
        return None


class LeftCorner(TransitionSystem):
    name = LEFT_CORNER
    actions = LC_ACTIONS
    shift_actions = LC_SHIFT_ACTIONS

    def initial(self, n):
        return initial_config(n)

    def valid(self, config):
        return valid_lc_actions(config)

    def apply(self, config, action):
        return lc_apply(config, action)

    def is_terminal(self, config):
        return config.is_terminal

    def oracle(self, config, gold):
        return None if config.is_terminal else lc_oracle(config, gold)

    def depth(self, config):
        return config.stack_depth

    def top_size(self, config):
        return config.top_element_size()


class ArcStandard(TransitionSystem):
    """Arcs join the two topmost stack tokens; the depth is the stack size."""

    name = ARC_STANDARD
    actions = (SHIFT, LEFT_ARC, RIGHT_ARC)
    shift_actions = (SHIFT,)

    def initial(self, n):
        return FlatConfig(n=n)

    def valid(self, config):
        out = [] if config.buffer_empty else [SHIFT]
        if len(config.stack) >= 2:
            out += (LEFT_ARC, RIGHT_ARC)
        return out

    def apply(self, config, action):
        _require(action in self.valid(config), action,
                 "not valid in this configuration")
        if action == SHIFT:
            return config.shifted()
        *rest, s1, s0 = config.stack
        # leftArc: the second-from-top token depends on the top one
        head, dep = (s0, s1) if action == LEFT_ARC else (s1, s0)
        return FlatConfig(tuple(rest) + (head,), config.front, config.n,
                          config.arcs | {(head, dep)},
                          config.attached | {dep})

    def is_terminal(self, config):
        return config.buffer_empty and len(config.stack) <= 1

    def oracle(self, config, gold):
        """Attach a token as soon as it has collected all its dependents."""
        stack, attached = config.stack, config.attached
        if len(stack) >= 2:
            s1, s0 = stack[-2], stack[-1]
            if gold.head(s1) == s0 and gold.done(s1, attached):
                return LEFT_ARC
            if gold.head(s0) == s1 and gold.done(s0, attached):
                return RIGHT_ARC
        if not config.buffer_empty:
            return SHIFT
        if len(stack) <= 1:
            return None
        raise TransitionError("arc-standard oracle is stuck")

    def depth(self, config):
        return len(config.stack)


class ArcEager(TransitionSystem):
    """Arcs join the stack top and the buffer front; a token with a head
    stays on the stack until ``reduce`` pops it.  The depth counts connected
    components.

    A parse ends when the buffer is empty, but the oracle replay goes on:
    it pops the tokens that have a head and are left on the stack, which
    the parser never does.
    """

    name = ARC_EAGER
    actions = (SHIFT, LEFT_ARC, RIGHT_ARC, REDUCE)
    shift_actions = (SHIFT, RIGHT_ARC)

    def initial(self, n):
        return FlatConfig(n=n)

    def valid(self, config):
        out = []
        s0 = config.stack[-1] if config.stack else None
        if not config.buffer_empty:
            out.append(SHIFT)
            if s0 is not None:
                out.append(RIGHT_ARC)
                if s0 not in config.attached:
                    out.append(LEFT_ARC)
        if s0 is not None and s0 in config.attached:
            out.append(REDUCE)
        return out

    def apply(self, config, action):
        _require(action in self.valid(config), action,
                 "not valid in this configuration")
        if action == SHIFT:
            return config.shifted()
        stack, front, n = config.stack, config.front, config.n
        if action == REDUCE:
            return FlatConfig(stack[:-1], front, n, config.arcs,
                              config.attached)
        if action == LEFT_ARC:
            return FlatConfig(stack[:-1], front, n,
                              config.arcs | {(front, stack[-1])},
                              config.attached | {stack[-1]})
        return FlatConfig(stack + (front,), front + 1, n,
                          config.arcs | {(stack[-1], front)},
                          config.attached | {front})

    def is_terminal(self, config):
        return config.buffer_empty

    def oracle(self, config, gold):
        """Attach as early as possible and pop a token with a head once it
        has all its dependents; None when no action remains."""
        stack, attached = config.stack, config.attached
        s0 = stack[-1] if stack else None
        if s0 is not None and not config.buffer_empty:
            front = config.front
            if (s0 not in attached and gold.head(s0) == front
                    and gold.done(s0, attached)):
                return LEFT_ARC
            if gold.head(front) == s0:
                return RIGHT_ARC
        if s0 is not None and s0 in attached and gold.done(s0, attached):
            return REDUCE
        return None if config.buffer_empty else SHIFT

    def depth(self, config):
        """The stack tokens without a head, plus one when the token at the
        front of the buffer has already collected a dependent (a subtree
        forming in the buffer)."""
        d = sum(1 for t in config.stack if t not in config.attached)
        if not config.buffer_empty and any(
                h == config.front for h, _ in config.arcs):
            d += 1
        return d


@dataclass(frozen=True)
class TraceStep:
    """One applied action: resulting depth and the phase it belongs to.

    ``top_size`` is the post-action size of the top stack element (dummy slot
    included); it is None for systems that do not track element extents.
    """

    action: str
    depth: int
    phase: str
    top_size: int = None


@dataclass(frozen=True)
class OracleTrace:
    system: str
    steps: tuple
    arcs: frozenset
    final_config: object = None

    @property
    def n_actions(self):
        return len(self.steps)


def format_trace(trace):
    """Render a trace as tab-separated ``step action depth phase`` lines."""
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        lines.append("%d\t%s\t%d\t%s" % (i, step.action, step.depth, step.phase))
    return "\n".join(lines)


def oracle_steps(system, tree):
    """Walk the oracle of ``system`` over ``tree`` once, yielding
    (configuration, gold action, next configuration) for every step.
    Raises TransitionError when the oracle does not terminate or, after its
    last step, when the arcs it built are not the tree's."""
    gold = _Gold(tree)
    config = system.initial(tree.n)
    limit = 4 * tree.n + 4  # actions; a projective tree needs at most 2n
    for _ in range(limit + 1):
        action = system.oracle(config, gold)
        if action is None:
            break
        nxt = system.apply(config, action)
        yield config, action, nxt
        config = nxt
    else:
        raise TransitionError(
            "oracle failed to terminate; is the tree projective?")
    if config.arcs != gold.arcs:
        raise TransitionError("%s oracle produced wrong arcs: %s"
                              % (system.name, sorted(config.arcs)))


def _replay(system, tree):
    """Replay ``tree`` with the oracle of ``system``, recording the depth and
    phase after every action."""
    steps = []
    config = None
    for _, action, config in oracle_steps(system, tree):
        phase = "shift" if action in system.shift_actions else "reduce"
        steps.append(TraceStep(action, system.depth(config), phase,
                               system.top_size(config)))
    if config is None:  # the oracle took no step
        config = system.initial(tree.n)
    return OracleTrace(system=system.name, steps=tuple(steps),
                       arcs=config.arcs, final_config=config)


def run_lc_oracle(tree):
    """Replay ``tree`` with the left-corner oracle and record depths."""
    return _replay(LeftCorner(), tree)


def run_as_oracle(tree):
    """Arc-standard oracle; depth is the raw stack size after each action."""
    return _replay(ArcStandard(), tree)


def run_ae_oracle(tree):
    """Arc-eager oracle; depth counts connected components."""
    return _replay(ArcEager(), tree)


def run_oracle(tree, system=LEFT_CORNER):
    if system == LEFT_CORNER:
        return run_lc_oracle(tree)
    if system == ARC_STANDARD:
        return run_as_oracle(tree)
    if system == ARC_EAGER:
        return run_ae_oracle(tree)
    raise ValueError("unknown system: %r" % (system,))


def depth_re_max(trace):
    """Largest stack depth right after a reduce action (at least 1)."""
    return max((s.depth for s in trace.steps if s.phase == "reduce"), default=1)


def depth_sh_max(trace):
    """Largest stack depth right after a shift action (at least 1)."""
    return max((s.depth for s in trace.steps if s.phase == "shift"), default=1)


def relaxed_depth_re_max(trace, size_cutoff):
    """Reduce-depth maximum ignoring steps with a small top element.

    A post-reduce configuration only counts when the size of its top stack
    element (tokens plus the dummy slot) exceeds ``size_cutoff``; the measure
    floors at 1.  A cutoff of 1 reproduces :func:`depth_re_max` because a
    post-reduce top always holds at least one token and a dummy.
    """
    return max(
        (
            s.depth
            for s in trace.steps
            if s.phase == "reduce" and s.top_size is not None
            and s.top_size > size_cutoff
        ),
        default=1,
    )


def max_step_depth(trace):
    """Largest recorded depth over all steps of the trace."""
    return max((s.depth for s in trace.steps), default=0)


def postprocess_terminal(config, root_position=None):
    """Read a head vector out of a (possibly failed) terminal configuration.

    Dummy nodes are collapsed: the children of a dummy in head position are
    moved to the sentence root, the children of an internal dummy to the
    dummy's parent.  Every remaining headless token is then attached to the
    sentence root.  ``root_position`` names the token serving as the sentence
    root (conventionally the appended root marker); when None, stranded
    tokens attach to the artificial root 0 instead.
    """
    heads = {}
    for h, d in config.arcs:
        heads[d] = h
    for spine in config.spines:
        if spine.is_complete:
            continue
        parent = spine.nodes[-1] if spine.nodes else None
        for k in spine.dummy.left:
            heads[k] = parent if parent is not None else root_position
    out = []
    for t in range(1, config.n + 1):
        h = heads.get(t)
        if t == root_position:
            h = 0
        elif h is None:
            h = root_position if root_position is not None else 0
        out.append(h)
    return tuple(out)
