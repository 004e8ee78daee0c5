"""Output checks computed apart from the program.

Every function returns a list of problem strings (empty when the output is
correct), so a round can report all failures at once.  Nothing here imports
``lcdep``: the checks restate the required properties from scratch.
"""

import math

EM_TOL = 1e-8       # relative slack on the EM objective between iterations
MARGINAL_TOL = 1e-9  # absolute slack on a log marginal
COUNT_TOL = 1e-6    # relative slack on expected-count totals


def tree_errors(heads):
    """Single root, heads in range, acyclic and projective."""
    n = len(heads)
    errs = []
    if n == 0:
        return ["empty tree"]
    if any(not isinstance(h, int) or h < 0 or h > n for h in heads):
        return ["head out of range in %r" % (heads,)]
    if any(h == i + 1 for i, h in enumerate(heads)):
        return ["token is its own head in %r" % (heads,)]
    roots = [i + 1 for i, h in enumerate(heads) if h == 0]
    if len(roots) != 1:
        errs.append("%d roots in %r" % (len(roots), heads))
    for i in range(1, n + 1):
        seen, j = set(), i
        while j:
            if j in seen:
                return errs + ["cycle through %d in %r" % (i, heads)]
            seen.add(j)
            j = heads[j - 1]
    arcs = [(min(h, d), max(h, d)) for d, h in enumerate(heads, 1) if h]
    arcs += [(0, r) for r in roots]
    for a, b in arcs:
        for c, d in arcs:
            if a < c < b < d:
                errs.append("crossing arcs in %r" % (heads,))
                return errs
    return errs


def em_errors(history, iterations):
    """Exactly ``iterations`` EM steps, no skipped sentence, and an
    objective that never falls by more than EM_TOL of its size."""
    errs = []
    if [it for it, _, _ in history] != list(range(1, iterations + 1)):
        errs.append("ran iterations %r, expected %d" %
                    ([it for it, _, _ in history], iterations))
    for (_, prev, _), (it, cur, _) in zip(history, history[1:]):
        if cur < prev - EM_TOL * abs(prev):
            errs.append("objective fell at iteration %d: %.12g < %.12g"
                        % (it, cur, prev))
    skipped = sum(s for _, _, s in history)
    if skipped:
        errs.append("%d sentences skipped" % skipped)
    return errs


def count_errors(attach, root, stop, n_tokens):
    """Every token has one head (an attachment or the root choice) and
    stops once on each side."""
    errs = []
    for name, got, want in (("attach+root", attach + root, n_tokens),
                            ("stop", stop, 2 * n_tokens)):
        if not abs(got - want) <= COUNT_TOL * want:
            errs.append("expected %s decisions sum to %.9g, not %d"
                        % (name, got, want))
    return errs


def logsumexp(values):
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def marginal_errors(chart, brute, what=""):
    if not abs(chart - brute) <= MARGINAL_TOL:
        return ["log marginal %s: chart %.15g, enumeration %.15g"
                % (what, chart, brute)]
    return []


def viterbi_errors(pred_logw, gold_logw, what=""):
    if pred_logw < gold_logw - MARGINAL_TOL:
        return ["Viterbi tree %s scores %.12g below gold %.12g"
                % (what, pred_logw, gold_logw)]
    return []


def depth_errors(depth, bound, heads):
    if depth > bound:
        return ["depth %d exceeds bound %d in %r" % (depth, bound, heads)]
    return []


def uas(pred, gold):
    """Share of tokens whose predicted head is the gold head."""
    total = sum(len(g) for g in gold)
    hits = sum(p == g for ps, gs in zip(pred, gold) for p, g in zip(ps, gs))
    return hits / total


def left_neighbour(n):
    """Every token headed by its left neighbour; the first is the root."""
    return tuple(range(n))


def right_neighbour(n):
    """Every token headed by its right neighbour; the last is the root."""
    return tuple(range(2, n + 1)) + (0,)


def baseline_errors(pred, gold, what=""):
    score = uas(pred, gold)
    errs = []
    for name, make in (("left", left_neighbour), ("right", right_neighbour)):
        base = uas([make(len(g)) for g in gold], gold)
        if not score > base:
            errs.append("%s UAS %.4f does not beat the %s-neighbour baseline "
                        "%.4f" % (what, score, name, base))
    return errs
