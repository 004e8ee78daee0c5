"""Corpus-level stack-depth statistics.

Runs transition-system oracles over a treebank and aggregates how deep the
stack gets: cumulative depth histograms per system, token- and
sentence-level coverage under the reduce-depth measure (with the small-
constituent relaxation), and randomized reordering baselines.  Reports are
plain TSV; plotting is left to consumers.
"""

import dataclasses
import math
import random

from .transition import (
    LEFT_CORNER,
    INSERT,
    SHIFT,
    TransitionError,
    relaxed_depth_re_max,
    run_oracle,
)
from .treebank import (
    append_root,
    has_appended_root,
    projectivize,
    random_reorder,
    strip_punctuation,
)

TSV_COLUMNS = ("lang", "system", "measure", "bound", "relaxC", "tokenPct", "sentPct")


@dataclasses.dataclass
class DepthHistogram:
    """Configuration counts per stack depth."""

    counts: dict = dataclasses.field(default_factory=dict)

    def add(self, depth, k=1):
        self.counts[depth] = self.counts.get(depth, 0) + k

    @property
    def total(self):
        return sum(self.counts.values())

    def cumulative(self):
        """[(depth, fraction of configurations at or below it)] for every
        depth from 1 to the maximum seen; non-decreasing, ending at 1.0."""
        if not self.counts:
            return []
        total = self.total
        out = []
        running = 0
        for depth in range(1, max(self.counts) + 1):
            running += self.counts.get(depth, 0)
            out.append((depth, running / total))
        return out

    def fraction_at_most(self, bound):
        total = self.total
        if total == 0:
            return 1.0
        return sum(k for d, k in self.counts.items() if d <= bound) / total


@dataclasses.dataclass
class CoverageReport:
    """Token/sentence coverage percentages per depth bound (full precision;
    rounding happens only when rows are rendered)."""

    relax_c: int
    max_len: int = None
    rows: dict = dataclasses.field(default_factory=dict)  # bound -> (tok, sent)
    n_tokens: int = 0
    n_sentences: int = 0


def prepare_corpus(corpus, strip_punct=False, max_len=None):
    """Projectivize and append the end-of-sentence root token; optionally
    strip punctuation first and drop sentences longer than max_len."""
    out = []
    for tree in corpus:
        if strip_punct:
            tree = strip_punctuation(tree)
        if max_len is not None and tree.n > max_len:
            continue
        out.append(append_root(projectivize(tree)))
    return out


def _run(tree, system, index):
    try:
        return run_oracle(tree, system)
    except TransitionError as exc:
        raise TransitionError("sentence %d: %s" % (index, exc)) from exc


def depth_histogram(corpus, system=LEFT_CORNER):
    """Histogram of the stack depth of every configuration reached while
    replaying the oracle on each sentence (arc-eager depth counts connected
    components, including a forming buffer-front subtree)."""
    hist = DepthHistogram()
    for index, tree in enumerate(corpus, start=1):
        for step in _run(tree, system, index).steps:
            hist.add(step.depth)
    return hist


def _content_length(tree):
    return tree.n - 1 if has_appended_root(tree) else tree.n


def token_depths(trace, relax_c=1):
    """Reduce-depth as of each token's introducing step.

    The running measure is the largest post-reduce depth seen so far, where
    a reduce only counts when its top element holds more than ``relax_c``
    items (dummy slot included); each shift/insert samples the running value.
    Floors at 1.
    """
    values = []
    current = 1
    for step in trace.steps:
        if (
            step.phase == "reduce"
            and step.top_size is not None
            and step.top_size > relax_c
        ):
            current = max(current, step.depth)
        if step.action in (SHIFT, INSERT):
            values.append(current)
    return values


def coverage_report(corpus, bounds, relax_c=1, max_len=None):
    """Token- and sentence-level coverage of the left-corner oracle under
    each depth bound.

    A token counts as covered at bound d when the reduce-depth as of its
    shift is at most d; a sentence when its maximal reduce-depth is.  The
    appended root token is not scored.  max_len drops sentences whose
    content length exceeds it.
    """
    bounds = list(bounds)
    token_total = 0
    sent_total = 0
    token_cov = {d: 0 for d in bounds}
    sent_cov = {d: 0 for d in bounds}
    for index, tree in enumerate(corpus, start=1):
        n = _content_length(tree)
        if max_len is not None and n > max_len:
            continue
        trace = _run(tree, LEFT_CORNER, index)
        values = token_depths(trace, relax_c)[:n]
        sent_value = relaxed_depth_re_max(trace, relax_c)
        token_total += len(values)
        sent_total += 1
        for d in bounds:
            token_cov[d] += sum(1 for v in values if v <= d)
            if sent_value <= d:
                sent_cov[d] += 1
    report = CoverageReport(relax_c=relax_c, max_len=max_len)
    report.n_tokens = token_total
    report.n_sentences = sent_total
    for d in bounds:
        tok = 100.0 * token_cov[d] / token_total if token_total else 100.0
        sent = 100.0 * sent_cov[d] / sent_total if sent_total else 100.0
        report.rows[d] = (tok, sent)
    return report


def random_baseline(corpus, seed, trials, system=LEFT_CORNER, max_len=None):
    """Depth histogram over randomly reordered versions of the corpus.

    Punctuation is stripped, then sentences longer than max_len dropped;
    every trial reorders each tree (projectivity-preserving), appends the
    root token and replays the oracle.  Deterministic given the seed.
    """
    stripped = [strip_punctuation(projectivize(tree)) for tree in corpus]
    stripped = [t for t in stripped if max_len is None or t.n <= max_len]
    rng = random.Random(seed)
    hist = DepthHistogram()
    for _ in range(trials):
        for index, tree in enumerate(stripped, start=1):
            reordered = random_reorder(tree, rng.randrange(2 ** 32))
            trace = _run(append_root(reordered), system, index)
            for step in trace.steps:
                hist.add(step.depth)
    return hist


# ---------------------------------------------------------------------------
# TSV rendering


def _fmt_pct(x):
    return "%.1f" % x


def coverage_rows(lang, report, system=LEFT_CORNER, measure="depthRe"):
    rows = []
    for bound in sorted(report.rows):
        tok, sent = report.rows[bound]
        rows.append(
            (
                lang,
                system,
                measure,
                "inf" if math.isinf(bound) else str(bound),
                str(report.relax_c),
                _fmt_pct(tok),
                _fmt_pct(sent),
            )
        )
    return rows


def histogram_rows(lang, hist, system=LEFT_CORNER, measure="configDepth"):
    rows = []
    for depth, frac in hist.cumulative():
        rows.append(
            (lang, system, measure, str(depth), "1", _fmt_pct(100.0 * frac), "")
        )
    return rows


def format_tsv(rows, header=True):
    lines = []
    if header:
        lines.append("\t".join(TSV_COLUMNS))
    for row in rows:
        lines.append("\t".join(row))
    return "\n".join(lines)
