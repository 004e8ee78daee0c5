"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``lcdep`` module (plus
the few private ones named in EXTRA) wherever they are bound, so calls made
inside the program go through the wrappers too.  Coarse calls become spans
with a start, an end, CPU time and a parent; the many small calls named in
FINE only add to a call count and an accumulated time, which keeps the
overhead low.  Spans stay in memory until ``dump``.  ``layers`` turns spans
and counts into the per-layer metrics, self times computed from the spans.
"""

import collections
import functools
import gc
import inspect
import json
import time

# called once per parser step or per feature template: counted, not spanned
FINE = {
    "transition.initial_config", "transition.valid_lc_actions",
    "transition.lc_apply", "transition.lc_oracle",
    "supervised.lc_templates", "supervised.extract_lc_features",
    "supervised._score", "treebank.tree_from_heads",
    "induction.attach_features", "induction.stop_features",
}
# private functions and methods that bound a layer
EXTRA = {
    "supervised": ("_score", "_beam_run", "_gold_path"),
    "hypergraph": ("Forest.event_weights",),
}
PASSES = ("hypergraph.inside_logsum", "hypergraph.outside_logsum",
          "hypergraph.event_posteriors", "hypergraph.inside_max")


def _annotate(name, args, result):
    """Counts recorded on a span from its call's arguments and result."""
    if name == "hypergraph.build_forest":
        return {"items": result.n_items, "edges": result.n_edges}
    if name in PASSES:
        return {"edges": args[0].n_edges}
    if name == "lc_chart.lc_forest":
        return {"forest": id(result), "edges": result.n_edges}
    if name == "induction.estep":
        return {"skipped": result[2]}
    if name == "supervised.train_perceptron":
        return {"updates": result.n_updates,
                "weights": sum(1 for w in result.weights.values() if w)}
    return None


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, cpu s, parent index, counts]
        self.open = []   # indices of the spans now running
        self.calls = collections.Counter()
        self.fine_s = collections.Counter()
        self.under = collections.Counter()  # (fine name, enclosing span)
        self.gc_s = 0.0
        self.gc_runs = 0
        self._gc_start = None

    # -- installation ----------------------------------------------------

    def install(self, lcdep):
        """Wrap every traced function in every module that binds it, and
        start recording."""
        targets = {}
        for mod_name, mod in lcdep.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets[fn] = "%s.%s" % (mod_name, attr)
            for path in EXTRA.get(mod_name, ()):
                owner, _, attr = path.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                if hasattr(holder, attr):
                    targets[getattr(holder, attr)] = "%s.%s" % (mod_name, path)
        wrapped = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in lcdep.values():
            holders = [mod] + [c for c in vars(mod).values()
                               if inspect.isclass(c)
                               and c.__module__ == mod.__name__]
            for holder in holders:
                for attr, fn in list(vars(holder).items()):
                    if inspect.isfunction(fn) and fn in wrapped:
                        setattr(holder, attr, wrapped[fn])
        gc.callbacks.append(self._on_gc)
        self.active = True

    def stop(self):
        self.active = False

    def _wrap(self, fn, name):
        if name in FINE:
            @functools.wraps(fn)
            def counted(*args, **kw):
                if not self.active:
                    return fn(*args, **kw)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kw)
                finally:
                    self.fine_s[name] += time.perf_counter() - t0
                    self.calls[name] += 1
                    if self.open:
                        self.under[name, self.spans[self.open[-1]][0]] += 1
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kw):
            if not self.active:
                return fn(*args, **kw)
            parent = self.open[-1] if self.open else -1
            span = [name, time.perf_counter(), None, time.process_time(),
                    parent, None]
            self.open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kw)
                span[5] = _annotate(name, args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                span[3] = time.process_time() - span[3]
                self.open.pop()
        return spanned

    def _on_gc(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_runs += 1
            self._gc_start = None

    # -- results ---------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "cpu_s", "parent",
                                  "counts"],
                       "spans": self.spans,
                       "calls": self.calls, "fine_s": self.fine_s}, f)

    def layers(self):
        """Per-layer metrics: {name: {"value": v, "unit": u}}."""
        total = collections.Counter()
        cpu = collections.Counter()
        count = collections.Counter()
        child = collections.Counter()
        attrs = collections.defaultdict(collections.Counter)
        built_under = 0  # lc_forest calls that built a forest
        forests = {}
        for name, start, end, cpu_s, parent, counts in self.spans:
            total[name] += end - start
            cpu[name] += cpu_s
            count[name] += 1
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] += end - start
                if (name == "hypergraph.build_forest"
                        and pname == "lc_chart.lc_forest"):
                    built_under += 1
            if counts:
                if name == "lc_chart.lc_forest":
                    forests[counts["forest"]] = counts["edges"]
                else:
                    attrs[name].update(counts)

        def self_s(name):
            return total[name] - child[name]

        pass_s = sum(total[p] for p in PASSES if p != PASSES[2])
        pass_s += self_s(PASSES[2])
        edges = sum(attrs[p]["edges"] for p in PASSES)
        lc_calls = count["lc_chart.lc_forest"]
        train = attrs["supervised.train_perceptron"]
        s, n = "s", "count"
        out = {
            "treebank.parse_conll_s": (total["treebank.parse_conll"], s),
            "sbg.dmv_sentence_automata_s":
                (total["sbg.dmv_sentence_automata"], s),
            "sbg.dmv_counts_from_events_s":
                (total["sbg.dmv_counts_from_events"], s),
            "sbg.eisner_forest_calls": (count["sbg.eisner_forest"], n),
            "induction.sentence_expectations_calls":
                (count["induction.sentence_expectations"], n),
            "sbg.eisner_viterbi_s": (total["sbg.eisner_viterbi"], s),
            "hypergraph.build_forest_s": (total["hypergraph.build_forest"], s),
            "hypergraph.items_built":
                (attrs["hypergraph.build_forest"]["items"], n),
            "hypergraph.edges_built":
                (attrs["hypergraph.build_forest"]["edges"], n),
            "hypergraph.event_weights_s":
                (total["hypergraph.Forest.event_weights"], s),
            "hypergraph.inside_logsum_s":
                (total["hypergraph.inside_logsum"], s),
            "hypergraph.outside_logsum_s":
                (total["hypergraph.outside_logsum"], s),
            "hypergraph.posteriors_self_s":
                (self_s("hypergraph.event_posteriors"), s),
            "hypergraph.inside_max_s": (total["hypergraph.inside_max"], s),
            "hypergraph.edges_per_s": (edges / pass_s if pass_s else 0.0,
                                       "1/s"),
            "lc_chart.lc_forest_calls": (lc_calls, n),
            "lc_chart.forest_cache_hit_ratio":
                ((lc_calls - built_under) / lc_calls if lc_calls else 0.0,
                 "ratio"),
            "lc_chart.cached_edges": (sum(forests.values()), n),
            "induction.harmonic_counts_s":
                (total["induction.harmonic_counts"], s),
            "induction.estep_s": (total["induction.estep"], s),
            "induction.mstep_s": (total["induction.mstep"], s),
            "induction.mstep_cpu_s": (cpu["induction.mstep"], s),
            "induction.mstep_objective_calls":
                (count["induction.mstep_objective"], n),
            "induction.decode_s": (total["induction.decode"]
                                   + total["induction.decode_constrained"], s),
            "induction.skipped_sentences":
                (attrs["induction.estep"]["skipped"], n),
            "supervised.extract_lc_features_s":
                (self.fine_s["supervised.extract_lc_features"], s),
            "supervised.extract_lc_features_calls":
                (self.calls["supervised.extract_lc_features"], n),
            "supervised.score_s": (self.fine_s["supervised._score"], s),
            "supervised.beam_expansions":
                (self.under["transition.lc_apply", "supervised._beam_run"], n),
            "supervised.updates": (train["updates"], n),
            "supervised.weights": (train["weights"], n),
            "transition.lc_apply_s": (self.fine_s["transition.lc_apply"], s),
            "transition.lc_apply_calls": (self.calls["transition.lc_apply"], n),
            "transition.run_lc_oracle_s":
                (total["transition.run_lc_oracle"], s),
            "python.gc_s": (self.gc_s, s),
            "python.gc_collections": (self.gc_runs, n),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
