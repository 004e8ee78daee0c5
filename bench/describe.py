"""Print the make-up of a workload's inputs for one or more seeds.

    python3 bench/describe.py induce-depth1 1 2 3

Tagset, length histogram, tokens, distinct tag sequences and training
sentences per cached forest.  The program caches induction forests by
sentence length, so that last figure is distinct tag sequences per length.
"""

import collections
import sys

import workloads


def describe(workload, seed):
    train, heldout = workloads.make_inputs(workload, seed)
    lines = ["%s seed %d" % (workload, seed)]
    for name, trees in (("train", train), ("held-out", heldout)):
        tags = [t[0] for t in trees]
        hist = collections.Counter(len(t) for t in tags)
        lines.append(
            "  %s: %d sentences, %d tokens, %d distinct tag sequences, "
            "%d tags" % (name, len(tags), sum(map(len, tags)),
                         len(set(tags)), len({x for t in tags for x in t})))
        lines.append("    lengths: " + " ".join(
            "%d:%d" % kv for kv in sorted(hist.items())))
    if workload in workloads.INDUCE:
        per_forest = collections.Counter(len(t) for t in {t[0] for t in train})
        lines.append("  distinct training sequences per cached forest: "
                     "%.2f over %d forests"
                     % (sum(per_forest.values()) / len(per_forest),
                        len(per_forest)))
    return "\n".join(lines)


if __name__ == "__main__":
    for s in sys.argv[2:]:
        print(describe(sys.argv[1], int(s)))
