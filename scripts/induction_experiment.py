"""Unsupervised grammar-induction sweep over train/test treebank pairs.

Trains the featurized dependency model under several configurations on each
training file (POS sequences only) and reports directed attachment accuracy
on the paired test file, plus the across-treebank average.

Usage:
    python scripts/induction_experiment.py \
        en=en-ud-train.conllu:en-ud-test.conllu de=... \
        --configs uniform,bounded,biased --max-len 15

Punctuation is stripped (children reattach to the closest kept ancestor)
before the length filter is applied, matching the usual short-sentence
evaluation protocol.
"""

import argparse
import sys

from lcdep import induction
from lcdep.induction import TrainConfig
from lcdep.treebank import parse_conll, strip_punctuation

CONFIGS = {
    "uniform": dict(init="uniform"),
    "harmonic": dict(init="harmonic"),
    "bounded": dict(init="uniform", depth_bound=1, size_cutoff=3),
    "biased": dict(init="uniform", length_bias=0.1),
}


def _load(path, pos_column, max_len):
    with open(path, encoding="utf-8") as handle:
        corpus = parse_conll(handle.read(), pos_column=pos_column)
    out = []
    for tree in corpus:
        stripped = strip_punctuation(tree)
        if 1 <= stripped.n <= max_len:
            out.append(stripped)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pairs", nargs="+", metavar="LANG=TRAIN:TEST")
    ap.add_argument("--configs", default="uniform,bounded,biased",
                    help="comma list from: %s" % ", ".join(sorted(CONFIGS)))
    ap.add_argument("--pos-column", type=int, default=3)
    ap.add_argument("--max-len", type=int, default=15)
    ap.add_argument("--em-iters", type=int, default=50)
    args = ap.parse_args(argv)

    names = [c for c in args.configs.split(",") if c]
    unknown = [c for c in names if c not in CONFIGS]
    if unknown:
        ap.error("unknown configs: %s" % ", ".join(unknown))

    print("\t".join(["lang"] + names))
    totals = {name: 0.0 for name in names}
    count = 0
    for spec in args.pairs:
        lang, _, paths = spec.partition("=")
        train_path, _, test_path = paths.partition(":")
        if not train_path or not test_path:
            ap.error("pair arguments look like LANG=TRAIN:TEST, got %r" % spec)
        train = _load(train_path, args.pos_column, args.max_len)
        test = _load(test_path, args.pos_column, args.max_len)
        print(
            "%s: %d train / %d test sentences" % (lang, len(train), len(test)),
            file=sys.stderr,
        )
        scores = []
        for name in names:
            cfg = TrainConfig(em_iterations=args.em_iters, **CONFIGS[name])
            model = induction.train(train, cfg)
            preds = induction.decode((model.space, model.weights), test)
            scores.append(induction.evaluate_uas(preds, test))
            totals[name] += scores[-1]
        count += 1
        print("\t".join([lang] + ["%.1f" % s for s in scores]))
    if count > 1:
        print("\t".join(["avg"] + ["%.1f" % (totals[n] / count) for n in names]))


if __name__ == "__main__":
    main()
