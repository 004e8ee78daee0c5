"""Command-line front end.

One binary with eight subcommands wiring the library into reproducible
experiments: depth analysis, coverage tables, random-order baselines, oracle
traces, grammar induction, parsing, evaluation, and perceptron training.
Every command is a thin wrapper over library calls; an optional flat
``key=value`` config file supplies defaults and explicit flags win.  The
resolved configuration is echoed to stderr, outputs are UTF-8, and any
failure exits nonzero with a one-line reason.  ``LCDEP_LOG`` sets the log
level.
"""

import argparse
import dataclasses
import logging
import math
import os
import sys

from . import analysis, induction, supervised
from .transition import (
    ARC_EAGER,
    ARC_STANDARD,
    LEFT_CORNER,
    format_trace,
    run_oracle,
)
from .treebank import (
    DEFAULT_PUNCT_TAGS,
    GOOGLE_FUNCTION_TAGS,
    UD_FUNCTION_TAGS,
    parse_conll,
    projectivize,
    serialize_conll,
)

log = logging.getLogger("lcdep")


class CliError(Exception):
    pass


_SYSTEM_NAMES = {
    "left-corner": LEFT_CORNER,
    "arc-standard": ARC_STANDARD,
    "arc-eager": ARC_EAGER,
}

_MEASURE_NAMES = {"raw": supervised.RAW, "depth-re": supervised.DEPTH_RE}


# ---------------------------------------------------------------------------
# value converters (used for both flags and config-file entries)


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise CliError("not a boolean: %r" % text)


def _bounds(text):
    out = []
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            continue
        out.append(math.inf if piece == "inf" else int(piece))
    if not out:
        raise CliError("empty bounds list")
    return tuple(out)


def _opt_int(text):
    t = str(text).strip().lower()
    return None if t in ("none", "") else int(t)


def _opt_float(text):
    t = str(text).strip().lower()
    return None if t in ("none", "") else float(t)


def _tag_list(text):
    t = str(text).strip()
    lowered = t.lower()
    if lowered in ("", "none"):
        return ()
    if lowered == "ud":
        return tuple(sorted(UD_FUNCTION_TAGS))
    if lowered == "google":
        return tuple(sorted(GOOGLE_FUNCTION_TAGS))
    return tuple(p.strip() for p in t.split(",") if p.strip())


def _system(text):
    t = str(text).strip()
    if t not in _SYSTEM_NAMES:
        raise CliError(
            "unknown system %r (expected %s)" % (t, "/".join(_SYSTEM_NAMES))
        )
    return _SYSTEM_NAMES[t]


def _measure(text):
    t = str(text).strip()
    if t not in _MEASURE_NAMES:
        raise CliError("unknown depth measure %r (expected raw/depth-re)" % t)
    return _MEASURE_NAMES[t]


# ---------------------------------------------------------------------------
# option framework


@dataclasses.dataclass(frozen=True)
class Opt:
    name: str
    conv: object = str
    default: object = None
    flag: bool = False
    help: str = ""


_COMMON = (
    Opt("config", str, None, help="flat key=value config file"),
    Opt("out", str, None, help="output path (stdout when omitted)"),
)

_CORPUS_OPTS = (
    Opt("pos-column", int, 3, help="0-based CoNLL column holding the POS tag"),
    Opt("max-len", _opt_int, None, help="drop longer sentences"),
    Opt("strip-punct", _bool, False, flag=True, help="remove punctuation tokens"),
)


def _command_table():
    dmv = induction.TrainConfig()  # the train-dmv and parse defaults
    return {
        "analyze-depth": (
            _COMMON + _CORPUS_OPTS + (
                Opt("system", _system, LEFT_CORNER),
                Opt("lang", str, "-"),
            ),
            ("input",),
            _cmd_analyze_depth,
        ),
        "coverage": (
            _COMMON + _CORPUS_OPTS + (
                Opt("bounds", _bounds, (1, 2, 3, 4)),
                Opt("relax", int, 1),
                Opt("lang", str, "-"),
            ),
            ("input",),
            _cmd_coverage,
        ),
        "random-baseline": (
            _COMMON + _CORPUS_OPTS + (
                Opt("system", _system, LEFT_CORNER),
                Opt("seed", int, 0),
                Opt("trials", int, 10),
                Opt("lang", str, "-"),
            ),
            ("input",),
            _cmd_random_baseline,
        ),
        "oracle-trace": (
            _COMMON + _CORPUS_OPTS + (
                Opt("system", _system, LEFT_CORNER),
            ),
            ("input",),
            _cmd_oracle_trace,
        ),
        "train-dmv": (
            _COMMON + _CORPUS_OPTS + (
                Opt("init", str, dmv.init),
                Opt("depth", _opt_int, dmv.depth_bound),
                Opt("relax-c", int, dmv.size_cutoff),
                Opt("root", str, dmv.root_constraint),
                Opt("beta", _opt_float, dmv.length_bias),
                Opt("function-words", _tag_list, dmv.function_words),
                Opt("adp-head", _bool, dmv.adp_head, flag=True),
                Opt("em-iters", int, dmv.em_iterations),
                Opt("sigma2", float, dmv.sigma2),
                Opt("tol", float, dmv.tol),
            ),
            ("input",),
            _cmd_train_dmv,
        ),
        "parse": (
            _COMMON + _CORPUS_OPTS + (
                Opt("model", str, None),
                Opt("beam", _opt_int, None,
                    help="beam size; defaults to the parser file's beam"),
                Opt("depth", _opt_int, dmv.depth_bound),
                Opt("measure", _measure, supervised.RAW),
                Opt("relax-c", int, dmv.size_cutoff,
                    help="element size cutoff: the grammar decode's "
                         "size_cutoff and the perceptron decode's relax_c"),
                Opt("root", str, dmv.root_constraint),
                Opt("beta", _opt_float, dmv.length_bias),
                Opt("function-words", _tag_list, dmv.function_words),
                Opt("adp-head", _bool, dmv.adp_head, flag=True),
                Opt("jobs", int, 1),
            ),
            ("input",),
            _cmd_parse,
        ),
        "eval-uas": (
            _COMMON + (
                Opt("pos-column", int, 3),
                Opt("punct-tags", _tag_list, tuple(sorted(DEFAULT_PUNCT_TAGS))),
            ),
            ("pred", "gold"),
            _cmd_eval_uas,
        ),
        "train-supervised": (
            _COMMON + _CORPUS_OPTS + (
                Opt("system", _system, LEFT_CORNER),
                Opt("features", str, "full"),
                Opt("beam", int, 8),
                Opt("epochs", int, 5),
                Opt("seed", int, 0),
            ),
            ("input",),
            _cmd_train_supervised,
        ),
    }


def _read_config(path, known):
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(
                        "%s:%d: expected key=value" % (path, lineno)
                    )
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in known:
                    raise CliError("%s: unknown config key %r" % (path, key))
                values[key] = value.strip()
    except OSError as exc:
        raise CliError("cannot read config: %s" % exc)
    return values


def _resolve(opts, ns):
    """CLI flag > config-file entry > built-in default."""
    known = {o.name for o in opts if o.name != "config"}
    config_path = getattr(ns, "config", None)
    file_values = _read_config(config_path, known) if config_path else {}
    resolved = {"config": config_path}
    for opt in opts:
        if opt.name == "config":
            continue
        cli_value = getattr(ns, opt.name.replace("-", "_"))
        if cli_value is not None:
            value = cli_value
        elif opt.name in file_values:
            raw = file_values[opt.name]
            value = _bool(raw) if opt.flag else opt.conv(raw)
        else:
            value = opt.default
        resolved[opt.name] = value
    return resolved


def _show(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value) if value else "none"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return str(value)


def _echo(command, resolved, positionals):
    parts = ["cmd=%s" % command]
    parts.extend("%s=%s" % (k, _show(v)) for k, v in sorted(positionals.items()))
    parts.extend(
        "%s=%s" % (k, _show(v))
        for k, v in sorted(resolved.items())
        if k != "config"
    )
    sys.stderr.write("config: %s\n" % " ".join(parts))


def _load_corpus(path, resolved):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError("cannot read input: %s" % exc)
    return parse_conll(text, pos_column=resolved.get("pos-column", 3))


def _write_text(resolved, text):
    out = resolved.get("out")
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _out_dir(resolved):
    out = resolved.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze_depth(resolved, args):
    corpus = _load_corpus(args["input"], resolved)
    prepared = analysis.prepare_corpus(
        corpus,
        strip_punct=resolved["strip-punct"],
        max_len=resolved["max-len"],
    )
    hist = analysis.depth_histogram(prepared, system=resolved["system"])
    rows = analysis.histogram_rows(
        resolved["lang"], hist, system=resolved["system"]
    )
    _write_text(resolved, analysis.format_tsv(rows))
    return 0


def _cmd_coverage(resolved, args):
    corpus = _load_corpus(args["input"], resolved)
    prepared = analysis.prepare_corpus(
        corpus, strip_punct=resolved["strip-punct"]
    )
    report = analysis.coverage_report(
        prepared,
        bounds=resolved["bounds"],
        relax_c=resolved["relax"],
        max_len=resolved["max-len"],
    )
    rows = analysis.coverage_rows(resolved["lang"], report)
    _write_text(resolved, analysis.format_tsv(rows))
    return 0


def _cmd_random_baseline(resolved, args):
    corpus = _load_corpus(args["input"], resolved)
    if resolved["max-len"] is not None:
        corpus = [t for t in corpus if t.n <= resolved["max-len"]]
    hist = analysis.random_baseline(
        corpus,
        seed=resolved["seed"],
        trials=resolved["trials"],
        system=resolved["system"],
    )
    rows = analysis.histogram_rows(
        resolved["lang"],
        hist,
        system=resolved["system"],
        measure="randomConfigDepth",
    )
    _write_text(resolved, analysis.format_tsv(rows))
    return 0


def _cmd_oracle_trace(resolved, args):
    corpus = _load_corpus(args["input"], resolved)
    prepared = analysis.prepare_corpus(
        corpus,
        strip_punct=resolved["strip-punct"],
        max_len=resolved["max-len"],
    )
    blocks = []
    for index, tree in enumerate(prepared, start=1):
        trace = run_oracle(tree, resolved["system"])
        blocks.append("# sentence\t%d" % index)
        blocks.append(format_trace(trace))
    _write_text(resolved, "\n".join(blocks))
    return 0


def _constraint_fields(resolved):
    """The ``TrainConfig`` fields set by the constraint options."""
    if resolved["root"] not in induction.ROOT_MODES:
        raise CliError("unknown root constraint %r" % resolved["root"])
    return dict(
        root_constraint=resolved["root"],
        function_words=tuple(resolved["function-words"]),
        adp_head=resolved["adp-head"],
    )


def _dmv_config(resolved, **fields):
    """The ``TrainConfig`` of the options ``train-dmv`` and ``parse`` share,
    with ``fields`` set too."""
    return induction.TrainConfig(
        depth_bound=resolved["depth"],
        size_cutoff=resolved["relax-c"],
        length_bias=resolved["beta"],
        **_constraint_fields(resolved),
        **fields,
    )


def _train_config(resolved):
    return _dmv_config(resolved, init=resolved["init"],
                       em_iterations=resolved["em-iters"],
                       sigma2=resolved["sigma2"], tol=resolved["tol"])


def _mstep_summary(run):
    return "%d Newton iterations, %s (status %d: %s, |grad| %.1e)" % (
        run.iterations, "converged" if run.converged else "not converged",
        run.status, run.message, run.max_gradient)


def _cmd_train_dmv(resolved, args):
    if resolved["init"] not in ("harmonic", "uniform"):
        raise CliError("unknown init %r (expected harmonic/uniform)" % resolved["init"])
    corpus = _load_corpus(args["input"], resolved)
    sentences = _plain_sentences(corpus, resolved)
    if not sentences:
        raise CliError("no sentences left after filtering")
    model = induction.train(sentences, _train_config(resolved))
    out = _out_dir(resolved)
    model_path = os.path.join(out, "model.txt")
    with open(model_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(induction.model_to_lines(model)) + "\n")
    metrics_path = os.path.join(out, "metrics.tsv")
    seconds = {it: (e_s, m_s) for it, e_s, m_s in model.step_seconds}
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("iter\tobjective\tskipped\testep_s\tmstep_s\n")
        for it, objective, skipped in model.history:
            handle.write("%d\t%.6f\t%d\t%.6f\t%.6f\n"
                         % ((it, objective, skipped) + seconds[it]))
    runs = dict(model.mstep_runs)
    if 0 in runs:
        log.info("initial M-step: %s in %.3f s, after a %.3f s harmonic "
                 "E-step", _mstep_summary(runs[0]), seconds[0][1],
                 seconds[0][0])
    for it, objective, skipped in model.history:
        log.info("EM iteration %d: objective %.6f, skipped %d, E-step "
                 "%.3f s, M-step %s in %.3f s", it, objective, skipped,
                 seconds[it][0], _mstep_summary(runs[it]), seconds[it][1])
    log.info("wrote %s and %s", model_path, metrics_path)
    return 0


def _plain_sentences(corpus, resolved):
    """Corpus preparation for induction/parsing: optional punctuation strip
    and length filter, no root appending, heads untouched."""
    from .treebank import strip_punctuation

    out = []
    for tree in corpus:
        if resolved.get("strip-punct"):
            tree = strip_punctuation(tree)
        if tree.n == 0:
            continue
        if resolved.get("max-len") is not None and tree.n > resolved["max-len"]:
            continue
        out.append(tree)
    return out


def _cmd_parse(resolved, args):
    if not resolved["model"]:
        raise CliError("parse requires --model")
    try:
        with open(resolved["model"], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CliError("cannot read model: %s" % exc)
    corpus = _load_corpus(args["input"], resolved)
    sentences = _plain_sentences(corpus, resolved)
    header = lines[0].strip() if lines else ""
    if header.startswith("# featurized-dmv"):
        space, weights = induction.model_from_lines(lines)
        cfg = _dmv_config(resolved)
        parsed = induction.decode_constrained(
            (space, weights),
            sentences,
            cfg.constraint_set(),
            policy=cfg.policy(),
            length_bias=cfg.length_bias,
        )
        # the chart decoders rebuild trees from tags; keep the input forms
        parsed = [
            orig.with_heads(tree.heads)
            for orig, tree in zip(sentences, parsed)
        ]
    elif header.startswith("# perceptron-parser"):
        model = supervised.parser_from_lines(lines)
        parsed = supervised.decode_corpus(
            sentences,
            model,
            beam_size=resolved["beam"],
            depth_bound=resolved["depth"],
            depth_measure=resolved["measure"],
            relax_c=resolved["relax-c"],
            jobs=resolved["jobs"],
        )
    else:
        raise CliError("unrecognized model header %r" % header)
    _write_text(resolved, serialize_conll(parsed))
    return 0


def _cmd_eval_uas(resolved, args):
    pred = _load_corpus(args["pred"], resolved)
    gold = _load_corpus(args["gold"], resolved)
    uas = induction.evaluate_uas(
        pred, gold, punct_tags=frozenset(resolved["punct-tags"])
    )
    _write_text(resolved, "UAS\t%.1f" % uas)
    return 0


def _cmd_train_supervised(resolved, args):
    if resolved["features"] not in (supervised.FULL, supervised.LIMITED):
        raise CliError("unknown feature set %r" % resolved["features"])
    corpus = _load_corpus(args["input"], resolved)
    sentences = [projectivize(t) for t in _plain_sentences(corpus, resolved)]
    if not sentences:
        raise CliError("no sentences left after filtering")
    model = supervised.train_perceptron(
        sentences,
        system=resolved["system"],
        feature_set=resolved["features"],
        beam_size=resolved["beam"],
        epochs=resolved["epochs"],
        seed=resolved["seed"],
    )
    log.info("perceptron updates: %d", model.n_updates)
    _write_text(resolved, "\n".join(supervised.parser_to_lines(model)))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser(table):
    parser = argparse.ArgumentParser(
        prog="lcdep",
        description="Left-corner dependency parsing toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (opts, positionals, _) in table.items():
        p = sub.add_parser(name)
        for opt in opts:
            if opt.flag:
                p.add_argument(
                    "--" + opt.name,
                    action="store_true",
                    default=None,
                    help=opt.help,
                )
            else:
                p.add_argument(
                    "--" + opt.name,
                    type=opt.conv,
                    default=None,
                    metavar="V",
                    help=opt.help,
                )
        for pos in positionals:
            p.add_argument(pos)
    return parser


def main(argv=None):
    level = os.environ.get("LCDEP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    table = _command_table()
    parser = _build_parser(table)
    ns = parser.parse_args(argv)
    if not ns.command:
        parser.print_usage(sys.stderr)
        return 2
    opts, positionals, runner = table[ns.command]
    try:
        resolved = _resolve(opts, ns)
        posargs = {name: getattr(ns, name) for name in positionals}
        _echo(ns.command, resolved, posargs)
        return runner(resolved, posargs)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - one-line reason, nonzero exit
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
