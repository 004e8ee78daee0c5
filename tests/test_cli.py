"""Tests for the command-line interface.

Every command must produce byte-identical results to the direct library
calls it wraps, honor config files with flag overrides, and fail with a
one-line reason and nonzero exit status.
"""

import logging
import os
import random
import re
import subprocess
import sys
import warnings

import pytest

import lcdep
from lcdep import analysis, cli, induction, supervised
from lcdep.cli import main
from lcdep.transition import LEFT_CORNER
from lcdep.treebank import parse_conll, serialize_conll, tree_from_heads
from tests.util import random_projective_tree


@pytest.fixture
def corpus_file(tmp_path):
    corpus = [
        tree_from_heads((2, 0, 2), tags=("DET", "NOUN", "PUNCT"),
                        forms=("the", "cat", ".")),
        tree_from_heads((2, 0, 4, 2), tags=("DET", "VERB", "DET", "NOUN"),
                        forms=("a", "runs", "the", "dog")),
        tree_from_heads((0, 1, 2), tags=("VERB", "NOUN", "ADP"),
                        forms=("eat", "fish", "with")),
    ]
    path = tmp_path / "in.conll"
    path.write_text(serialize_conll(corpus), encoding="utf-8")
    return str(path), corpus


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_fails(capsys):
    code, _, _ = run([], capsys)
    assert code == 2


def test_coverage_matches_library(corpus_file, capsys):
    path, corpus = corpus_file
    code, out, err = run(
        ["coverage", "--bounds", "1,2,3,4", "--relax", "1", path],
        capsys,
    )
    assert code == 0
    assert err.startswith("config: cmd=coverage")
    prepared = analysis.prepare_corpus(corpus)
    report = analysis.coverage_report(prepared, bounds=(1, 2, 3, 4), relax_c=1)
    rows = analysis.coverage_rows("-", report)
    assert out == analysis.format_tsv(rows) + "\n"


def test_coverage_rejects_other_systems(corpus_file, tmp_path, capsys):
    # coverage is defined for the left-corner depth-re measure only, so
    # neither the system nor the measure is an option
    path, _ = corpus_file
    cfg = tmp_path / "old.cfg"
    cfg.write_text("system=left-corner\n", encoding="utf-8")
    code, _, err = run(["coverage", "--config", str(cfg), path], capsys)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: %s: unknown config key 'system'" % cfg)
    for flag, value in (("--system", "left-corner"),
                        ("--measure", "depth-re")):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", flag, value, path])
        assert exc.value.code == 2


def test_analyze_depth_matches_library(corpus_file, capsys):
    path, corpus = corpus_file
    code, out, _ = run(["analyze-depth", "--strip-punct", path], capsys)
    assert code == 0
    prepared = analysis.prepare_corpus(corpus, strip_punct=True)
    hist = analysis.depth_histogram(prepared)
    want = analysis.format_tsv(analysis.histogram_rows("-", hist)) + "\n"
    assert out == want


def test_random_baseline_deterministic(corpus_file, capsys):
    path, _ = corpus_file
    code, out1, _ = run(
        ["random-baseline", "--seed", "5", "--trials", "2", path], capsys
    )
    code2, out2, _ = run(
        ["random-baseline", "--seed", "5", "--trials", "2", path], capsys
    )
    assert code == 0 and code2 == 0
    assert out1 == out2
    assert "randomConfigDepth" in out1


def test_random_baseline_always_strips_punctuation(corpus_file, tmp_path,
                                                   capsys):
    path, _ = corpus_file
    with pytest.raises(SystemExit) as exc:
        main(["random-baseline", "--strip-punct", path])
    assert exc.value.code == 2
    cfg = tmp_path / "strip.cfg"
    cfg.write_text("strip-punct=true\n", encoding="utf-8")
    code, _, err = run(["random-baseline", "--config", str(cfg), path],
                       capsys)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: %s: unknown config key 'strip-punct'" % cfg)


def test_max_len_counts_tokens_after_punctuation_is_stripped(tmp_path,
                                                             capsys):
    # both sentences have 3 tokens once their punctuation is stripped
    corpus = [
        tree_from_heads((2, 0, 2, 2), tags=("DET", "NOUN", "ADJ", "PUNCT")),
        tree_from_heads((0, 1, 1, 1), tags=("VERB", "NOUN", "PUNCT", "ADV")),
    ]
    path = tmp_path / "punct.conll"
    path.write_text(serialize_conll(corpus), encoding="utf-8")
    outs = {}
    for cmd, extra in (("random-baseline", ()),
                       ("analyze-depth", ("--strip-punct",))):
        for max_len in ("3", "2"):
            code, outs[cmd, max_len], _ = run(
                [cmd, *extra, "--max-len", max_len, str(path)], capsys)
            assert code == 0
    # --max-len 3 keeps both sentences; 2 drops both
    assert outs["random-baseline", "3"] == run(
        ["random-baseline", str(path)], capsys)[1]
    assert outs["analyze-depth", "3"] == run(
        ["analyze-depth", "--strip-punct", str(path)], capsys)[1]
    for cmd in ("random-baseline", "analyze-depth"):
        assert outs[cmd, "2"] != outs[cmd, "3"]


def test_oracle_trace_format(corpus_file, capsys):
    path, _ = corpus_file
    code, out, _ = run(["oracle-trace", "--system", "left-corner", path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# sentence\t1"
    step, action, depth, phase = lines[1].split("\t")
    assert step == "1" and action in ("shift",) and phase in ("shift", "reduce")
    assert int(depth) >= 1
    assert sum(1 for l in lines if l.startswith("# sentence")) == 3


def test_config_file_with_flag_override(corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bounds=1,2\nrelax=2\nlang=xx\n", encoding="utf-8")
    code, out, err = run(
        ["coverage", "--config", str(cfg), "--relax", "1", path], capsys
    )
    assert code == 0
    # file set bounds and lang; explicit flag wins for relax
    assert "relax=1" in err and "lang=xx" in err and "bounds=1,2" in err
    prepared = analysis.prepare_corpus(corpus)
    report = analysis.coverage_report(prepared, bounds=(1, 2), relax_c=1)
    want = analysis.format_tsv(analysis.coverage_rows("xx", report)) + "\n"
    assert out == want


def test_unknown_config_key_rejected(corpus_file, tmp_path, capsys):
    path, _ = corpus_file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n", encoding="utf-8")
    code, _, err = run(["coverage", "--config", str(cfg), path], capsys)
    assert code == 2
    assert "unknown config key" in err.splitlines()[-1]


def test_missing_input_is_one_line_error(capsys):
    code, _, err = run(["coverage", "/nonexistent/in.conll"], capsys)
    assert code == 2
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and "\n" not in last


def test_train_dmv_writes_model_and_metrics(corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    out = tmp_path / "run"
    code, _, _ = run(
        ["train-dmv", "--init", "uniform", "--em-iters", "3",
         "--out", str(out), path],
        capsys,
    )
    assert code == 0
    model_lines = (out / "model.txt").read_text(encoding="utf-8").splitlines()
    assert model_lines[0] == "# featurized-dmv v1"
    metrics = (out / "metrics.tsv").read_text(encoding="utf-8").splitlines()
    assert metrics[0] == "iter\tobjective\tskipped\testep_s\tmstep_s"
    assert len(metrics) == 4
    objectives = [float(line.split("\t")[1]) for line in metrics[1:]]
    assert objectives == sorted(objectives)  # EM objective non-decreasing

    # byte-identical to the library call
    cfg = induction.TrainConfig(init="uniform", em_iterations=3)
    model = induction.train(corpus, cfg)
    assert model_lines == induction.model_to_lines(model)


def test_train_dmv_logs_each_m_step(corpus_file, tmp_path, capsys, caplog):
    path, _ = corpus_file
    caplog.set_level(logging.INFO, logger="lcdep")
    code, _, _ = run(
        ["train-dmv", "--em-iters", "2", "--tol", "0",
         "--out", str(tmp_path / "run"), path],
        capsys,
    )
    assert code == 0
    lines = [r.getMessage() for r in caplog.records
             if "Newton iterations" in r.getMessage()]
    assert re.match(r"initial M-step: \d+ Newton iterations, converged "
                    r"\(status 0: converged, \|grad\| ", lines[0])
    assert [line.split(":")[0] for line in lines[1:]] == [
        "EM iteration 1", "EM iteration 2"]
    assert all(re.search(r"M-step \d+ Newton iterations, converged", line)
               for line in lines[1:])


def test_train_dmv_reports_step_seconds(corpus_file, tmp_path, capsys,
                                         caplog):
    path, _ = corpus_file
    caplog.set_level(logging.INFO, logger="lcdep")
    out = tmp_path / "run"
    code, _, _ = run(["train-dmv", "--em-iters", "2", "--tol", "0",
                      "--out", str(out), path], capsys)
    assert code == 0
    rows = [line.split("\t") for line in
            (out / "metrics.tsv").read_text(encoding="utf-8").splitlines()]
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    for row in rows[1:]:
        assert len(row) == 5 and float(row[3]) > 0 and float(row[4]) > 0
    messages = [r.getMessage() for r in caplog.records]
    [initial] = [m for m in messages if m.startswith("initial M-step")]
    assert re.search(r" in \d+\.\d{3} s, after a \d+\.\d{3} s harmonic "
                     r"E-step$", initial)
    iterations = [m for m in messages if m.startswith("EM iteration")]
    assert len(iterations) == 2
    for message, row in zip(iterations, rows[1:]):
        e_s, m_s = re.search(r"E-step (\d+\.\d{3}) s, M-step .* in "
                             r"(\d+\.\d{3}) s$", message).groups()
        assert abs(float(e_s) - float(row[3])) <= 6e-4
        assert abs(float(m_s) - float(row[4])) <= 6e-4


def test_train_dmv_has_no_seed_option(corpus_file, tmp_path, capsys):
    # EM here is deterministic; a leftover seed is an error, not ignored
    path, _ = corpus_file
    cfg = tmp_path / "old.cfg"
    cfg.write_text("em-iters=1\nseed=3\n", encoding="utf-8")
    code, _, err = run(["train-dmv", "--config", str(cfg),
                        "--out", str(tmp_path / "run"), path], capsys)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: %s: unknown config key 'seed'" % cfg)
    with pytest.raises(SystemExit) as exc:
        main(["train-dmv", "--seed", "3", path])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


def test_train_dmv_has_no_jobs_option(corpus_file, tmp_path, capsys):
    # EM runs in one process: worker processes changed the objective and
    # were slower, so a leftover jobs setting is an error, not ignored
    path, _ = corpus_file
    cfg = tmp_path / "old.cfg"
    cfg.write_text("em-iters=1\njobs=2\n", encoding="utf-8")
    code, _, err = run(["train-dmv", "--config", str(cfg),
                        "--out", str(tmp_path / "run"), path], capsys)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: %s: unknown config key 'jobs'" % cfg)
    with pytest.raises(SystemExit) as exc:
        main(["train-dmv", "--jobs", "2", path])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


def test_train_dmv_has_no_iteration_cap_option(corpus_file, tmp_path, capsys):
    # the M-step runs to convergence under one fixed cap
    path, _ = corpus_file
    cfg = tmp_path / "old.cfg"
    cfg.write_text("em-iters=1\nlbfgs-iters=100\n", encoding="utf-8")
    code, _, err = run(["train-dmv", "--config", str(cfg),
                        "--out", str(tmp_path / "run"), path], capsys)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: %s: unknown config key 'lbfgs-iters'" % cfg)
    with pytest.raises(SystemExit) as exc:
        main(["train-dmv", "--lbfgs-iters", "3", path])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sigma2", ["0", "-1", "nan", "-inf"])
def test_train_dmv_rejects_a_prior_variance_that_is_not_positive(
        corpus_file, tmp_path, capsys, sigma2):
    path, _ = corpus_file
    out = tmp_path / "run"
    # fails before any pass runs: no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(["train-dmv", "--sigma2", sigma2, "--em-iters",
                            "1", "--out", str(out), path], capsys)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: ValueError: sigma2 must be positive, got %r" % float(sigma2))


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_parse_rejects_a_length_bias_that_is_not_finite(corpus_file,
                                                         tmp_path, capsys,
                                                         beta):
    path, _ = corpus_file
    out = tmp_path / "run"
    run(["train-dmv", "--init", "uniform", "--em-iters", "1",
         "--out", str(out), path], capsys)
    for value in (["--beta=" + beta], ["--beta", beta]):
        code, _, err = run(["parse", "--model", str(out / "model.txt"),
                            *value, path], capsys)
        assert code == 2
        assert err.splitlines()[-1] == (
            "error: ValueError: length_bias (beta) must be finite, got %r"
            % float(beta))


def test_a_value_that_starts_with_a_dash_is_the_options_value(
        corpus_file, tmp_path, capsys):
    # argparse alone reads "-1e-3" as an option, not a negative number
    path, _ = corpus_file
    models = []
    for k, beta in enumerate((["--beta", "-1e-3"], ["--beta=-1e-3"])):
        out = tmp_path / str(k)
        code, _, err = run(["train-dmv", *beta, "--em-iters", "1",
                            "--out", str(out), path], capsys)
        assert code == 0
        assert "beta=-0.001" in err
        models.append((out / "model.txt").read_text(encoding="utf-8"))
    assert models[0] == models[1]


def test_importing_the_cli_loads_no_scipy():
    # every command and benchmark worker imports the cli at start-up, where
    # scipy.optimize alone cost about 0.75 s; the process pools of
    # multiprocessing and concurrent.futures serve only `parse --jobs`
    src = os.path.dirname(os.path.dirname(lcdep.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import lcdep.cli, sys; print(sorted(m for m "
         "in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing') "
         "or m.startswith('concurrent.futures')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_parse_constraint_options_match_the_training_constraint_set(
        corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    out = tmp_path / "run"
    code, _, err = run(["train-dmv", "--root", "verbs", "--out", str(out),
                        path], capsys)
    assert code == 2
    assert err.splitlines()[-1] == "error: unknown root constraint 'verbs'"
    run(["train-dmv", "--init", "uniform", "--em-iters", "2",
         "--out", str(out), path], capsys)
    model = str(out / "model.txt")
    code, _, err = run(["parse", "--model", model, "--root", "verbs", path],
                       capsys)
    assert code == 2
    assert err.splitlines()[-1] == "error: unknown root constraint 'verbs'"

    pred_path = tmp_path / "pred.conll"
    code, _, _ = run(
        ["parse", "--model", model, "--root", "verb-or-noun",
         "--function-words", "DET", "--adp-head", "--out", str(pred_path),
         path],
        capsys,
    )
    assert code == 0
    cs = induction.TrainConfig(root_constraint="verb-or-noun",
                               function_words=("DET",),
                               adp_head=True).constraint_set()
    with open(model, encoding="utf-8") as handle:
        space, weights = induction.model_from_lines(handle.read().splitlines())
    want = induction.decode_constrained(space.weights_to_params(weights),
                                        corpus, cs)
    parsed = parse_conll(pred_path.read_text(encoding="utf-8"))
    assert [t.heads for t in parsed] == [t.heads for t in want]


def test_parse_names_the_first_sentence_without_a_derivation(
        corpus_file, tmp_path, capsys):
    # an ADP must head and the noun must be the root: ADP NOUN has no tree
    path, _ = corpus_file
    out = tmp_path / "run"
    run(["train-dmv", "--init", "uniform", "--em-iters", "1",
         "--out", str(out), path], capsys)
    sentences = tmp_path / "sentences.conll"
    sentences.write_text(serialize_conll([
        tree_from_heads((2, 0), tags=("DET", "NOUN"), forms=("a", "dog")),
        tree_from_heads((0, 1), tags=("ADP", "NOUN"), forms=("by", "car")),
    ]), encoding="utf-8")
    code, _, err = run(["parse", "--model", str(out / "model.txt"),
                        "--root", "verb-or-noun", "--adp-head",
                        str(sentences)], capsys)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: ValueError: no derivation has nonzero weight for sentence 1 "
        "of the corpus, tags ('ADP', 'NOUN')")


def test_parse_dmv_roundtrip(corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    out = tmp_path / "run"
    run(["train-dmv", "--init", "uniform", "--em-iters", "3",
         "--out", str(out), path], capsys)
    pred_path = tmp_path / "pred.conll"
    code, _, _ = run(
        ["parse", "--model", str(out / "model.txt"), "--out", str(pred_path),
         path],
        capsys,
    )
    assert code == 0
    parsed = parse_conll(pred_path.read_text(encoding="utf-8"))
    assert len(parsed) == len(corpus)
    assert [t.forms for t in parsed] == [t.forms for t in corpus]

    cfg = induction.TrainConfig(init="uniform", em_iterations=3)
    model = induction.train(corpus, cfg)
    want = induction.decode(model.params, corpus)
    assert [t.heads for t in parsed] == [t.heads for t in want]


def test_parse_constrained_dmv(corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    out = tmp_path / "run"
    run(["train-dmv", "--init", "uniform", "--em-iters", "2",
         "--out", str(out), path], capsys)
    pred_path = tmp_path / "pred.conll"
    code, _, _ = run(
        ["parse", "--model", str(out / "model.txt"), "--depth", "1",
         "--relax-c", "3", "--root", "verb-otherwise-noun",
         "--out", str(pred_path), path],
        capsys,
    )
    assert code == 0
    parsed = parse_conll(pred_path.read_text(encoding="utf-8"))
    # the verb-root constraint holds on every sentence that has a verb
    for tree in parsed:
        root_tag = tree.tags[tree.root - 1]
        if "VERB" in tree.tags:
            assert root_tag == "VERB"


def test_eval_uas_output(corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    code, out, _ = run(["eval-uas", path, path], capsys)
    assert code == 0
    assert out == "UAS\t100.0\n"


def test_eval_uas_mismatched_sizes(corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    short = tmp_path / "short.conll"
    short.write_text(serialize_conll(corpus[:2]), encoding="utf-8")
    code, _, err = run(["eval-uas", str(short), path], capsys)
    assert code == 2
    assert "mismatch" in err.splitlines()[-1]


def test_train_supervised_and_parse(corpus_file, tmp_path, capsys):
    path, corpus = corpus_file
    model_path = tmp_path / "parser.txt"
    code, _, _ = run(
        ["train-supervised", "--epochs", "6", "--beam", "4",
         "--features", "limited", "--seed", "0", "--out", str(model_path),
         path],
        capsys,
    )
    assert code == 0
    lines = model_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# perceptron-parser v1"

    # byte-identical to the library call
    model = supervised.train_perceptron(
        corpus, system=LEFT_CORNER, feature_set="limited", beam_size=4,
        epochs=6, seed=0,
    )
    assert lines == supervised.parser_to_lines(model)

    pred_path = tmp_path / "pred.conll"
    code, _, _ = run(
        ["parse", "--model", str(model_path), "--beam", "4",
         "--out", str(pred_path), path],
        capsys,
    )
    assert code == 0
    parsed = parse_conll(pred_path.read_text(encoding="utf-8"))
    want = supervised.decode_corpus(corpus, model, beam_size=4)
    assert [t.heads for t in parsed] == [t.heads for t in want]


def test_parse_defaults_to_the_parser_files_beam(tmp_path, capsys):
    rng = random.Random(0)
    corpus = []
    for k, n in enumerate((4, 6, 8, 5, 7, 9)):
        corpus.append(tree_from_heads(
            random_projective_tree(n, seed=k).heads,
            tags=[rng.choice("NVDAP") for _ in range(n)],
            forms=[rng.choice(("the", "dog", "saw", "in")) for _ in range(n)]))
    path = tmp_path / "in.conll"
    path.write_text(serialize_conll(corpus), encoding="utf-8")
    model_path = tmp_path / "parser.txt"
    code, _, _ = run(["train-supervised", "--epochs", "2", "--beam", "2",
                      "--features", "limited", "--out", str(model_path),
                      str(path)], capsys)
    assert code == 0
    model = supervised.parser_from_lines(
        model_path.read_text(encoding="utf-8").splitlines())
    want = [t.heads for t in supervised.decode_corpus(corpus, model)]
    # the corpus tells the beams apart
    assert want != [t.heads for t in supervised.decode_corpus(
        corpus, model, beam_size=8)]
    pred_path = tmp_path / "pred.conll"
    code, _, err = run(["parse", "--model", str(model_path), "--out",
                        str(pred_path), str(path)], capsys)
    assert code == 0
    parsed = parse_conll(pred_path.read_text(encoding="utf-8"))
    assert [t.heads for t in parsed] == want
    assert " beam=none " in err  # the echo does not claim a beam of its own
    # an explicit beam wins, and an invalid one is refused
    code, _, _ = run(["parse", "--model", str(model_path), "--beam", "8",
                      "--out", str(pred_path), str(path)], capsys)
    assert code == 0
    parsed = parse_conll(pred_path.read_text(encoding="utf-8"))
    assert [t.heads for t in parsed] != want
    code, _, err = run(["parse", "--model", str(model_path), "--beam", "0",
                        str(path)], capsys)
    assert code == 2
    assert "beam size must be at least 1" in err.splitlines()[-1]


def test_train_dmv_defaults_are_the_train_config_defaults(tmp_path):
    table = cli._command_table()
    ns = cli._build_parser(table).parse_args(["train-dmv", "in.conll"])
    resolved = cli._resolve(table["train-dmv"][0], ns)
    assert cli._train_config(resolved) == induction.TrainConfig()


def test_parse_dmv_defaults_are_the_train_config_defaults():
    table = cli._command_table()
    ns = cli._build_parser(table).parse_args(["parse", "in.conll"])
    cfg = cli._dmv_config(cli._resolve(table["parse"][0], ns))
    want = induction.TrainConfig()
    assert cfg.policy() == want.policy()
    assert cfg.constraint_set() == want.constraint_set()
    assert cfg.length_bias == want.length_bias


def test_parse_rejects_unknown_model_header(corpus_file, tmp_path, capsys):
    path, _ = corpus_file
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("# something-else\n", encoding="utf-8")
    code, _, err = run(["parse", "--model", str(bogus), path], capsys)
    assert code == 2
    assert "unrecognized model header" in err.splitlines()[-1]


def test_outputs_are_utf8(tmp_path, capsys):
    corpus = [tree_from_heads((0,), tags=("NOUN",), forms=("naïve",))]
    path = tmp_path / "uni.conll"
    path.write_text(serialize_conll(corpus), encoding="utf-8")
    out = tmp_path / "pred.conll"
    model_path = tmp_path / "m.txt"
    run(["train-supervised", "--epochs", "1", "--out", str(model_path),
         str(path)], capsys)
    code, _, _ = run(
        ["parse", "--model", str(model_path), "--out", str(out), str(path)],
        capsys,
    )
    assert code == 0
    assert "naïve" in out.read_text(encoding="utf-8")
