"""Tests for the command-line interface.

Every command must produce byte-identical results to the direct library
calls it wraps, honor config files with flag overrides, and fail with a
one-line reason and nonzero exit status.
"""

import logging
import os
import re

import pytest

from lcdep import analysis, induction, supervised
from lcdep.cli import main
from lcdep.transition import LEFT_CORNER
from lcdep.treebank import parse_conll, serialize_conll, tree_from_heads


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
        ["train-dmv", "--em-iters", "2", "--lbfgs-iters", "3", "--tol", "0",
         "--out", str(tmp_path / "run"), path],
        capsys,
    )
    assert code == 0
    lines = [r.getMessage() for r in caplog.records
             if "L-BFGS iterations" in r.getMessage()]
    assert lines[0].startswith("initial M-step: 3 L-BFGS iterations, "
                               "not converged (status 1: ")
    assert [line.split(":")[0] for line in lines[1:]] == [
        "EM iteration 1", "EM iteration 2"]
    assert all("M-step 3 L-BFGS iterations, not converged" in line
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
