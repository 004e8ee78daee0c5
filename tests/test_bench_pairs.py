"""The summary arithmetic of ``scripts/bench_pairs.py``, on synthetic
results; no benchmark runs."""

import importlib.util
import json
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_quartiles_are_inclusive_and_take_one_value():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0,
                                                                4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_throughput_gain_is_claimed():
    pairs = [(100.0 + k, 130.0 + k) for k in range(10)]
    s = bench_pairs.summarize(pairs, "higher")
    assert s["parent"] == (102.25, 104.5, 106.75)
    assert s["change"] == (132.25, 134.5, 136.75)
    assert s["ratio"] == pytest.approx(134.5 / 104.5)
    assert (s["wins"], s["pairs"], s["gain"]) == (10, 10, True)


def test_ties_count_for_neither_side_and_lower_can_be_better():
    # 8 wins, 1 tie, 1 loss: below nine tenths of the pairs
    pairs = [(10.0, 9.0)] * 8 + [(10.0, 10.0), (10.0, 11.0)]
    s = bench_pairs.summarize(pairs, "lower")
    assert (s["wins"], s["gain"]) == (8, False)
    assert bench_pairs.summarize(pairs, "higher")["wins"] == 1


def test_a_gain_within_the_parent_spread_is_not_claimed():
    # the change wins every pair, but by less than the parent's quartile
    # distance
    pairs = [(float(p), p + 0.5) for p in (1, 5, 9, 2, 6, 10, 3, 7, 11, 4)]
    s = bench_pairs.summarize(pairs, "higher")
    assert s["wins"] == 10
    assert s["change"][1] - s["parent"][1] == 0.5
    assert not s["gain"]


def test_sides_alternate_starting_with_the_parent():
    assert [bench_pairs.order(k)[0] for k in range(4)] == [
        bench_pairs.PARENT, bench_pairs.CHANGE, bench_pairs.PARENT,
        bench_pairs.CHANGE]


def test_rows_name_metric_unit_and_wins():
    s = bench_pairs.summarize([(1.0, 2.0)], "higher")
    header, row = bench_pairs.format_rows({"train_tok_per_s": s},
                                          {"train_tok_per_s": "tok/s"})
    assert header.split("\t")[0] == "metric"
    assert header.split("\t")[-1] == "verdict"
    assert row.split("\t") == ["train_tok_per_s (tok/s)", "1 [1, 1]",
                               "2 [2, 2]", "2.000", "1/1", "yes", "gain"]


def test_a_median_worse_beyond_the_bound_is_worse():
    # throughput down 30 % against a 25 % bound
    pairs = [(100.0 + k, 70.0 + k) for k in range(10)]
    assert bench_pairs.summarize(pairs, "higher", 0.25)["verdict"] == "worse"
    # set-up time up 40 %, in a metric where lower is better
    pairs = [(0.25, 0.35)] * 5
    assert bench_pairs.summarize(pairs, "lower", 0.25)["verdict"] == "worse"
    # worse is checked first, so a wide spread cannot hide it
    pairs = [(100.0, 10.0), (100.0, 200.0), (100.0, 20.0)]
    s = bench_pairs.summarize(pairs, "higher", 0.25)
    assert s["change"][1] == 20.0 and s["verdict"] == "worse"


def test_a_loss_within_the_bound_is_the_same():
    pairs = [(100.0 + k, 90.0 + k) for k in range(10)]
    s = bench_pairs.summarize(pairs, "higher", 0.25)
    assert (s["wins"], s["verdict"]) == (0, "same")


def test_a_wide_spread_on_either_side_is_unresolved():
    wide = [50.0, 150.0, 80.0, 120.0, 100.0]
    tight = [99.0, 100.0, 101.0, 100.0, 100.0]
    for parent, change in ((wide, tight), (tight, wide)):
        s = bench_pairs.summarize(list(zip(parent, change)), "higher", 0.25)
        assert s["verdict"] == "unresolved"
        # the same runs under a looser bound are resolved
        assert bench_pairs.summarize(list(zip(parent, change)), "higher",
                                     1.0)["verdict"] == "same"


def test_a_change_beating_every_parent_run_is_resolved_despite_spread():
    parent = [50.0, 150.0, 80.0, 120.0, 100.0]
    change = [400.0, 160.0, 300.0, 200.0, 250.0]  # above every parent run
    s = bench_pairs.summarize(list(zip(parent, change)), "higher", 0.25)
    assert (s["wins"], s["gain"], s["verdict"]) == (5, True, "gain")
    # one change run below a parent run: back to unresolved
    change[1] = 140.0
    s = bench_pairs.summarize(list(zip(parent, change)), "higher", 0.25)
    assert s["verdict"] == "unresolved"


def test_a_clear_gain_within_the_bound_is_a_gain():
    pairs = [(100.0 + k, 130.0 + k) for k in range(10)]
    assert bench_pairs.summarize(pairs, "higher", 0.25)["verdict"] == "gain"


def _main(tmp_path, monkeypatch, change_value):
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s",
                            "better": "lower", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_bench(checkout, workload, seed, seconds):
        value = change_value if checkout == tmp_path else 1.0
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {"setup_s": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    bench_pairs.main([str(tmp_path.parent), str(tmp_path), "--workload",
                      "w", "--pairs", "3"])


def test_main_exits_nonzero_when_a_metric_is_worse(tmp_path, monkeypatch,
                                                   capsys):
    _main(tmp_path, monkeypatch, 1.1)  # within the bound: returns
    assert capsys.readouterr().out.splitlines()[-1].endswith("\tsame")
    with pytest.raises(SystemExit) as exc:
        _main(tmp_path, monkeypatch, 1.5)
    assert exc.value.code == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("\tworse")
