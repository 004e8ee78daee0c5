"""The summary arithmetic of ``scripts/bench_pairs.py``, on synthetic
results; no benchmark runs."""

import importlib.util
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
    assert row.split("\t") == ["train_tok_per_s (tok/s)", "1 [1, 1]",
                               "2 [2, 2]", "2.000", "1/1", "yes"]
