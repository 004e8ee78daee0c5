"""Paired benchmark runs of two checkouts of this repository.

Runs ``bench/run.py`` in a parent checkout and in a change checkout, one
after the other, for a number of pairs: the parent runs first in even pairs
and the change first in odd ones, so drift in the machine's load hits both
sides alike.  For every end-to-end metric named in the change's
``BENCHMARK.json`` it then prints each side's median and quartiles, the
ratio of the medians, and how many pairs the change won (ties count for
neither side).  ``gain`` marks a metric whose change won at least nine
tenths of the pairs and whose medians differ, in the better direction, by
more than the distance between the parent's quartiles.

The ``verdict`` column applies each metric's ``bound`` from
``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more than
  bound x the parent's median;
- ``unresolved``: not worse, but either side's (q3 - q1) / median is above
  the bound, unless every change run beats every parent run;
- ``gain``: as above;
- ``same``: otherwise.

The script exits with status 1 when any metric is ``worse``.

Usage:
    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload induce-depth1 --pairs 10 --seed 1 --seconds 60
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

PARENT, CHANGE = "parent", "change"


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def spread(q):
    """(q3 - q1) / median of quartiles ``q``."""
    if q[1]:
        return (q[2] - q[0]) / abs(q[1])
    return math.inf if q[2] > q[0] else 0.0


def summarize(pairs, better, bound=math.inf):
    """Summary of one metric over (parent value, change value) pairs;
    ``better`` is "higher" or "lower", and ``bound`` the metric's relative
    bound (no bound: never ``worse`` or ``unresolved``)."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = (wins >= 0.9 * len(pairs)
            and sign * (cq[1] - pq[1]) > pq[2] - pq[0])
    sweep = (min(sign * c for c in change) > max(sign * p for p in parent))
    if sign * (cq[1] - pq[1]) < -bound * abs(pq[1]):
        verdict = "worse"
    elif max(spread(pq), spread(cq)) > bound and not sweep:
        verdict = "unresolved"
    else:
        verdict = "gain" if gain else "same"
    return {"parent": pq, "change": cq,
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "wins": wins, "pairs": len(pairs), "gain": gain,
            "verdict": verdict}


def run_bench(checkout, workload, seed, seconds):
    """The JSON result of one ``bench/run.py`` run in ``checkout``, or None
    when the run failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print("%s: bench/run.py exited with %d\n%s"
              % (checkout, proc.returncode, proc.stderr), file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def order(k):
    """Which side runs first in pair ``k``."""
    return (PARENT, CHANGE) if k % 2 == 0 else (CHANGE, PARENT)


def format_rows(summaries, units):
    rows = ["metric\tparent median [q1, q3]\tchange median [q1, q3]\t"
            "change/parent\twins\tgain\tverdict"]
    for name, s in summaries.items():
        rows.append("%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.3f\t"
                    "%d/%d\t%s\t%s" % (name, units[name], s["parent"][1],
                                       s["parent"][0], s["parent"][2],
                                       s["change"][1], s["change"][0],
                                       s["change"][2], s["ratio"], s["wins"],
                                       s["pairs"],
                                       "yes" if s["gain"] else "no",
                                       s["verdict"]))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in better}
    checkouts = {PARENT: args.parent, CHANGE: args.change}
    for k in range(args.pairs):
        res = {}
        for side in order(k):
            res[side] = run_bench(checkouts[side], args.workload, args.seed,
                                  args.seconds)
        if None in res.values():
            print("pair %d: a run failed; pair dropped" % k, file=sys.stderr)
            continue
        line = ["pair %d" % k]
        for side in (PARENT, CHANGE):
            r = res[side]
            line.append("%s correct=%s failed=%d/%d" % (
                side, r["correct"], r["failed"], r["attempted"]))
        for name in values:
            pv, cv = (res[side]["metrics"][name]["value"]
                      for side in (PARENT, CHANGE))
            values[name].append((pv, cv))
            line.append("%s %.4g/%.4g" % (name, pv, cv))
        print("  ".join(line), flush=True)
    if not any(values.values()):
        sys.exit("no pair completed")
    summaries = {name: summarize(pairs, better[name], bounds[name])
                 for name, pairs in values.items()}
    print("\n".join(format_rows(summaries, units)))
    if any(s["verdict"] == "worse" for s in summaries.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
