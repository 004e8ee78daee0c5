"""Run one benchmark workload.

    python3 bench/run.py --workload induce-depth1 --seed 1 --seconds 60 --trace 0

Draws the workload's inputs from the seed and writes them as CoNLL text
under ``bench-out/``.  SETUP_PROBES fresh worker processes then only set
up (start Python, import the program, read the inputs), to time set-up.
One more fresh worker sets up the same way and then forks one child per
round, until the next round would end past ``--seconds`` (at least
MIN_ROUNDS).  Every child starts with the program imported but every cache
empty, trains and decodes.  Workers run with a fixed PYTHONHASHSEED.
``setup_s`` is the median over the set-ups, every other metric the median
over the rounds.  The first round that runs to its end also checks the
outputs.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import corpus
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench-out"
MIN_ROUNDS = 3
SETUP_PROBES = 1  # fresh processes that only set up
LIMIT_S = 150  # no round starts or runs on past this, so a run ends in time


def spawn(args, data, timeout, extra=()):
    """Run ``worker.py`` in a fresh process with a fixed PYTHONHASHSEED;
    returns its JSON result, or None if it failed or ran past ``timeout``.
    The worker runs in its own process group, so a timeout also stops the
    rounds it forked."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--data", str(data), *extra,
           "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print("worker stopped after %.0f s" % timeout, file=sys.stderr)
    finally:
        # stop the worker, if still running, and anything left in its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        return None
    if proc.returncode != 0:
        print("worker exited with %d" % proc.returncode, file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lcdep" / "__init__.py").is_file():
        sys.exit("no program to measure: %s/src/lcdep is missing" % ROOT)

    train, heldout = workloads.make_inputs(args.workload, args.seed)
    data = OUT / ("%s-seed%d" % (args.workload, args.seed))
    data.mkdir(parents=True, exist_ok=True)
    texts = {"train.conll": corpus.to_conll(train),
             "heldout.conll": corpus.to_conll(heldout)}
    for name, text in texts.items():
        (data / name).write_text(text)
    print("inputs %s: train %s, held-out %s" % (
        data.relative_to(ROOT), corpus.digest(texts["train.conll"]),
        corpus.digest(texts["heldout.conll"])))

    started = time.monotonic()

    def left():
        return LIMIT_S - (time.monotonic() - started)

    trace = ["--trace", str(data)] if args.trace else []
    setups = []
    for _ in range(SETUP_PROBES):
        res = spawn(args, data, left())
        if res is None:
            sys.exit("set-up failed")
        setups.append(res["setup_s"])
    # one round in a process of its own, which checks the outputs and
    # shows a user's peak resident set
    res = spawn(args, data, left(), ["--check", "1", *trace])
    if res is None:
        sys.exit("the checked round failed")
    setups.append(res["setup_s"])
    checked = res["rounds"][0]
    # the other rounds, forked from one more fresh worker
    res = spawn(args, data, left() + 10, [
        "--rounds", str(MIN_ROUNDS), "--until", repr(started + args.seconds),
        "--limit", repr(started + LIMIT_S), *trace])
    if res is None:
        sys.exit("the rounds' worker failed")
    setups.append(res["setup_s"])
    results, failed_rounds = [checked] + res["rounds"], res["failed"]
    problems = checked["problems"] + [
        "forked round %d decoded other trees than the checked round" % k
        for k, r in enumerate(res["rounds"], 1)
        if r["outputs"] != checked["outputs"]]
    for p in problems:
        print("CHECK FAILED: %s" % p, file=sys.stderr)

    per_round = len(workloads.phases(args.workload))
    rounds = len(results) + failed_rounds
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name]["value"]
                                              for r in results),
                   "unit": layer["unit"]}
            for name, layer in checked["layers"].items()
        }
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "train_tok_per_s": (statistics.median(
                r["train_tok_per_s"] for r in results), "tok/s"),
            "parse_tok_per_s": (statistics.median(
                r["parse_tok_per_s"] for r in results), "tok/s"),
            "peak_rss_mb": (checked["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * per_round,
        "failed": failed_rounds * per_round,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
