"""The benchmark's worker process.

Run by ``run.py``; not meant to be called by hand.  It imports the program
from ``src/`` of the checkout and reads the CoNLL inputs with
``treebank.parse_conll``; that is the set-up a user's process pays.
``--spawned`` is the monotonic clock reading ``run.py`` took just before it
started this process, so set-up time counts interpreter start-up, imports
and reading the inputs.

With ``--check 1`` the worker then runs one round itself and checks its
outputs; this round alone shows a user's peak resident set, since it ran
in a process of its own.  With ``--rounds N`` it then forks one child per
round until a round would end past ``--until`` (at least N rounds, none
past ``--limit``).  Each child starts with the program imported and the
inputs read but with every cache empty, as a user's process does after
set-up; it trains, decodes, reports one JSON object through a pipe and
exits.  The worker prints one JSON object: its set-up time, the results of
the rounds that ran to their end, and the number of forked rounds that did
not.
"""

import argparse
import hashlib
import importlib
import json
import os
import pathlib
import select
import signal
import statistics
import sys
import time
import traceback

import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("treebank", "transition", "exhaustive", "sbg", "hypergraph",
           "lc_chart", "induction", "supervised")


def phase_layers(stats):
    """Wall and CPU seconds of training and of all decoding; a CPU-to-wall
    ratio above 1 shows threads the program did not ask for."""
    out = {}
    for key, names in (("train", ["train"]),
                       ("parse", [p for p in stats if p != "train"])):
        wall = sum(stats[p][0] for p in names)
        cpu = sum(stats[p][1] for p in names)
        out["process.%s_wall_s" % key] = {"value": wall, "unit": "s"}
        out["process.%s_cpu_s" % key] = {"value": cpu, "unit": "s"}
        out["process.%s_cpu_per_wall" % key] = {"value": cpu / wall,
                                                "unit": "ratio"}
    return out


def one_round(args, lcdep, train, heldout, tracer, k, check):
    """Train and decode once; returns the round's result dict."""
    if tracer:
        tracer.active = True
    stats, outputs, model = workloads.run_phases(
        args.workload, lcdep, train, heldout)
    train_tps, parse_tps = workloads.throughputs(
        args.workload, train, heldout, stats)
    result = {
        "train_tok_per_s": train_tps,
        "parse_tok_per_s": parse_tps,
        "phases": stats,
        "outputs": hashlib.sha256(repr(outputs).encode()).hexdigest()[:16],
        "problems": [],
    }
    if tracer:
        tracer.stop()
    if check:
        # a forked child shares its parent's pages, so only a process that
        # set up and ran the round alone shows a user's peak
        result["peak_rss_mb"] = workloads.peak_rss_mb()
        gold = workloads.make_inputs(args.workload, args.seed)
        problems = workloads.check(args.workload, lcdep, model, outputs, gold)
        parsed = [[(t.tags, t.heads) for t in c] for c in (train, heldout)]
        drawn = [[(tr[0], tr[1]) for tr in c] for c in gold]
        if parsed != drawn:
            problems.append("parse_conll did not read back the drawn trees")
        result["problems"] = problems
    if tracer:
        result["layers"] = tracer.layers()
        result["layers"].update(phase_layers(stats))
        tracer.dump(pathlib.Path(args.trace) / ("trace-round%d.json" % k))
    return result


def fork_round(args, lcdep, train, heldout, tracer, k, timeout):
    """Run one round in a forked child; its result, or None if the child
    failed or ran past ``timeout`` seconds.

    The worker has trained and decoded nothing before it forks; its only
    other threads are OpenBLAS's idle pool, which OpenBLAS resets around
    fork.  ``run.py`` checks that every forked round decodes the same trees
    as the checked round of a fresh process."""
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            res = one_round(args, lcdep, train, heldout, tracer, k, False)
            with os.fdopen(w, "w") as out:
                out.write(json.dumps(res))
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    chunks, end = [], time.monotonic() + timeout
    with os.fdopen(r, "rb") as pipe:
        while True:
            left = end - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                print("round %d timed out" % k, file=sys.stderr)
                return None
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        print("round %d exited with status %d" % (k, status), file=sys.stderr)
        return None
    return json.loads(b"".join(chunks))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--until", type=float, default=0.0)
    ap.add_argument("--limit", type=float, default=0.0)
    ap.add_argument("--trace", default="")
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    sys.path.insert(0, str(ROOT / "src"))
    lcdep = {m: importlib.import_module("lcdep." + m) for m in MODULES}
    src = pathlib.Path(lcdep["treebank"].__file__).resolve()
    if src.parent != ROOT / "src" / "lcdep":
        sys.exit("lcdep imported from %s, not from this checkout" % src)
    if tracer:
        tracer.install(lcdep)
    data = pathlib.Path(args.data)
    parse = lcdep["treebank"].parse_conll
    train = parse((data / "train.conll").read_text())
    heldout = parse((data / "heldout.conll").read_text())
    setup_s = time.monotonic() - args.spawned
    if tracer:
        tracer.stop()

    results, failed, durations = [], 0, []
    if args.check:
        results.append(one_round(args, lcdep, train, heldout, tracer, 0, True))
    while args.rounds:
        k = len(durations)
        t0 = time.monotonic()
        end = t0 + (statistics.median(durations) if durations else 0.0)
        if k >= args.rounds and end > args.until:
            break
        if k and end > args.limit:
            break
        res = fork_round(args, lcdep, train, heldout, tracer, k + 1,
                         args.limit - t0)
        durations.append(time.monotonic() - t0)
        if res is None:
            failed += 1
            continue
        results.append(res)
        print("round %d: %.1f s, outputs %s, train %.4g tok/s, parse %.4g "
              "tok/s" % (k + 1, durations[-1], res["outputs"],
                         res["train_tok_per_s"], res["parse_tok_per_s"]),
              file=sys.stderr)
    print(json.dumps({"setup_s": setup_s, "rounds": results,
                      "failed": failed}))


if __name__ == "__main__":
    main()
