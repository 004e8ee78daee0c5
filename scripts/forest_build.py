"""Cold-build throughput of the cached DMV chart forests.

For each chart: the left-corner chart at depth bound 1, cutoff 3 (D1/C3),
at D2/C2 and unbounded (which serves sentences with a must-head token and
no depth bound), and the head-split chart. One run empties the forest cache
(``induction.clear_forest_cache``) and then builds the forests of lengths
2-20 through ``induction._chart_forest``, in ascending order, as the
training corpus of the ``induce-depth1`` benchmark workload brings them.
The script prints one JSON line: per chart, the median CPU seconds of
``--runs`` runs (the build is single-threaded, and CPU time varies less
than wall time on a shared machine), the items and edges summed over the
lengths, and items/s and edges/s at that median.

Usage:
    PYTHONPATH=src python scripts/forest_build.py --runs 5
"""

import argparse
import json
import statistics
import time

from lcdep import induction
from lcdep.lc_chart import DepthPolicy

# chart -> the (policy, must_head) arguments of ``induction._chart_forest``
CHARTS = {"D1/C3": (DepthPolicy(1, 3), False),
          "D2/C2": (DepthPolicy(2, 2), False),
          "unbounded LC": (None, True), "head-split": (None, False)}
LENGTHS = range(2, 21)


def cold_build(policy, must_head):
    """(CPU seconds, items, edges) of building every length from an empty
    cache."""
    induction.clear_forest_cache()
    start = time.process_time()
    forests = [induction._chart_forest(n, policy, must_head)
               for n in LENGTHS]
    seconds = time.process_time() - start
    induction.clear_forest_cache()
    return (seconds, sum(f.n_items for f in forests),
            sum(f.n_edges for f in forests))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per chart; the median is reported")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    out = {"runs": args.runs, "lengths": [LENGTHS[0], LENGTHS[-1]]}
    for name, chart in CHARTS.items():
        runs = [cold_build(*chart) for _ in range(args.runs)]
        seconds = statistics.median(s for s, _, _ in runs)
        _, items, edges = runs[0]
        out[name] = {"seconds": round(seconds, 5), "items": items,
                     "edges": edges, "items_per_s": round(items / seconds),
                     "edges_per_s": round(edges / seconds)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
