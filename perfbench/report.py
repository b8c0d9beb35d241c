"""Human-readable summary of benchmark results.

    python3 perfbench/report.py [RESULTS_DIR]

Reads every result document that perfbench/run.py left in RESULTS_DIR
(default perfbench/results) and prints one row per workload and metric with
its unit, the median, the quartiles and the number of runs.  End-to-end rows
come from untraced runs, per-layer rows from traced runs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cnfbench.bench import END_TO_END_UNITS, per_layer_units  # noqa: E402


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    directory = argv[0] if argv else os.path.join(HERE, "results")
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            docs.append(json.load(handle))
    if not docs:
        print(f"no results in {directory}", file=sys.stderr)
        return 1
    for key in ("git_sha", "python", "nproc"):
        print(f"{key}: {', '.join(sorted({str(d.get(key)) for d in docs}))}")
    print(f"{'workload':15} {'metric':30} {'unit':6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'runs':>5}")
    for workload in sorted({d["workload"] for d in docs}):
        runs = [d for d in docs if d["workload"] == workload]
        for trace, key, units in ((0, "end_to_end", END_TO_END_UNITS),
                                  (1, "per_layer", per_layer_units())):
            chosen = [d[key] for d in runs if d["trace"] == trace]
            for name, unit in units.items() if chosen else ():
                q1, med, q3 = quartiles([c[name] for c in chosen])
                print(f"{workload:15} {name:30} {unit:6} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {len(chosen):5}")
        seeds = sorted({d["seed"] for d in runs})
        print(f"{workload:15} seeds {seeds}; correct in "
              f"{sum(d['correct'] for d in runs)}/{len(runs)} runs")
        for label in sorted({f for d in runs for f in d["failures"]}):
            texts = {d["failures"][label] for d in runs if label in d["failures"]}
            print(f"{workload:15} failed {label}: {' | '.join(sorted(texts))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
