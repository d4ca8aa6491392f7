"""Run-to-run spread and set-to-set drift of the end-to-end metrics.

    python3 perfbench/spread.py --label a
    python3 perfbench/spread.py --compare a b

The first form runs run.py once for each of seeds 1 to 10 and each
workload in BENCHMARK.json (seed-major, so a slow spell of the machine
touches every workload), with the run length from BENCHMARK.json, and
saves every result to perfbench/out/spread-<label>.json.  It prints, per
workload and metric, the median, the quartiles of
statistics.quantiles(values, n=4) and their distance as a share of the
median, next to the metric's bound.  The second form prints how far each
median of set b lies from the one of set a, as a share of a's median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SEEDS = range(1, 11)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def collect(spec, label):
    results = {w["name"]: [] for w in spec["workloads"]}
    for seed in SEEDS:
        for w in results:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(result)
            print("seed %d %-10s %s" % (seed, w, json.dumps(result)), flush=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "spread-%s.json" % label), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return results


def summary(spec, results):
    print("%-10s %-12s %10s %10s %10s %8s %6s  failed/attempted"
          % ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w, runs in results.items():
        share = "%d/%d" % (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print("%-10s %-12s %10.4f %10.4f %10.4f %8.4f %6.3f  %s"
                  % (w, m["name"], med, q1, q3, (q3 - q1) / med, m["bound"], share))


def compare(spec, a, b):
    print("%-10s %-12s %10s %10s %8s %6s" % ("workload", "metric", "median a", "median b",
                                             "drift", "bound"))
    for w in a:
        for m in spec["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[w])
            print("%-10s %-12s %10.4f %10.4f %8.4f %6.3f"
                  % (w, m["name"], ma, mb, (mb - ma) / ma, m["bound"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for label in args.compare:
            with open(os.path.join(OUT, "spread-%s.json" % label), encoding="utf-8") as fh:
                sets.append(json.load(fh))
        compare(spec, *sets)
        return 0
    if not args.label:
        parser.error("--label or --compare is required")
    summary(spec, collect(spec, args.label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
