"""kornlab benchmark.

    python3 perfbench/run.py --workload {scan,crosscheck,blowup} --seed N
                             --seconds S --trace {0,1} [--threads T]

Run from the root of a kornlab checkout.  Every measurement happens in a
fresh `python3` process with PYTHONPATH=src and the BLAS thread count set
by --threads (default 1), whatever the calling environment holds.

--trace 0: whole rounds of the workload, one fresh process each, until
--seconds have passed (at least one round), then set-up-only processes
until SETUP_SAMPLES set-ups have been timed.  Prints the medians of
setup_s, wall_s, cpu_s and peak_rss_mb.

--trace 1: exactly one traced pass of each of the three workloads (so that
every per-layer metric is measured and every count repeats exactly),
with the spans written to perfbench/out/trace-<workload>.jsonl.
`attempted` and `failed` count the requested workload's operations.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A process that fails, or a tree without src/kornlab, ends the
run with a non-zero status and no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
TIME_LIMIT = 170.0          # seconds for one whole run, every process included


def load_metrics(kind):
    """Metric name -> unit for BENCHMARK.json's "end_to_end" or "per_layer" list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


END_TO_END = load_metrics("end_to_end")
PER_LAYER = load_metrics("per_layer")


class BenchError(RuntimeError):
    pass


def spawn(args, mode, workload, deadline):
    """Start one worker process, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env.pop("KORNLAB_THREADS", None)
    env["PYTHONPATH"] = "src"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(args.threads)
    trace_file = [os.path.join(OUT, "trace-%s.jsonl" % workload)] if mode == "trace" else []
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the %s %s process" % (workload, mode))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(args.seed), mode,
           repr(time.monotonic())] + trace_file
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s process ran out of time" % (workload, mode)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s %s process exited with %d:\n%s"
                         % (workload, mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def timed(args):
    deadline = time.monotonic() + TIME_LIMIT
    start = time.monotonic()
    rounds = []
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(spawn(args, "run", args.workload, deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, "setup", args.workload, deadline)["setup_s"])
    values = {"setup_s": statistics.median(setups)}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        values[name] = statistics.median(r[name] for r in rounds)
    unexpected = [u for r in rounds for u in r["unexpected"]]
    return (sum(r["attempted"] for r in rounds), sum(r["failed"] for r in rounds),
            unexpected, values, END_TO_END)


def traced(args):
    deadline = time.monotonic() + TIME_LIMIT
    os.makedirs(OUT, exist_ok=True)
    values = {name: 0 for name in PER_LAYER}
    imports, unexpected = [], []
    for workload in WORKLOADS:
        r = spawn(args, "trace", workload, deadline)
        if workload == args.workload:
            attempted, failed = r["attempted"], r["failed"]
        unexpected += r["unexpected"]
        values["trace.%s.wall_s" % workload] = r["wall_s"]
        for name, v in r["layers"].items():
            if name == "import.s":
                imports.append(v)
            elif name == "fields.BoxDomain.axis_rule.max_points":
                values[name] = max(values[name], v)
            elif name in PER_LAYER:
                values[name] += v
    values["import.s"] = statistics.median(imports)
    return attempted, failed, unexpected, values, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description="kornlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads in every worker process (default 1)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kornlab", "__init__.py")):
        print("run.py: no src/kornlab under %s; run from a kornlab checkout" % ROOT,
              file=sys.stderr)
        return 2
    try:
        attempted, failed, unexpected, values, units = (traced if args.trace else timed)(args)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    for problem in unexpected:
        print("run.py: check failed: %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
