"""One fresh benchmark process: set up, run one workload once, check it.

    python3 perfbench/worker.py WORKLOAD SEED MODE T0 [TRACE_FILE]

MODE is "setup" (import and build the inputs, then stop), "run" or
"trace".  T0 is time.monotonic() read by the parent just before it started
this process, so setup_s covers interpreter start, the kornlab import and
building the inputs.  The result is printed as one JSON line, last on
stdout; the CLI reports the workload produces are captured, not printed.
"""

import json
import resource
import sys
import time

import workloads


def run_ops(ops):
    results = []
    for op in ops:
        try:
            results.append((True, op.call()))
        except Exception as exc:        # a raising call is a failed operation
            results.append((False, "%s raised %s: %s" % (op.name, type(exc).__name__, exc)))
    return results


def main(argv):
    workload, seed, mode, t0 = argv[1], int(argv[2]), argv[3], float(argv[4])
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        rec = tracer.begin("import")
    import kornlab
    import kornlab.cli  # noqa: F401  (the scan workload's entry point)
    if tracer is not None:
        tracer.end(rec)
        tracer.install()
    ops = workloads.build(workload, seed)
    setup_s = time.monotonic() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = run_ops(ops)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    observed = tracer.observed if tracer is not None else None
    problems = workloads.check(workload, ops, results, observed)
    unexpected = ["%s: %s" % (op.name, "; ".join(p)) for op, p in zip(ops, problems)
                  if p and op.name not in workloads.KNOWN_FAULTS]
    out = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops), "failed": sum(1 for p in problems if p),
        "unexpected": unexpected,
    }
    if tracer is not None:
        layers = tracer.metrics()
        if workload == "scan":
            layers["cli.report_bytes"] = sum(len(res[1].encode("utf-8"))
                                             for ok, res in results if ok)
        out["layers"] = layers
        tracer.dump(argv[5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
