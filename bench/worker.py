"""One workload in a fresh single-threaded process.

Builds the inputs from the seed, clears every lru_cache in lspace, runs
whole passes over the rounds of operations until --seconds of service
time have passed, checks every answer and prints one JSON line.  run.py
starts it with PYTHONPATH pointing at the source tree; with --setup-only
it stops where the timed phase would begin, which is how run.py measures
set-up time.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from array import array

import workloads

# enough operations that ten of them lie beyond the 90th percentile
MIN_OPS = 110
PROBLEMS_KEPT = 50


def measure(workload, seconds, tracer, times):
    """Closed loop: one operation after another, whole passes over all
    the workload's rounds at a time, until `seconds` of summed service
    time and MIN_OPS operations.  Every pass holds the same operations,
    so the seed and the run's length do not change the mix.  Work
    outside the operations (cache clearing, the checks) is not timed.  Appends
    the service times to `times` and returns the run's counts, the
    throughput of each pass and the first round's operations and
    answers."""
    mark = tracer.next_op if tracer else None
    run = {"rounds": 0, "attempted": 0, "failed": 0, "problems": [], "problem_count": 0,
           "elapsed_s": 0.0, "pass_throughputs": []}
    while True:
        ops_in_pass, pass_s = 0, 0.0
        for ops in workload.rounds:
            lat, results = workload.run_round(ops, mark)
            times.extend(lat)
            pass_s += sum(lat)
            ops_in_pass += len(ops)
            failed, problems = workload.check_round(ops, results)
            if not run["rounds"]:
                run["first"] = (ops, results)
            run["rounds"] += 1
            run["attempted"] += len(ops)
            run["failed"] += failed
            run["problem_count"] += len(problems)
            run["problems"] += problems[:PROBLEMS_KEPT - len(run["problems"])]
        run["elapsed_s"] += pass_s
        run["pass_throughputs"].append(ops_in_pass / pass_s)
        if run["elapsed_s"] >= seconds and len(times) >= MIN_OPS:
            return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for run output")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import lspace.cli  # noqa: F401  (loads every module the tracer wraps)

    if args.workload == "cli-batch":
        workload = workloads.CliBatch(args.seed, args.out)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.clear_caches()
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    times = array("d")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    run = measure(workload, args.seconds, tracer, times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {"ready": ready, "latency_samples": len(times),
           "metrics": {
               "throughput_per_s": statistics.median(run["pass_throughputs"]),
               "latency_p50_ms": statistics.median(times) * 1e3,
               "latency_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
               "peak_rss_mb": rss_mb}}
    if tracer:
        tracer.uninstall()
        answered = len(times) if args.workload == "cli-batch" else 0
        doc["layers"] = tracer.metrics(run["attempted"], answered)
        path = os.path.join(args.out, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        with open(path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    ops, results = run.pop("first")
    try:
        end_problems = workload.check_end(ops, results, random.Random(args.seed + 1))
    except Exception as exc:  # a check that cannot run is a failed check
        end_problems = ["end check raised %s: %s" % (type(exc).__name__, exc)]
    run["problem_count"] += len(end_problems)
    run["problems"] = (run["problems"] + end_problems)[:PROBLEMS_KEPT]
    doc.update(run, correct=run["problem_count"] == 0)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
