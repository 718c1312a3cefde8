"""Run one workload of the lspace benchmark and print its metrics.

    python3 bench/run.py --workload glue-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source tree.  Each workload runs in its own fresh
Python process against src/ (worker.py).  With --trace 0 the last line
of output is a JSON object with the end-to-end metrics; set-up time is
the median over SETUP_RUNS fresh processes, half of them started before
the timed run and half after, so that they sample the machine over the
whole run rather than one moment of it.  With --trace 1 it holds the
per-layer metrics of one traced run.  Full results and the traced spans
are written under bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SETUP_RUNS = 11
TIMEOUT_S = 150

UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def start_worker(args, setup_only):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, os.path.join(BENCH, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if setup_only:
        argv.append("--setup-only")
    began = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=TIMEOUT_S, check=False, text=True)
    if proc.returncode != 0:
        sys.exit("worker exited with code %d" % proc.returncode)
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc["ready"] - began
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lspace", "__init__.py")):
        sys.exit("no lspace source tree at %s" % os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)

    before = 0 if args.trace else SETUP_RUNS // 2
    setups = [start_worker(args, True)["setup_s"] for _ in range(before)]
    doc = start_worker(args, False)
    setups.append(doc["setup_s"])
    if not args.trace:
        setups += [start_worker(args, True)["setup_s"] for _ in range(SETUP_RUNS - 1 - before)]

    if args.trace:
        metrics = doc["layers"]
    else:
        values = dict(doc["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}
    doc.update(workload=args.workload, seed=args.seed, trace=args.trace,
               setup_runs_s=setups, python=sys.version.split()[0],
               nproc=os.cpu_count())
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)

    print("%s seed %d: %d attempted, %d failed, correct %s"
          % (args.workload, args.seed, doc["attempted"], doc["failed"], doc["correct"]))
    for problem in doc["problems"]:
        print("  problem: " + problem)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
