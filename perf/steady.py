#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds, interleaved
across workloads, and report each end-to-end metric's median, quartiles
and spread (interquartile distance as a share of the median) against
the bound BENCHMARK.json fixes for it.

    python3 perf/steady.py [--runs 10] [--seconds N] [--workload W ...]

Run from the root of a source checkout. The raw results are written to
.bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in workloads:
            cmd = [sys.executable, os.path.join(ROOT, "perf", "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if res.returncode != 0:
                sys.stderr.write(res.stdout[-2000:] + res.stderr[-2000:])
                sys.exit("run failed: %s seed %d" % (w, seed))
            metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
            for m in bounds:
                values[w][m].append(metrics[m]["value"])
            print("%s seed %d done" % (w, seed), file=sys.stderr)
    report = {}
    print("%-13s %-22s %12s %12s %12s %7s %6s" %
          ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w in workloads:
        report[w] = {}
        for m, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            report[w][m] = {"values": vs, "q1": q1, "median": med, "q3": q3,
                            "spread": spread, "bound": bounds[m]}
            flag = "" if spread < bounds[m] / 3 else " <-- over a third"
            print("%-13s %-22s %12.5g %12.5g %12.5g %7.3f %6.2f%s" %
                  (w, m, q1, med, q3, spread, bounds[m], flag))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
