#!/usr/bin/env python3
"""Steadiness check of the benchmark (see perfbench/README.md).

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b]
                                [--seed 1] [--seconds S] [--trace 0|1]

Run from the repository root.  Runs every workload --runs times per set,
alternating the workload order from one round to the next and giving each
run its own seed (--seed, --seed + 1, ...).  Per workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4), the
interquartile spread as a share of the median, and (max - min) / median.
An end-to-end metric whose interquartile spread exceeds its bound in
BENCHMARK.json is flagged SPREAD (setup_s too).  With --sets 2 or more,
every set is summarised, each set takes the next --runs seeds, and a
metric whose median in a later set is worse than the first set's by more
than its bound is flagged DRIFT.  Exits 1 when anything is flagged or a
run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
        print("\n".join(lines[-12:]))
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("run reported failures: " + " ".join(cmd))
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    iqr = (q3 - q1) / med if med else float("inf")
    rng = (max(values) - min(values)) / med if med else float("inf")
    return med, q1, q3, iqr, rng


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    # samples[set][workload][metric] -> list of values
    samples = []
    ok = True
    for s in range(args.sets):
        per = {w: {} for w in workloads}
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                got = run_once(w, args.seed + s * args.runs + r, seconds,
                               args.trace)
                if got is None:
                    ok = False
                    continue
                for k, v in got.items():
                    per[w].setdefault(k, []).append(v)
        samples.append(per)

    for w in workloads:
        for i, per in enumerate(samples):
            print("\n== %s (set %d of %d)" % (w, i + 1, len(samples)))
            print("  %-36s %14s %14s %14s %8s %8s %6s" %
                  ("metric", "median", "q1", "q3", "iqr/med", "rng/med",
                   "bound"))
            for name, values in per[w].items():
                if len(values) < 2:
                    continue
                med, q1, q3, iqr, rng = spread(values)
                bound = metrics.get(name, {}).get("bound")
                flag = ""
                if bound is not None and iqr > bound:
                    flag = " SPREAD"
                    ok = False
                first = samples[0][w].get(name, [])
                if i > 0 and bound is not None and len(first) >= 2:
                    m1 = statistics.median(first)
                    worse = ((m1 - med) / m1
                             if metrics[name]["better"] == "higher"
                             else (med - m1) / m1)
                    if worse > bound:
                        flag += " DRIFT(%.3f)" % worse
                        ok = False
                print("  %-36s %14.4f %14.4f %14.4f %8.4f %8.4f %6s%s" %
                      (name, med, q1, q3, iqr, rng,
                       "" if bound is None else "%.2f" % bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
