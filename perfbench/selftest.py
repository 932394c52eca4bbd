#!/usr/bin/env python3
"""Exact-repeat self-test of the benchmark (see perfbench/README.md).

    python3 perfbench/selftest.py

Run from the repository root.  Runs every workload at its small size with
a fixed op count, twice with one seed and once with another.  Passes when
every run's output checks pass, the two same-seed runs print identical
`counts` lines (test points, passes, merges and splits, analysed flows,
memo hits, response bytes and the output digest), and the other seed
gives a different digest.  Exits 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {"analyze_dense": 60, "admit_churn": 600, "serve_socket": 400}


def counts(workload, seed, ops):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0", "--small",
           "--ops", str(ops)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        print("FAIL %s seed %d: run failed (exit %d)" %
              (workload, seed, p.returncode))
        print("\n".join(p.stderr.splitlines()[-10:] + lines[-10:]))
        return None
    for line in lines:
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    print("FAIL %s seed %d: no counts line" % (workload, seed))
    return None


def main():
    ok = True
    for workload, ops in WORKLOADS.items():
        a = counts(workload, 7, ops)
        b = counts(workload, 7, ops)
        c = counts(workload, 8, ops)
        if a is None or b is None or c is None:
            ok = False
            continue
        if a != b:
            diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b)
                    if a.get(k) != b.get(k)}
            print("FAIL %s: same seed, different counts: %s" % (workload, diff))
            ok = False
        elif a["digest"] == c["digest"]:
            print("FAIL %s: seeds 7 and 8 give the same digest" % workload)
            ok = False
        else:
            print("ok   %s: %s" % (workload, json.dumps(a, sort_keys=True)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
