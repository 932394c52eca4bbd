#!/usr/bin/env python3
"""Entry point of the tfa end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload analyze_dense --seed 1 --seconds 25 --trace 0

Run from the repository root.  Builds the benchmark program (perfbench/CMakeLists.txt)
into .bench_build/perfbench on first use -- the build log goes to stderr --
then runs one workload.  The last line of stdout is tfa_perfbench's JSON
result; the exit code is tfa_perfbench's (0 only when every output check
passed).  Other options (--ops, --small) are passed to tfa_perfbench
unchanged.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tfa_perfbench")


def build():
    """Configures (once) and builds the benchmark program; exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tfa source tree next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "tfa_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["analyze_dense", "admit_churn", "serve_socket"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()

    build()
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket", os.path.relpath(os.path.join(BUILD, tag + ".sock")),
           "--trace-out", os.path.join(BUILD, "trace-" + tag + ".json")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
