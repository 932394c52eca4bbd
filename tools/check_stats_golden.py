#!/usr/bin/env python3
"""Pin the analysis work counters of `tfa_tool analyze --stats`.

For every example set below, runs

    tfa_tool analyze <set> --stats
    tfa_tool analyze <set> --stats --metrics-out <workdir>/<set>.metrics.json

and checks that the work-counter rows of the `--stats` table (Smax passes,
prefix bounds, test points, busy-period iterations, warm-seeded entries,
cache hits / misses) are identical between the two runs -- a run with a
telemetry sink must do the same work as one without -- and equal to the
committed golden values in GOLDEN.

The counters are a deterministic function of the input and the engine's
algorithm, independent of worker count and machine.  A change that alters
them on purpose (a cheaper fixed point, a pruned candidate sweep) updates
GOLDEN in the same change and says so in CHANGES.md.

Usage: check_stats_golden.py TFA_TOOL DATA_DIR WORKDIR
(exits non-zero listing every mismatch; wired into ctest as
`obs_stats_golden`).
"""

import re
import subprocess
import sys
from pathlib import Path

ROWS = (
    "Smax fixed-point passes",
    "prefix bounds evaluated",
    "test points evaluated",
    "busy-period iterations",
    "warm-seeded Smax entries",
    "cache hits / misses",
)

GOLDEN = {
    "paper_example.txt": ("3", "65", "74", "0", "0", "0 / 0"),
    "campus.txt": ("2", "45", "45", "0", "0", "0 / 0"),
}

TABLE_ROW = re.compile(r"^\|\s*(.+?)\s*\|\s*(.+?)\s*\|$")


def counters(argv):
    """Runs tfa_tool and returns the ROWS values of its --stats table."""
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    table = {}
    for line in proc.stdout.splitlines():
        m = TABLE_ROW.match(line.strip())
        if m:
            table[m.group(1)] = m.group(2)
    missing = [row for row in ROWS if row not in table]
    if missing:
        raise RuntimeError(f"{' '.join(argv)}: no --stats row for {missing}")
    return tuple(table[row] for row in ROWS)


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    tool, data_dir, workdir = argv[1], Path(argv[2]), Path(argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    errors = []
    for name, golden in GOLDEN.items():
        path = str(data_dir / name)
        try:
            plain = counters([tool, "analyze", path, "--stats"])
            sinked = counters([tool, "analyze", path, "--stats",
                               "--metrics-out",
                               str(workdir / f"{name}.metrics.json")])
        except RuntimeError as err:
            errors.append(str(err))
            continue
        for row, p, s, g in zip(ROWS, plain, sinked, golden):
            if p != s:
                errors.append(f"{name}: '{row}' is {p} without a sink but "
                              f"{s} with --metrics-out")
            if p != g:
                errors.append(f"{name}: '{row}' is {p}, golden is {g}")
    for err in errors:
        print(f"check_stats_golden: {err}", file=sys.stderr)
    if not errors:
        print(f"check_stats_golden: {len(GOLDEN)} sets match the golden "
              "work counters")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
