#!/usr/bin/env python3
"""Run every benchmark workload briefly and check that all its outputs are correct.

    python3 tools/check_benchmark.py

Runs ``perfbench/run.py --workload W --seconds 3`` from the repository root
for each workload, one after another.  A run checks every output against the
recorded references, including every exact Monte Carlo count it reaches (the
probe's coverage, ECDF and full-design cells among them), and its last line
is a JSON summary.  Timings are not checked: three seconds are too short for
them to mean anything.

Exit status: 0 when every summary reads ``"correct": true`` with ``"failed": 0``;
1 otherwise, including a run that exits nonzero or prints no summary.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("paper-artifacts", "point-queries", "mc-oracle")


def summary(workload: str) -> dict | None:
    """The JSON summary on the run's last output line, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "3"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"check_benchmark: {workload}: exit {proc.returncode}, no summary")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"check_benchmark: {workload}: last line is not a JSON summary")
        return None


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        result = summary(workload)
        if result is None:
            ok = False
            continue
        good = result.get("correct") is True and result.get("failed") == 0
        ok &= good
        print(f"check_benchmark: {workload}: correct {result.get('correct')}, "
              f"failed {result.get('failed')} of {result.get('attempted')}"
              + ("" if good else "  <- FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
