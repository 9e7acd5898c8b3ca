#!/usr/bin/env python3
"""Run every benchmark workload briefly and check that all its outputs are correct.

    python3 tools/check_benchmark.py

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace R`` from
the repository root, one run after another: paper-artifacts and
point-queries at seed 1 for 3 s, and mc-oracle at seeds 1 and 2 for 10 s
each, then one traced run (``--trace 1``, a fixed task list; about 5, 10 and
8 s on a 2-core Xeon VM) of each workload at seed 1.  The
references record exact Monte Carlo counts for the first 300 main cells of
both seeds, and 10 s reach all of them (about 700 main cells on a 2-core
Xeon VM; 3 s reach about 80).  A run checks every output against the
recorded references, including every exact Monte Carlo count it reaches (the
probe's coverage, ECDF and full-design cells among them), and its last line
is a JSON summary.  Timings are not checked: runs this short are not long
enough for them to mean anything.  The traced runs check that the span
recorder, which wraps library functions and the integrands they receive,
leaves every output as it is.

Exit status: 0 when every summary reads ``"correct": true`` with ``"failed": 0``;
1 otherwise, including a run that exits nonzero or prints no summary.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (workload, seed, seconds, trace) of each run
RUNS = (("paper-artifacts", 1, 3, 0), ("point-queries", 1, 3, 0),
        ("mc-oracle", 1, 10, 0), ("mc-oracle", 2, 10, 0),
        ("paper-artifacts", 1, 3, 1), ("point-queries", 1, 3, 1),
        ("mc-oracle", 1, 3, 1))


def summary(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """The JSON summary on the run's last output line, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    name = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0 or not lines:
        print(f"check_benchmark: {name}: exit {proc.returncode}, no summary")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"check_benchmark: {name}: last line is not a JSON summary")
        return None


def main() -> int:
    ok = True
    for workload, seed, seconds, trace in RUNS:
        result = summary(workload, seed, seconds, trace)
        if result is None:
            ok = False
            continue
        good = result.get("correct") is True and result.get("failed") == 0
        ok &= good
        print(f"check_benchmark: {workload} seed {seed} trace {trace}: "
              f"correct {result.get('correct')}, "
              f"failed {result.get('failed')} of {result.get('attempted')}"
              + ("" if good else "  <- FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
