#!/usr/bin/env python3
"""Replay every recorded Monte Carlo cell of the benchmark and check its counts.

    python3 tools/check_mc_counts.py

``perfbench/ref/mc.json`` records exact hit and ECDF counts for 624 cells:
the 24 probe cells and the first 300 main cells of the mc-oracle workload
under seeds 1 and 2.  Timed benchmark runs reach them only when they last
long enough; this script runs each of them once, in order, and compares its
output with the recorded one (and with the stored exact value, within the
benchmark's standard-error band).  ``perfbench/workloads.py`` supplies the
cells and the check; it is imported, never modified.  BLAS threads are
pinned to 1, as in a benchmark run.

Exit status: 0 when every cell matches; 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def recorded_tasks(refs: workloads.References):
    """The probe cells, then the recorded main cells of each seed."""
    for j, (family, index, seed) in enumerate(workloads.PROBE_CELLS):
        yield workloads.mc_task(refs.mc_configs, family, index, seed, f"probe:{j}")
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        recorded = len(refs.mc_exact[str(seed)])
        yield from itertools.islice(
            workloads.main_tasks("mc-oracle", seed, refs), recorded)


def main() -> int:
    refs = workloads.References()
    seconds = collections.Counter()
    cells = collections.Counter()
    failures = []
    for task in recorded_tasks(refs):
        if workloads._mc_exact(refs, task.key) is None:
            failures.append(f"{task.family} cell {task.key}: no recorded count")
            continue
        outcome = workloads.run_task(task)
        seconds[task.family] += outcome.seconds
        cells[task.family] += 1
        reason = workloads.check(outcome, refs)
        if reason is not None:
            failures.append(reason)
    for family in sorted(cells):
        print(f"check_mc_counts: {family}: {cells[family]} cells, "
              f"{1e3 * seconds[family] / cells[family]:.1f} ms per cell")
    for reason in failures:
        print(f"check_mc_counts: FAIL {reason}")
    total = sum(cells.values())
    print(f"check_mc_counts: {total - len(failures)} of {total} recorded cells match")
    return 1 if failures or total == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
