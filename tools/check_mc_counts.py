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

Per cell family (full-design cells split by variance mode) it also prints
the mean milliseconds per cell and the values passed to the inverse normal
(``simulate.std_normal_quantile``, wrapped here) per replication.  The
lazy first-use work (the ``scipy.linalg`` import of the full-design path
and the bracket tables) is done before the first cell, untimed.  The
pass/fail rule does not read these figures, but the inversion counts
repeat exactly from run to run, so a change in how many replications each
settling level decides shows as a changed count.

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

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from threshcov import simulate  # noqa: E402


def warm_up() -> None:
    """The lazy first-use work, untimed: the scipy.linalg import of the
    full-design path and the bracket tables, whose building inverts 4097
    values per table."""
    import scipy.linalg  # noqa: F401

    simulate._z_midpoints()
    for m in workloads.DOF_SETUPS:
        simulate._sigma_hat_bracket(m)


def count_normal_inversions() -> list[int]:
    """Wrap simulate.std_normal_quantile; the returned one-element list holds
    the running count of the values it was passed."""
    inverse, count = simulate.std_normal_quantile, [0]

    def counting(p):
        count[0] += np.size(p)
        return inverse(p)

    simulate.std_normal_quantile = counting
    return count


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
    warm_up()
    inverted = count_normal_inversions()
    seconds = collections.Counter()
    cells = collections.Counter()
    reps = collections.Counter()
    normals = collections.Counter()
    failures = []
    for task in recorded_tasks(refs):
        if workloads._mc_exact(refs, task.key) is None:
            failures.append(f"{task.family} cell {task.key}: no recorded count")
            continue
        family = task.family
        if family == "mc-full":
            family += f" ({task.config[3]})"  # its variance mode
        before = inverted[0]
        outcome = workloads.run_task(task)
        normals[family] += inverted[0] - before
        reps[family] += task.reps
        seconds[family] += outcome.seconds
        cells[family] += 1
        reason = workloads.check(outcome, refs)
        if reason is not None:
            failures.append(reason)
    for family in sorted(cells):
        print(f"check_mc_counts: {family}: {cells[family]} cells, "
              f"{1e3 * seconds[family] / cells[family]:.1f} ms per cell, "
              f"{normals[family] / reps[family]:.4f} normal inversions per replication")
    for reason in failures:
        print(f"check_mc_counts: FAIL {reason}")
    total = sum(cells.values())
    print(f"check_mc_counts: {total - len(failures)} of {total} recorded cells match")
    return 1 if failures or total == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
