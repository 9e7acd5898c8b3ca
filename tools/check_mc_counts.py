#!/usr/bin/env python3
"""Replay every recorded Monte Carlo cell of the benchmark and check its counts.

    python3 tools/check_mc_counts.py            # compare counts and inversions
    python3 tools/check_mc_counts.py --record   # rewrite the inversion digest

``perfbench/ref/mc.json`` records exact hit and ECDF counts for 624 cells:
the 24 probe cells and the first 300 main cells of the mc-oracle workload
under seeds 1 and 2.  Timed benchmark runs reach them only when they last
long enough; this script runs each of them once, in order, and compares its
output with the recorded one (and with the stored exact value, within the
benchmark's standard-error band).  ``perfbench/workloads.py`` supplies the
cells and the check; it is imported, never modified.  BLAS threads are
pinned to 1, as in a benchmark run.

Per cell family (full-design cells split by variance mode) it also prints
the mean milliseconds per cell and, per replication, the values passed to
the inverse normal and to the inverse chi-square
(``simulate.std_normal_quantile`` and ``simulate.chi_sq_quantile``, both
wrapped here).  The lazy first-use work (the bracket tables) is done
before the first cell, untimed.  The timings are not checked.  The inversion counts repeat exactly
from run to run, so the script hashes each cell's pair of counts, in cell
order, and compares that sha256 with the one in ``tools/mc_inversions.json``.
A replication that leaves the grid level is normal-inverted, and one that
leaves the per-replication sigma_hat level (estimated variance) is
chi-square-inverted, so a change that moves replications out of either
level, or back into it, changes a count and fails.  Nothing is inverted at
the known-variance exact step that the grid level does not already count,
so the gate sees no move below the grid there.  A change that moves counts
on purpose re-records the digest with ``--record`` and says so.

Exit status: 0 when every cell matches and the inversion digest is
unchanged; 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().parent / "mc_inversions.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from threshcov import simulate  # noqa: E402


def warm_up() -> None:
    """The lazy first-use work, untimed: the bracket tables, whose building
    inverts 4097 values per table."""
    simulate._z_midpoints()
    for m in workloads.DOF_SETUPS:
        simulate._sigma_hat_bracket(m)


def count_inversions(name: str) -> list[int]:
    """Wrap the simulate binding `name` (an inverse CDF whose first argument
    is the probabilities); the returned one-element list holds the running
    count of the values it was passed."""
    inverse, count = getattr(simulate, name), [0]

    def counting(p, *args):
        count[0] += np.size(p)
        return inverse(p, *args)

    setattr(simulate, name, counting)
    return count


def recorded_tasks(refs: workloads.References):
    """The probe cells, then the recorded main cells of each seed."""
    for j, (family, index, seed) in enumerate(workloads.PROBE_CELLS):
        yield workloads.mc_task(refs.mc_configs, family, index, seed, f"probe:{j}")
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        recorded = len(refs.mc_exact[str(seed)])
        yield from itertools.islice(
            workloads.main_tasks("mc-oracle", seed, refs), recorded)


def main(argv=None) -> int:
    record = "--record" in (sys.argv[1:] if argv is None else argv)
    refs = workloads.References()
    warm_up()
    inverted = count_inversions("std_normal_quantile")
    chi_inverted = count_inversions("chi_sq_quantile")
    seconds = collections.Counter()
    cells = collections.Counter()
    reps = collections.Counter()
    normals = collections.Counter()
    chis = collections.Counter()
    failures = []
    counts = hashlib.sha256()
    for task in recorded_tasks(refs):
        if workloads._mc_exact(refs, task.key) is None:
            failures.append(f"{task.family} cell {task.key}: no recorded count")
            continue
        family = task.family
        if family == "mc-full":
            family += f" ({task.config[3]})"  # its variance mode
        before, chi_before = inverted[0], chi_inverted[0]
        outcome = workloads.run_task(task)
        normals[family] += inverted[0] - before
        chis[family] += chi_inverted[0] - chi_before
        counts.update(struct.pack("<qq", inverted[0] - before, chi_inverted[0] - chi_before))
        reps[family] += task.reps
        seconds[family] += outcome.seconds
        cells[family] += 1
        reason = workloads.check(outcome, refs)
        if reason is not None:
            failures.append(reason)
    for family in sorted(cells):
        print(f"check_mc_counts: {family}: {cells[family]} cells, "
              f"{1e3 * seconds[family] / cells[family]:.1f} ms per cell, "
              f"{normals[family] / reps[family]:.4f} normal and "
              f"{chis[family] / reps[family]:.4f} chi-square inversions per replication")
    for reason in failures:
        print(f"check_mc_counts: FAIL {reason}")
    total = sum(cells.values())
    print(f"check_mc_counts: {total - len(failures)} of {total} recorded cells match")
    got = {"cells": total, "inversions_sha256": counts.hexdigest()}
    if record:
        DIGEST.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"check_mc_counts: recorded the inversion digest in {DIGEST.name}")
        return 1 if failures or total == 0 else 0
    want = json.loads(DIGEST.read_text(encoding="utf-8"))
    same = got == want
    print(f"check_mc_counts: inversion digest {got['inversions_sha256'][:16]}... "
          f"{'matches' if same else 'DIFFERS from'} {DIGEST.name}")
    return 1 if failures or total == 0 or not same else 0


if __name__ == "__main__":
    sys.exit(main())
