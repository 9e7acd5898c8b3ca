#!/usr/bin/env python3
"""Trace the peak resident memory of a benchmark run, step by step.

    python3 tools/trace_rss.py

Replays the start of a benchmark run in this process, in its order: the
imports (``perfbench/workloads.py``, which imports threshcov), the recorded
references, ``workloads.first_calls()`` and then every probe task, in probe
order.  ``perfbench/workloads.py`` supplies all of them; it is imported,
never modified.  BLAS threads are pinned to 1, as in a benchmark run.

After the imports, the references and ``first_calls()`` it prints the peak
resident set size (``ru_maxrss``) and the modules the step loaded, counted
by top-level package and scipy's by subpackage, and then the same for each
probe task that raises the peak.  It counts the outputs that miss their
reference, but only the benchmark and the other check tools gate on them.

The library's runtime needs numpy and ``scipy.special`` only.  Exit status:
1 when anything loaded ``scipy.linalg`` or ``scipy.optimize`` (which cost
memory and import time and no value of the library needs); 0 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

FORBIDDEN = ("scipy.linalg", "scipy.optimize")


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Steps:
    """Prints each step's peak and the modules it loaded."""

    def __init__(self):
        self.peak = peak_mb()
        self.modules = set(sys.modules)
        print(f"trace_rss: interpreter: ru_maxrss {self.peak:.1f} MB")

    def record(self, label: str, always: bool = True) -> None:
        peak, modules = peak_mb(), set(sys.modules)
        loaded, self.modules = modules - self.modules, modules
        if always or peak > self.peak:
            print(f"trace_rss: {label}: ru_maxrss {peak:.1f} MB ({peak - self.peak:+.1f}), "
                  f"{len(loaded)} modules loaded{packages(loaded)}")
        self.peak = max(self.peak, peak)


def packages(loaded) -> str:
    """The modules grouped by top-level package, scipy's by subpackage."""
    groups = collections.Counter(
        ".".join(m.split(".")[:2 if m.startswith("scipy.") else 1]) for m in loaded)
    ranked = sorted(groups.items(), key=lambda item: (-item[1], item[0]))
    shown = [item for item in ranked if item[0].startswith("scipy")]
    shown += [item for item in ranked if not item[0].startswith("scipy")][:6]
    rest = len(loaded) - sum(count for _, count in shown)
    listed = [f"{name} {count}" for name, count in sorted(shown)]
    listed += [f"{rest} others"] if rest else []
    return f" ({', '.join(listed)})" if listed else ""


def main() -> int:
    steps = Steps()
    import workloads
    steps.record("imports")
    refs = workloads.References()
    steps.record("references")
    workloads.first_calls()
    steps.record("first_calls()")
    tasks = failed = 0
    for j, block in enumerate(workloads.probe_blocks(refs)):
        for k, task in enumerate(block):
            failed += workloads.check(workloads.run_task(task), refs) is not None
            tasks += 1
            steps.record(f"probe{j}:{k} {task.family} {task.key}", always=False)
    print(f"trace_rss: {tasks} probe tasks, {failed} with an output off its reference")
    loaded = [name for name in FORBIDDEN if name in sys.modules]
    if loaded:
        print(f"trace_rss: FAIL: the library loaded {', '.join(loaded)}")
        return 1
    print(f"trace_rss: peak {steps.peak:.1f} MB; neither {' nor '.join(FORBIDDEN)} loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
