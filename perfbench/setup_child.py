"""Set-up probe, run in a fresh interpreter by run.py: times `import threshcov`
plus the first call of every entry point a run uses, then times the
analytic speed-reference kernel, and prints {"setup_s": seconds, "kernel_s": seconds}.
Thread pools are pinned by the parent's environment."""

from time import perf_counter

start = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports threshcov)

workloads.first_calls()
setup_s = perf_counter() - start

import statistics  # noqa: E402

import speed  # noqa: E402

kernel_s = statistics.median(speed.kernel_seconds("analytic") for _ in range(9))
print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
