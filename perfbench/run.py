"""threshcov benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload point-queries --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Run from the root of a source checkout; the library is imported from
``src/``.  One process drives the library as a closed loop: a single caller
issues tasks back to back.  With ``--trace 0`` a run executes

1. set-up: ``SETUP_RUNS`` fresh interpreters each time ``import threshcov``
   plus the first call of every entry point;
2. the workload's seeded main list until ``--seconds`` have passed (whole
   artifact passes on ``paper-artifacts``), with the fixed probe, which
   touches every layer at small size, spread evenly over that time.

End-to-end times are corrected for drifting machine speed (see
``speed.py``); the printed notes and the results file keep the raw figures.
With ``--trace 1`` the main list has a fixed length, runs untraced and
traced twice over, and the run reports per-layer metrics from the traced
passes.

Every output is then checked against the recorded reference (see
``workloads.py``).  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric by name with its unit and sample count.  A full results
file with provenance goes to ``perfbench/results/``.
"""

import os

# Thread pools are pinned before numpy loads; the full-design path otherwise
# spins up BLAS threads that compete with the single caller.
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 5
WORKLOAD_NAMES = ("paper-artifacts", "point-queries", "mc-oracle")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    return args


def measure_setup(runs: int) -> list[dict]:
    """Set-up and reference-kernel seconds of `runs` fresh interpreters,
    after one unmeasured interpreter that fills the bytecode cache."""
    samples = []
    for i in range(runs + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py")],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


class Session:
    """One run's state: the references, the speed meter, the recorder of a
    traced pass, and the failures found so far.  Each output is checked as
    soon as its task ends, outside the task's timed call, and only a timing
    record is kept, so memory does not grow with the task count."""

    def __init__(self, refs, meter):
        self.refs = refs
        self.meter = meter
        self.recorder = None
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, task, tag: str) -> "Timing":
        import workloads
        self.meter.sample()
        if self.recorder is not None:
            self.recorder.task_id = tag
        outcome = workloads.run_task(task)
        problem = workloads.check(outcome, self.refs)
        self.attempted += 1
        if problem:
            self.failures.append(problem)
        return Timing(task.family, outcome.start, outcome.seconds, task.reps)

    def corrected(self, t: "Timing") -> float:
        """A task's seconds, corrected for machine speed (see speed.py)."""
        return t.seconds / self.meter.slowdown(t.family, t.start, t.start + t.seconds)

    def corrected_seconds(self, timings) -> float:
        return sum(self.corrected(t) for t in timings)

    def phase(self, tasks, label: str, seconds: float | None = None, probe=()):
        """Run tasks back to back, timing the speed kernels between them.

        With `seconds`, stop after the first task that ends a unit once the
        time is up, and run the `probe` blocks spread evenly over that time
        (any left over run at the end).  Returns (timings, probe timings).
        """
        timings, probe_timings = [], []
        blocks = iter(probe)
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else math.inf
        for i, task in enumerate(tasks):
            if probe:
                due = min(len(probe),
                          1 + int(len(probe) * (time.perf_counter() - start) / seconds))
                while len(probe_timings) < due:
                    j = len(probe_timings)
                    probe_timings.append([self.execute(t, f"probe{j}:{k}")
                                          for k, t in enumerate(next(blocks))])
            timings.append(self.execute(task, f"{label}:{i}"))
            if task.unit_end and time.perf_counter() >= deadline:
                break
        for j, block in enumerate(blocks, start=len(probe_timings)):
            probe_timings.append([self.execute(t, f"probe{j}:{k}")
                                  for k, t in enumerate(block)])
        self.meter.sample(force=True)
        return timings, [t for block in probe_timings for t in block]


Timing = collections.namedtuple("Timing", "family start seconds reps")


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(session: Session, timings, main: list, setup_samples):
    """The end-to-end metrics as {name: (value, unit, note)}, with times
    corrected for machine speed (see speed.py), and {name: raw value}."""
    import speed
    queries = [t for t in timings if t.family == "query"]
    latency = sorted(session.corrected(t) * 1e3 for t in queries)
    raw_latency = sorted(t.seconds * 1e3 for t in queries)
    n_q = len(latency)
    beyond = n_q - math.ceil(0.99 * n_q)

    def rate(group, count):
        return (count(group) / session.corrected_seconds(group),
                count(group) / sum(t.seconds for t in group))

    def reps(cells):
        return sum(t.reps for t in cells)

    fast = rate([t for t in timings if t.family in ("mc-coverage", "mc-ecdf")], reps)
    full = rate([t for t in timings if t.family == "mc-full"], reps)
    tasks = rate(main, len)
    reference = speed.KERNELS["analytic"][1]
    setup = statistics.median(x["setup_s"] * reference / x["kernel_s"]
                              for x in setup_samples)
    raw_setup = statistics.median(x["setup_s"] for x in setup_samples)
    p50, p99 = nearest_rank(latency, 0.50), nearest_rank(latency, 0.99)
    rss = peak_rss_mb()
    metrics = {
        "setup_s": (setup, "s", f"median of {len(setup_samples)} fresh interpreters"),
        "tasks_per_s": (tasks[0], "1/s", f"{len(main)} main tasks"),
        "query_p50_ms": (p50, "ms", f"n={n_q} queries"),
        "query_p99_ms": (p99, "ms", f"n={n_q} queries, {beyond} beyond"),
        "mc_reps_per_s": (fast[0], "1/s", "fast-path cells"),
        "mc_full_reps_per_s": (full[0], "1/s", "full-design cells"),
        "peak_rss_mb": (rss, "MB", "benchmark process and children"),
    }
    raw = {
        "setup_s": raw_setup,
        "tasks_per_s": tasks[1],
        "query_p50_ms": nearest_rank(raw_latency, 0.50),
        "query_p99_ms": nearest_rank(raw_latency, 0.99),
        "mc_reps_per_s": fast[1],
        "mc_full_reps_per_s": full[1],
        "peak_rss_mb": rss,
    }
    return metrics, raw


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "threshcov").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import workloads
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **workloads.library_versions(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_ENV},
        "quadrature": workloads.quadrature_config(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, refs=None,
        smoke: bool = False, setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run; returns the results record (metrics with units and
    notes, counts, failures, and the span recorder of a traced run)."""
    setup_samples = [] if trace else measure_setup(setup_runs)
    import workloads
    import speed
    refs = refs or workloads.References()
    workloads.first_calls()
    session = Session(refs, speed.SpeedMeter())
    probe = workloads.probe_blocks(refs, smoke=smoke)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        main, probe_timings = session.phase(
            workloads.main_tasks(workload, seed, refs, smoke=smoke), "main", seconds,
            probe=probe)
        metrics, record["raw"] = end_to_end(session, probe_timings + main, main,
                                            setup_samples)
    else:
        import tracing
        main_list = list(workloads.main_tasks(workload, seed, refs, traced=True,
                                              smoke=smoke))
        probe = [task for block in probe for task in block]
        session.phase(probe, "probe")
        recorder = tracing.Recorder()
        untraced, traced = [], []
        # Untraced and traced passes alternate so that warm-up favours neither.
        for rep in (1, 2):
            main, _ = session.phase(main_list, f"main#{rep}")
            untraced.extend(main)
            session.recorder = recorder
            recorder.install()
            try:
                session.phase(probe, f"probe#{rep}")
                main, _ = session.phase(main_list, f"main#{rep}")
            finally:
                recorder.uninstall()
                session.recorder = None
            traced.extend(main)
        overhead = session.corrected_seconds(untraced) / session.corrected_seconds(traced)
        metrics = {name: (value, unit, "traced passes")
                   for name, (value, unit) in
                   tracing.per_layer_metrics(recorder.spans, overhead).items()}
        record["recorder"] = recorder
    record.update(metrics=metrics, attempted=session.attempted,
                  failed=len(session.failures), failures=session.failures[:50])
    return record


def summary_lines(record) -> list[str]:
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"seconds {record['seconds']:g}  trace {record['trace']}"]
    raw = record.get("raw", {})
    for name, (value, unit, note) in record["metrics"].items():
        if name in raw:
            note += f"; raw {raw[name]:.4g}"
        lines.append(f"  {name:<46} {value:>16.6g} {unit:<6} ({note})")
    ratio = record["failed"] / record["attempted"]
    lines.append(f"  {'failed_ratio':<46} {ratio:>16.6g} {'ratio':<6} "
                 f"({record['failed']} of {record['attempted']} tasks)")
    lines += [f"  FAILED: {msg}" for msg in record["failures"]]
    return lines


def result_line(record) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in record["metrics"].items()},
    })


def write_results(record, prov: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    recorder = record.pop("recorder", None)
    if recorder is not None:
        record["spans_file"] = f"{stem}.spans.jsonl.gz"
        recorder.write(RESULTS / record["spans_file"])
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps({"provenance": prov, **record}, indent=2) + "\n",
                    encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "threshcov" / "__init__.py").is_file():
        print(f"error: no threshcov sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_results(record, provenance(args.workload, args.seed))
    print("\n".join(summary_lines(record)))
    print(f"  results: {path.relative_to(ROOT)}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
