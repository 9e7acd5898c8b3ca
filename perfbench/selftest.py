"""Self-test of the benchmark, at smoke size:

* every workload completes with failed_ratio 0 and reports exactly the
  end-to-end metrics of BENCHMARK.json;
* a perturbed analytic reference value and a perturbed Monte Carlo count
  each make failed_ratio greater than 0;
* two traced runs report exactly the per-layer metrics of BENCHMARK.json,
  with identical counts;
* an injected slowdown survives the speed correction: when every threshcov
  entry point a task calls does its work twice, the corrected tasks_per_s
  and mc_reps_per_s fall to about half;
* compare.py diff reports REGRESSED on a regressed set, FAILED on a set with
  a failed task, a raw regression even where the corrected figures hold, and
  refuses sets collected at different run lengths.

    python3 perfbench/selftest.py      # exit 0 when every check holds
"""

import contextlib
import functools
import importlib
import io
import json
import statistics
import sys

import compare
import run  # pins the thread pools before numpy loads

SEED = 1
SECONDS = 60.0  # smoke lists are finite and end well before this

# The entry points the benchmark's tasks call, by module.  Internal callers
# bind their own names, so doubling these doubles each task exactly once.
ENTRY_POINTS = {
    "finite_sample": ("tilde_cdf", "tilde_density"),
    "coverage": ("unknown_coverage", "known_coverage", "solve_unknown_half_length"),
    "simulate": ("simulate_coverage", "simulate_scaled_error_ecdf",
                 "simulate_coverage_full"),
}
INJECTED_RUNS = 3
# A doubled cost halves a rate; accept 0.5 within this margin.
HALF_MARGIN = 0.1


def smoke(workload, refs, trace=False):
    return run.run(workload, SEED, SECONDS, trace, refs=refs, smoke=True, setup_runs=1)


@contextlib.contextmanager
def doubled_entry_points():
    """Make every entry point in ENTRY_POINTS do its work twice."""
    saved = []
    for module_name, names in ENTRY_POINTS.items():
        module = importlib.import_module(f"threshcov.{module_name}")
        for name in names:
            original = getattr(module, name)

            @functools.wraps(original)
            def twice(*args, _original=original, **kwargs):
                _original(*args, **kwargs)
                return _original(*args, **kwargs)

            saved.append((module, name, original))
            setattr(module, name, twice)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def injected_ratios(workload, refs, metrics):
    """Median over INJECTED_RUNS alternating pairs of smoke runs of
    doubled / plain, per metric, corrected and raw."""
    plain, doubled = [], []
    for _ in range(INJECTED_RUNS):
        plain.append(smoke(workload, refs))
        with doubled_entry_points():
            doubled.append(smoke(workload, refs))
    ratios = {}
    for name in metrics:
        for figure, pick in (("corrected", lambda r: r["metrics"][name][0]),
                             ("raw", lambda r: r["raw"][name])):
            ratios[name, figure] = (statistics.median(map(pick, doubled))
                                    / statistics.median(map(pick, plain)))
    return ratios, all(r["failed"] == 0 for r in plain + doubled)


def diff_exit(base, new):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = compare.compare_runs(base, new)
    return code, out.getvalue()


def synthetic_runs(rate, raw_rate=None, failed=0, seconds=10):
    """Five result-set runs of one workload with tasks_per_s near `rate`."""
    runs = []
    for i, jitter in enumerate((1.0, 1.01, 0.99, 1.005, 0.995)):
        runs.append({"workload": "w", "seed": i + 1, "trace": 0, "seconds": seconds,
                     "result": {"correct": not failed, "attempted": 100,
                                "failed": failed if i == 0 else 0,
                                "metrics": {"tasks_per_s": {"value": rate * jitter,
                                                            "unit": "1/s"}}},
                     "raw": {"tasks_per_s": (raw_rate or rate) * jitter}})
    return runs


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    refs = workloads.References()
    problems = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            problems.append(message)

    for workload in run.WORKLOAD_NAMES:
        rec = smoke(workload, refs)
        expect(rec["failed"] == 0 and rec["attempted"] > 0,
               f"{workload}: {rec['failed']} of {rec['attempted']} smoke tasks failed "
               f"{rec['failures'][:3]}")
        expect(list(rec["metrics"]) == e2e and all(v > 0 for v, _, _ in
                                                   rec["metrics"].values()),
               f"{workload}: reports every end-to-end metric, all positive")

    saved = refs.queries[0]
    refs.queries[0] = saved + 1e-6 * max(1.0, abs(saved))
    rec = smoke("point-queries", refs)
    refs.queries[0] = saved
    expect(rec["failed"] > 0, "a perturbed point-query reference is caught")

    refs.mc_exact["probe"][0] += 1
    rec = smoke("mc-oracle", refs)
    refs.mc_exact["probe"][0] -= 1
    expect(rec["failed"] > 0, "a perturbed Monte Carlo count is caught")

    first, second = smoke("mc-oracle", refs, True), smoke("mc-oracle", refs, True)
    expect(list(first["metrics"]) == layers, "traced run reports every per-layer metric")
    counts = [name for name, (_, unit, _) in first["metrics"].items() if unit == "count"]
    same = all(first["metrics"][n][0] == second["metrics"][n][0] for n in counts)
    expect(same and first["failed"] == 0 and second["failed"] == 0,
           f"per-layer counts repeat exactly across two traced runs ({len(counts)} counts)")

    for workload, metrics in (("point-queries", ("tasks_per_s",)),
                              ("mc-oracle", ("tasks_per_s", "mc_reps_per_s"))):
        ratios, clean = injected_ratios(workload, refs, metrics)
        shown = ", ".join(f"{n} {f} {r:.3f}" for (n, f), r in ratios.items())
        expect(clean and all(abs(ratios[n, "corrected"] - 0.5) <= HALF_MARGIN
                             for n in metrics),
               f"{workload}: doubled entry points halve the corrected rates ({shown})")

    base = synthetic_runs(100.0)
    cases = (
        ("the same figures pass", synthetic_runs(100.0), 0, None),
        ("a halved rate is REGRESSED", synthetic_runs(50.0), 1, "REGRESSED"),
        ("a halved raw rate alone is reported", synthetic_runs(100.0, raw_rate=50.0),
         0, "raw +0.500, REGRESSED"),
        ("a failed task is FAILED", synthetic_runs(100.0, failed=1), 1, "FAILED"),
        ("sets of different run lengths are refused", synthetic_runs(100.0, seconds=5),
         2, None),
    )
    for label, new, want_code, want_text in cases:
        code, text = diff_exit(base, new)
        expect(code == want_code and (want_text is None or want_text in text),
               f"compare diff: {label} (exit {code})")

    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
