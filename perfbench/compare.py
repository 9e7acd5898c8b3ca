"""Repeat benchmark runs and compare result sets against BENCHMARK.json.

    python3 perfbench/compare.py collect --out base.json --seeds 1,2,3,4,5 \\
        [--workloads point-queries,mc-oracle] [--trace 0]
    python3 perfbench/compare.py stats base.json
    python3 perfbench/compare.py diff base.json new.json

``collect`` runs ``run.py`` once per (seed, workload), one run at a time,
for ``run_seconds`` of ``BENCHMARK.json``, and saves every run's result
line, raw (uncorrected) figures, run length and provenance.  ``stats``
prints, per workload and metric, the sample count, median, quartiles and
spread (interquartile range over median) next to the metric's bound.

``diff`` compares two result sets metric by metric, on the speed-corrected
figures and again on the raw ones: a metric whose median got worse by more
than its bound is REGRESSED; when either side's spread is wider than the
bound the verdict is "unresolved", unless every new run beats every base
run.  A workload with any failed task in the new set is FAILED.  diff exits
1 if a corrected metric regressed or a workload failed, and 2 without
comparing if the two sets were collected at different run lengths.  A raw
regression alone is printed with a warning but does not set the exit code:
the raw figures also move with the machine's speed between the two sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    """BENCHMARK.json, and its metrics by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def collect(args) -> int:
    spec, _ = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    out = Path(args.out)
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            results_file = ROOT / next(line.split(": ", 1)[1] for line in lines
                                       if line.startswith("  results: "))
            full = json.loads(results_file.read_text())
            runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                         "seconds": seconds, "provenance": full["provenance"],
                         "result": result, "raw": full.get("raw", {})})
            out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    print_stats(runs)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def grouped(runs, raw=False):
    """{workload: {metric: [values]}}, from the result lines or, with `raw`,
    from the uncorrected figures; plus {workload: (failed, attempted)}."""
    values, failures = {}, {}
    for run in runs:
        res = run["result"]
        per = values.setdefault(run["workload"], {})
        figures = (run.get("raw", {}) if raw
                   else {name: m["value"] for name, m in res["metrics"].items()})
        for name, value in figures.items():
            per.setdefault(name, []).append(value)
        f, a = failures.get(run["workload"], (0, 0))
        failures[run["workload"]] = (f + res["failed"], a + res["attempted"])
    return values, failures


def print_stats(runs) -> None:
    _, spec = load_spec()
    values, failures = grouped(runs)
    for workload, metrics in values.items():
        failed, attempted = failures[workload]
        print(f"\n{workload}: failed_ratio {failed / attempted:.3g} "
              f"({failed} of {attempted} tasks)")
        print(f"  {'metric':<46} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}")
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            meta = spec.get(name, {})
            bound = meta.get("bound")
            s = spread(vals)
            flag = ""
            if bound is not None:
                flag = "steady" if s < bound / 3 else "ok" if s <= bound else "WIDE"
            print(f"  {name:<46} {meta.get('unit', ''):<6} {len(vals):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {s:>7.3f} "
                  f"{bound if bound is not None else '-':>6} {flag}")


def stats(args) -> int:
    print_stats(json.loads(Path(args.file).read_text())["runs"])
    return 0


def verdict(base, new, better: str, bound: float):
    """(worse-by share, verdict) of new against base."""
    mb, mn = statistics.median(base), statistics.median(new)
    worse = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
    if max(spread(base), spread(new)) > bound:
        beats = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
        return worse, "better" if beats else "unresolved"
    if worse > bound:
        return worse, "REGRESSED"
    return worse, "ok"


def load_runs(path):
    return json.loads(Path(path).read_text())["runs"]


def diff(args) -> int:
    return compare_runs(load_runs(args.base), load_runs(args.new))


def compare_runs(base_runs, new_runs) -> int:
    """Print the comparison of two result sets; returns diff's exit code."""
    _, spec = load_spec()
    lengths = {run.get("seconds") for run in base_runs + new_runs}
    if len(lengths) != 1:
        print(f"error: the sets mix run lengths {sorted(lengths, key=str)} s; "
              "collect both at the same run_seconds", file=sys.stderr)
        return 2
    base, base_failures = grouped(base_runs)
    new, new_failures = grouped(new_runs)
    base_raw, _ = grouped(base_runs, raw=True)
    new_raw, _ = grouped(new_runs, raw=True)
    bad = False
    raw_only = []
    for workload in sorted(base.keys() & new.keys()):
        (fb, ab), (fn, an) = base_failures[workload], new_failures[workload]
        bad |= fn > 0
        print(f"\n{workload}: failed {fn} of {an} tasks (base {fb} of {ab})"
              + ("  FAILED" if fn else ""))
        print(f"  {'metric':<46} {'base':>12} {'new':>12} {'worse_by':>9} "
              f"{'bound':>6}  verdict  [raw worse_by, verdict]")
        for name in base[workload]:
            if name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            line = (f"  {name:<46} {statistics.median(b):>12.6g} "
                    f"{statistics.median(n):>12.6g}")
            meta = spec.get(name, {})
            if "bound" in meta:
                worse, v = verdict(b, n, meta["better"], meta["bound"])
                bad |= v == "REGRESSED"
                line += f" {worse:>+9.3f} {meta['bound']:>6}  {v} (n={len(b)}/{len(n)})"
                rb = base_raw[workload].get(name)
                rn = new_raw[workload].get(name)
                if rb and rn:
                    raw_worse, raw_v = verdict(rb, rn, meta["better"], meta["bound"])
                    if raw_v == "REGRESSED" and v != "REGRESSED":
                        raw_only.append(f"{workload} {name}")
                    line += f"  [raw {raw_worse:+.3f}, {raw_v}]"
            print(line)
    if raw_only:
        # The correction removes whatever slows the speed kernels too: drift of
        # the machine, but also a slowdown of the whole process.
        print(f"\nraw figures REGRESSED where corrected ones did not: {', '.join(raw_only)}."
              "\nEither the machine slowed between the sets or the change slows the whole"
              "\nprocess; collect base and new again, alternating, to tell them apart.")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run workloads repeatedly")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("stats", help="median, quartiles and spread per metric")
    p.add_argument("file")
    p = sub.add_parser("diff", help="compare two result sets against the bounds")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    return {"collect": collect, "stats": stats, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
