"""Workload inputs, task execution and the reference check for the benchmark.

A task is one call into the library's public API.  Every run executes a
seeded *main* task list (the workload) and a fixed *probe* list that touches
every layer once at small size, so that each end-to-end and per-layer metric
is measured on every workload.  Outputs are checked against the values the
reference recorder (``record.py``) stored under ``ref/``:

* analytic values (CLI artifacts, point queries) within ``ATOL + RTOL*|ref|``,
  a tolerance 100 times looser than the library's default quadrature target
  (abs/rel 1e-10), so a change of panel layout or batching is not a failure;
* Monte Carlo hit and ECDF counts exactly where the recorder stored them (the
  probe cells and the first ``MC_RECORDED_CELLS`` cells of the default and
  held-out seeds), because Philox absolute addressing makes them
  bit-reproducible;
* every Monte Carlo estimate, on any seed, against the exact analytic value
  within ``MC_Z`` binomial standard errors.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import hashlib
import io
import itertools
import json
import math
import random
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import threshcov
from threshcov import cli, coverage, finite_sample, model, simulate

REF_DIR = Path(__file__).resolve().parent / "ref"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

ATOL = 1e-8
RTOL = 1e-8
MC_Z = 6.0

# Residual degrees of freedom m and the (n, k) that give it.
DOF_SETUPS = {5: (40, 35), 995: (1000, 5)}

# Point-query pool: every seed draws its queries from this fixed pool, so the
# recorded values check any seed.  The first PROBE_QUERIES entries belong to
# the probe and never appear in a main list.
POOL_SEED = 20130815
POOL_SIZE = 50000
PROBE_QUERIES = 4000
QUERY_FUNCS = ("tilde_cdf", "tilde_density", "unknown_coverage",
               "known_coverage", "solve_unknown_half_length")
KINDS = ("hard", "soft", "asoft")

# Monte Carlo cells.  A main list repeats the family pattern below, so one
# cell in six is a full-design cell.
COVERAGE_REPS = 100_000
ECDF_REPS = 100_000
FULL_REPS = 20_000
MC_PATTERN = ("coverage", "coverage", "ecdf", "coverage", "coverage", "full")
MC_ETAS = (0.05, 0.5)
MC_NUS = (0.0, 1.0, 3.0)
MC_MODES = ("known", "estimated")
ECDF_GRID = tuple(float(x) for x in np.linspace(-4.0, 4.0, 41))
MC_RECORDED_CELLS = 300

# Fixed task-list sizes of a traced run, independent of --seconds so that the
# per-layer counts repeat exactly.
TRACE_QUERIES = 4000
TRACE_CELLS = 48


def artifact_tasks() -> list[list[str]]:
    """Every CLI artifact of the paper at the reference scenario (n=40, k=35)."""
    tasks = [["table1"], ["limit_check"]]
    for eta in ("0.05", "0.5"):
        for which in ("pdfH", "pdfS", "pdfAS"):
            for theta in ("0", "0.16"):
                tasks.append(["figure", "--which", which, "--theta", theta,
                              "--eta", eta])
        for which in ("covH", "covAS"):
            tasks.append(["figure", "--which", which, "--eta", eta])
        tasks.append(["coverage_curve", "--kind", "soft", "--eta", eta])
        for kind in KINDS:
            for mode in ("known", "estimated"):
                tasks.append(["interval", "--kind", kind, "--mode", mode,
                              "--eta", eta])
    return tasks


PROBE_ARTIFACTS = (
    ["table1"],
    ["figure", "--which", "pdfH", "--theta", "0", "--eta", "0.5"],
    ["coverage_curve", "--kind", "soft", "--a", "0.5"],
    ["interval", "--kind", "asoft"],
    ["limit_check", "--fast"],
)
# (family, config index, Philox seed) of the probe's Monte Carlo cells; the
# first three, one per family, are the smoke probe.
PROBE_CELLS = (("coverage", 0, 11), ("ecdf", 5, 12), ("full", 3, 13),
               ("coverage", 6, 14), ("coverage", 13, 15), ("full", 7, 16),
               ("coverage", 19, 17), ("ecdf", 14, 18), ("full", 11, 19),
               ("coverage", 25, 20), ("coverage", 31, 21), ("full", 16, 22),
               ("coverage", 37, 23), ("ecdf", 23, 24), ("full", 20, 25),
               ("coverage", 43, 26), ("coverage", 49, 27), ("full", 25, 28),
               ("coverage", 55, 29), ("ecdf", 32, 30), ("full", 30, 31),
               ("coverage", 61, 32), ("coverage", 70, 33), ("full", 34, 34))
PROBE_ORDER_SEED = 0
PROBE_BLOCKS = 10


def query_pool() -> list[tuple]:
    """The fixed pool of point queries: (func, kind, m, eta, nu, arg).

    theta = nu sigma xi / sqrt(n) (a quarter of the queries sit at theta = 0,
    the atom case); arg is x on the conservative scale for the CDF and
    density, the half-length for coverages, and the level for the solver.
    """
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        func = rng.choice(QUERY_FUNCS)
        kind = rng.choice(KINDS)
        m = rng.choice(tuple(DOF_SETUPS))
        n = DOF_SETUPS[m][0]
        eta = round(10.0 ** rng.uniform(-2.0, 0.0), 6)
        nu = 0.0 if rng.random() < 0.25 else round(rng.uniform(-5.0, 5.0), 6)
        if func in ("tilde_cdf", "tilde_density"):
            arg = round(rng.uniform(-4.0, 4.0), 6)
        elif func == "solve_unknown_half_length":
            arg = round(rng.uniform(0.01, 0.2), 6)
        else:
            arg = round(rng.uniform(0.5, 6.0) / math.sqrt(n), 6)
        pool.append((func, kind, m, eta, nu, arg))
    return pool


def pool_fingerprint(pool) -> str:
    return hashlib.sha256(repr(pool).encode()).hexdigest()


def mc_configs() -> dict:
    """Parameter grids of the Monte Carlo cells, before the recorder adds
    half-lengths and exact values."""
    return {
        "coverage": [(kind, eta, nu, mode, m) for kind in KINDS for eta in MC_ETAS
                     for nu in MC_NUS for mode in MC_MODES for m in DOF_SETUPS],
        "ecdf": [(kind, eta, nu, m) for kind in KINDS for eta in MC_ETAS
                 for nu in MC_NUS for m in DOF_SETUPS],
        "full": [(kind, eta, nu, mode) for kind in KINDS for eta in MC_ETAS
                 for nu in MC_NUS for mode in MC_MODES],
    }


def make_setup(m: int, eta: float) -> model.ProblemSetup:
    n, k = DOF_SETUPS[m]
    return model.ProblemSetup(n=n, k=k, xi=1.0, sigma=1.0, eta=eta)


def cell_seed(seed: int, index: int) -> int:
    """Philox key of main cell `index` under workload seed `seed`."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return 1 + int.from_bytes(digest[:8], "little") % (2 ** 63 - 1)


@dataclasses.dataclass
class Task:
    """One call into the library.  key addresses the reference value; reps is
    the replication count of a Monte Carlo cell (0 otherwise); unit_end marks
    the last task of a unit the timed loop may stop after."""

    family: str
    key: object
    call: Callable[[], object]
    reps: int = 0
    unit_end: bool = True
    config: tuple | None = None


@dataclasses.dataclass
class Outcome:
    task: Task
    start: float
    seconds: float
    output: object = None
    error: str | None = None


def run_task(task: Task) -> Outcome:
    start = perf_counter()
    try:
        output = task.call()
    except Exception as exc:  # a failed task is counted, not fatal
        return Outcome(task, start, perf_counter() - start,
                       error=f"{type(exc).__name__}: {exc}")
    return Outcome(task, start, perf_counter() - start, output)


def run_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def artifact_task(argv, unit_end=True) -> Task:
    return Task("artifact", " ".join(argv), lambda: run_cli(argv), unit_end=unit_end)


def query_task(pool, index: int) -> Task:
    func, kind, m, eta, nu, arg = pool[index]
    setup = make_setup(m, eta)
    theta = nu / setup.root_n
    if func in ("tilde_cdf", "tilde_density"):
        alpha = finite_sample.ScalingFactor.conservative(setup)
        if func == "tilde_cdf":
            call = lambda: finite_sample.tilde_cdf(kind, arg, setup, theta, alpha)
        else:
            call = lambda: finite_sample.tilde_density(kind, arg, setup, theta, alpha)
    elif func == "unknown_coverage":
        spec = coverage.IntervalSpec(arg, arg, model.VarianceMode.ESTIMATED)
        call = lambda: coverage.unknown_coverage(kind, theta, 1.0, spec, setup)
    elif func == "known_coverage":
        spec = coverage.IntervalSpec(arg, arg, model.VarianceMode.KNOWN)
        call = lambda: coverage.known_coverage(kind, theta, 1.0, spec, setup)
    else:
        call = lambda: coverage.solve_unknown_half_length(kind, arg, setup)
    return Task("query", index, call)


def mc_task(configs: dict, family: str, index: int, philox_seed: int, key) -> Task:
    """A Monte Carlo cell; its output is the hit count, or for an ECDF cell
    the counts at the grid points followed by the exact-zero count."""
    cfg = configs[family][index]
    if family == "ecdf":
        kind, eta, nu, m = cfg[:4]
        setup = make_setup(m, eta)
        plan = simulate.SimulationPlan(setup=setup, theta=nu / setup.root_n,
                                       reps=ECDF_REPS, seed=philox_seed)
        alpha = finite_sample.ScalingFactor.conservative(setup)

        def call():
            res = simulate.simulate_scaled_error_ecdf(plan, kind, alpha, ECDF_GRID)
            counts = np.rint(res.values * res.reps).astype(np.int64).tolist()
            return counts + [int(round(res.zero_mass * res.reps))]

        return Task("mc-ecdf", key, call, ECDF_REPS, config=cfg)
    if family == "coverage":
        kind, eta, nu, mode, m, a = cfg[:6]
        reps = COVERAGE_REPS
    else:
        kind, eta, nu, mode, a = cfg[:5]
        m, reps = 5, FULL_REPS
    setup = make_setup(m, eta)
    plan = simulate.SimulationPlan(setup=setup, theta=nu / setup.root_n,
                                   reps=reps, seed=philox_seed)
    spec = coverage.IntervalSpec(a, a, model.VarianceMode(mode))

    def call():
        # Looked up at call time so that a traced run sees its wrappers.
        if family == "coverage":
            p, _ = simulate.simulate_coverage(plan, kind, spec)
        else:
            p, _ = simulate.simulate_coverage_full(plan, kind, spec)
        return int(round(p * reps))

    return Task(f"mc-{family}", key, call, reps, config=cfg)


class References:
    """Recorded seed-commit outputs, loaded from ref/."""

    def __init__(self, ref_dir: Path = REF_DIR):
        with gzip.open(ref_dir / "queries.json.gz", "rt", encoding="utf-8") as fh:
            q = json.load(fh)
        self.pool = query_pool()
        if q["pool_fingerprint"] != pool_fingerprint(self.pool):
            raise RuntimeError("query pool does not match the recorded reference")
        self.queries = [float(v) for v in q["values"]]
        with gzip.open(ref_dir / "artifacts.json.gz", "rt", encoding="utf-8") as fh:
            self.artifacts = json.load(fh)
        with open(ref_dir / "mc.json", encoding="utf-8") as fh:
            mc = json.load(fh)
        self.mc_configs = mc["configs"]
        self.mc_exact = mc["exact"]


def probe_blocks(refs: References, smoke: bool = False) -> list[list[Task]]:
    """The fixed probe, identical on every workload and seed, as PROBE_BLOCKS
    blocks that a run spreads over its time.  Tasks are shuffled once with a
    fixed seed, so each family spreads over the blocks.  Within a block the
    Monte Carlo cells and artifacts run first: a query right after one of
    them runs with cold caches, and one such query per block stays below the
    1% latency tail."""
    queries = range(100 if smoke else PROBE_QUERIES)
    tasks = [query_task(refs.pool, i) for i in queries]
    cells = PROBE_CELLS[:3] if smoke else PROBE_CELLS
    tasks += [mc_task(refs.mc_configs, fam, idx, pseed, f"probe:{j}")
              for j, (fam, idx, pseed) in enumerate(cells)]
    artifacts = PROBE_ARTIFACTS[3:4] if smoke else PROBE_ARTIFACTS
    tasks += [artifact_task(argv) for argv in artifacts]
    random.Random(PROBE_ORDER_SEED).shuffle(tasks)
    bounds = [len(tasks) * b // PROBE_BLOCKS for b in range(PROBE_BLOCKS + 1)]
    return [sorted(tasks[lo:hi], key=lambda t: t.family == "query")
            for lo, hi in zip(bounds, bounds[1:])]


def main_tasks(workload: str, seed: int, refs: References, *, traced: bool = False,
               smoke: bool = False) -> Iterator[Task]:
    """The workload's seeded task sequence.

    Untraced runs consume it until the time is up, so it is unbounded (a
    list wraps around with a fresh permutation); traced and smoke runs get a
    fixed prefix.
    """
    rng = random.Random(seed)
    if workload == "paper-artifacts":
        tasks = artifact_tasks()
        if smoke:
            tasks = [t for t in tasks if t[0] == "interval"][:4]
        passes = itertools.count() if not (traced or smoke) else range(1)
        for _ in passes:
            order = rng.sample(tasks, len(tasks))
            for j, argv in enumerate(order):
                yield artifact_task(argv, unit_end=(j == len(order) - 1))
    elif workload == "point-queries":
        limit = 200 if smoke else TRACE_QUERIES if traced else None
        main = range(PROBE_QUERIES, POOL_SIZE)
        laps = (index for _ in itertools.count() for index in rng.sample(main, len(main)))
        for index in itertools.islice(laps, limit):
            yield query_task(refs.pool, index)
    elif workload == "mc-oracle":
        limit = len(MC_PATTERN) if smoke else TRACE_CELLS if traced else None
        counts = {fam: len(cfgs) for fam, cfgs in refs.mc_configs.items()}
        for i in itertools.islice(itertools.count(), limit):
            fam = MC_PATTERN[i % len(MC_PATTERN)]
            idx = rng.randrange(counts[fam])
            yield mc_task(refs.mc_configs, fam, idx, cell_seed(seed, i), f"{seed}:{i}")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def first_calls() -> None:
    """One small call of every entry point a run uses (lazy set-up)."""
    setup = make_setup(5, 0.5)
    alpha = finite_sample.ScalingFactor.conservative(setup)
    finite_sample.tilde_cdf("hard", 0.3, setup, 0.1, alpha)
    finite_sample.tilde_density("asoft", 0.3, setup, 0.1, alpha)
    est = coverage.IntervalSpec(0.5, 0.5, model.VarianceMode.ESTIMATED)
    coverage.unknown_coverage("soft", 0.1, 1.0, est, setup)
    coverage.known_coverage("soft", 0.1, 1.0, coverage.IntervalSpec(0.5, 0.5), setup)
    coverage.solve_unknown_half_length("hard", 0.05, setup)
    plan = simulate.SimulationPlan(setup=setup, theta=0.1, reps=1000, seed=3)
    simulate.simulate_coverage(plan, "hard", est)
    simulate.simulate_scaled_error_ecdf(plan, "hard", alpha, ECDF_GRID)
    simulate.simulate_coverage_full(plan, "hard", est)
    run_cli(["interval"])


# ---------------------------------------------------------------- checking

def _close(got: float, ref: float) -> bool:
    return got == ref or abs(got - ref) <= ATOL + RTOL * abs(ref)


def _match_json(got, ref) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return _close(float(got), float(ref))
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(_match_json(got[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(_match_json(g, r) for g, r in zip(got, ref)))
    return got == ref


def _match_cell(got: str, ref: str) -> bool:
    try:
        return _close(float(got), float(ref))
    except ValueError:
        return got == ref


def outputs_match(got: str, ref: str) -> bool:
    """Compare two CLI outputs: JSON structurally, CSV cell by cell; numbers
    within the analytic tolerance, everything else exactly."""
    if ref.lstrip().startswith("{"):
        try:
            return _match_json(json.loads(got), json.loads(ref))
        except json.JSONDecodeError:
            return False
    got_rows = got.splitlines()
    ref_rows = ref.splitlines()
    if len(got_rows) != len(ref_rows):
        return False
    for g, r in zip(got_rows, ref_rows):
        gc, rc = g.split(","), r.split(",")
        if len(gc) != len(rc) or not all(map(_match_cell, gc, rc)):
            return False
    return True


def _mc_exact(refs: References, key: str):
    if key.startswith("probe:"):
        return refs.mc_exact["probe"][int(key.split(":")[1])]
    seed, index = key.split(":")
    recorded = refs.mc_exact.get(seed)
    if recorded is not None and int(index) < len(recorded):
        return recorded[int(index)]
    return None


def _within_z(count: int, reps: int, p: float) -> bool:
    se = max(math.sqrt(p * (1.0 - p) / reps), 1.0 / reps)
    return abs(count / reps - p) <= MC_Z * se


def check(outcome: Outcome, refs: References) -> str | None:
    """None if the task's output agrees with the reference, else a reason."""
    task = outcome.task
    if outcome.error is not None:
        return f"{task.family} {task.key}: raised {outcome.error}"
    out = outcome.output
    if task.family == "artifact":
        ref = refs.artifacts[task.key]
        code, text = out
        if code != ref["exit"] or not outputs_match(text, ref["output"]):
            return f"artifact {task.key!r}: output differs from the reference"
        return None
    if task.family == "query":
        ref = refs.queries[task.key]
        if not _close(float(out), ref):
            return f"query {refs.pool[task.key]}: got {out!r}, reference {ref!r}"
        return None
    exact = _mc_exact(refs, task.key)
    if exact is not None and out != exact:
        return f"{task.family} cell {task.key}: counts differ from the recorded ones"
    return _mc_statistical(task, out)


def _mc_statistical(task: Task, out) -> str | None:
    """The cell's estimate against the exact analytic value (stored last in
    its config), within MC_Z standard errors."""
    cfg = task.config
    if task.family == "mc-ecdf":
        exact_cdf, atom = cfg[-2], cfg[-1]
        for count, p in zip(out[:-1], exact_cdf):
            if not _within_z(count, task.reps, p):
                return f"ecdf cell {task.key}: ECDF off the exact CDF by more than {MC_Z} SE"
        if atom is not None and not _within_z(out[-1], task.reps, atom):
            return f"ecdf cell {task.key}: zero mass off the atom by more than {MC_Z} SE"
        return None
    if not _within_z(out, task.reps, cfg[-1]):
        return (f"{task.family} cell {task.key}: coverage {out / task.reps:.6f} vs "
                f"exact {cfg[-1]:.6f} beyond {MC_Z} SE")
    return None


def library_versions() -> dict:
    import scipy
    return {"threshcov": threshcov.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def quadrature_config() -> dict:
    from threshcov.special import DEFAULT_QUADRATURE
    return dataclasses.asdict(DEFAULT_QUADRATURE)
